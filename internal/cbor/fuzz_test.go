package cbor

import (
	"testing"
	"testing/quick"

	"blueskies/internal/cid"
)

// TestDecodeArbitraryBytesNeverPanics feeds random byte strings to the
// decoder: hostile network input must produce errors, never panics or
// runaway allocations.
func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode(%x) panicked: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		_, _, _ = DecodePrefix(data)
		var target map[string]any
		_ = Unmarshal(data, &target)
		for _, mk := range typedTargets {
			_ = Unmarshal(data, mk())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzUnmarshalTyped runs the typed/generic differential check on
// fuzzer bytes: typed Unmarshal must agree with Decode + assign on every
// target, the same value or an error from both, and never panic.
//
//	go test -fuzz FuzzUnmarshalTyped -fuzztime 30s -run '^$' ./internal/cbor/
func FuzzUnmarshalTyped(f *testing.F) {
	doc := diffDoc{
		ID:     -7,
		Name:   "n",
		Leaves: []diffLeaf{{N: 1, U: 2, F: 0.5, S: "s", B: []byte{9}, OK: true}},
		Ptr:    &diffLeaf{N: -1},
		Link:   cid.SumCBOR([]byte("link")),
		Links:  []cid.CID{cid.SumRaw([]byte("raw"))},
		Any:    map[string]any{"k": []any{int64(1), "v", nil}},
		Tags:   map[string]int64{"t": 3},
		Counts: []uint32{1, 1 << 31},
		Grid:   [][]int8{{-128, 127}, {}},
		Ratio:  1.5,
	}
	f.Add(MustMarshal(&doc))
	f.Add(MustMarshal(doc.Leaves))
	f.Add(MustMarshal(doc.Link))
	f.Add([]byte{0x9a, 0x00, 0x10, 0x00, 0x00, 0xa0})
	f.Add([]byte{0xa2, 0x61, 0x62, 0x01, 0x61, 0x61, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTyped(t, data)
	})
}

// TestDecodeHostileLengths verifies that absurd declared lengths fail
// fast instead of allocating.
func TestDecodeHostileLengths(t *testing.T) {
	hostile := [][]byte{
		{0x5b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // bytes(2^64-1)
		{0x9b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // array(2^64-1)
		{0xbb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // map(2^64-1)
	}
	for _, data := range hostile {
		if _, err := Decode(data); err == nil {
			t.Fatalf("hostile input %x accepted", data)
		}
	}
}
