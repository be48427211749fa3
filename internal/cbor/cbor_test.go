package cbor

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"blueskies/internal/cid"
)

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", v, err)
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(%x): %v", data, err)
	}
	return out
}

func TestPrimitivesRoundTrip(t *testing.T) {
	cases := []struct {
		in   any
		want any
	}{
		{nil, nil},
		{true, true},
		{false, false},
		{0, int64(0)},
		{23, int64(23)},
		{24, int64(24)},
		{255, int64(255)},
		{256, int64(256)},
		{65535, int64(65535)},
		{65536, int64(65536)},
		{int64(1) << 40, int64(1) << 40},
		{-1, int64(-1)},
		{-25, int64(-25)},
		{-1 << 40, int64(-1 << 40)},
		{"", ""},
		{"hello", "hello"},
		{"日本語", "日本語"},
		{3.5, 3.5},
		{-0.0, -0.0},
		{[]byte{1, 2, 3}, []byte{1, 2, 3}},
	}
	for _, tc := range cases {
		got := roundTrip(t, tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("round trip %v: got %v (%T), want %v (%T)", tc.in, got, got, tc.want, tc.want)
		}
	}
}

func TestIntegerMinimalEncoding(t *testing.T) {
	// 23 must encode in 1 byte, 24 in 2, 256 in 3, 65536 in 5.
	for _, tc := range []struct {
		v    int
		size int
	}{{23, 1}, {24, 2}, {255, 2}, {256, 3}, {65535, 3}, {65536, 5}} {
		data, err := Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != tc.size {
			t.Errorf("Marshal(%d) = %d bytes, want %d", tc.v, len(data), tc.size)
		}
	}
}

func TestRejectNonMinimalInteger(t *testing.T) {
	// 0x18 0x05 encodes 5 with a needless extra byte.
	if _, err := Decode([]byte{0x18, 0x05}); err == nil {
		t.Fatal("expected error for non-minimal integer")
	}
}

func TestMapCanonicalOrder(t *testing.T) {
	m := map[string]any{"bb": 1, "a": 2, "ab": 3, "c": 4}
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// Keys must appear length-first then lexicographic: a, c, ab, bb.
	wantOrder := []string{"a", "c", "ab", "bb"}
	var idx []int
	for _, k := range wantOrder {
		idx = append(idx, bytes.Index(data, []byte(k)))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i-1] >= idx[i] {
			t.Fatalf("keys not in canonical order: positions %v for %v", idx, wantOrder)
		}
	}
	// Decoding must accept the canonical document.
	if _, err := Decode(data); err != nil {
		t.Fatalf("Decode canonical map: %v", err)
	}
}

func TestRejectNonCanonicalMapOrder(t *testing.T) {
	// {"b":1, "a":2} with keys out of order.
	data := []byte{
		0xa2, // map(2)
		0x61, 'b', 0x01,
		0x61, 'a', 0x02,
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("expected error for non-canonical key order")
	}
}

func TestDeterminism(t *testing.T) {
	m := map[string]any{"x": []any{int64(1), "two", 3.0}, "y": map[string]any{"nested": true}}
	a := MustMarshal(m)
	b := MustMarshal(m)
	if !CanonicalEqual(a, b) {
		t.Fatal("same value produced different encodings")
	}
}

func TestCIDLink(t *testing.T) {
	// A codec of 0x3fff takes a two-byte varint, so the binary CID is
	// one byte longer than the usual 36.
	wide, err := cid.Decode(append([]byte{0x01, 0xff, 0x7f, 0x12, 0x20}, make([]byte, 32)...))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []cid.CID{cid.SumCBOR([]byte("block")), wide} {
		data, err := Marshal(map[string]any{"link": c})
		if err != nil {
			t.Fatal(err)
		}
		raw := c.Bytes()
		want := append([]byte{0xa1, 0x64, 'l', 'i', 'n', 'k', 0xd8, 42, 0x58, byte(len(raw) + 1), 0x00}, raw...)
		if !bytes.Equal(data, want) {
			t.Fatalf("CID link encodes as %x, want %x", data, want)
		}
		out, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		m := out.(map[string]any)
		got, ok := m["link"].(cid.CID)
		if !ok {
			t.Fatalf("link decoded as %T, want cid.CID", m["link"])
		}
		if !got.Equal(c) {
			t.Fatalf("CID mismatch: %s vs %s", got, c)
		}
	}
}

func TestUndefinedCIDRejected(t *testing.T) {
	if _, err := Marshal(map[string]any{"link": cid.CID{}}); err == nil {
		t.Fatal("expected error encoding undefined CID")
	}
}

type post struct {
	Type      string   `cbor:"$type"`
	Text      string   `cbor:"text"`
	Langs     []string `cbor:"langs,omitempty"`
	CreatedAt string   `cbor:"createdAt"`
	Reply     *reply   `cbor:"reply,omitempty"`
	Root      cid.CID  `cbor:"root,omitempty"`
}

type reply struct {
	Parent string `cbor:"parent"`
}

func TestStructRoundTrip(t *testing.T) {
	in := post{
		Type:      "app.bsky.feed.post",
		Text:      "hello bluesky",
		Langs:     []string{"en"},
		CreatedAt: "2024-04-01T12:00:00Z",
		Reply:     &reply{Parent: "at://did:plc:abc/app.bsky.feed.post/xyz"},
		Root:      cid.SumCBOR([]byte("root")),
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out post
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("struct round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestStructOmitEmpty(t *testing.T) {
	in := post{Type: "app.bsky.feed.post", Text: "t", CreatedAt: "now"}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	m := out.(map[string]any)
	for _, absent := range []string{"langs", "reply", "root"} {
		if _, ok := m[absent]; ok {
			t.Errorf("empty field %q must be omitted", absent)
		}
	}
}

func TestUnmarshalIntoMap(t *testing.T) {
	data := MustMarshal(map[string]any{"a": 1, "b": 2})
	var m map[string]int64
	if err := Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["a"] != 1 || m["b"] != 2 {
		t.Fatalf("got %v", m)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	data := append(MustMarshal("x"), 0x00)
	if _, err := Decode(data); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
	var s string
	if err := Unmarshal(data, &s); err == nil {
		t.Fatal("expected trailing-bytes error from Unmarshal")
	}
}

func TestDecodePrefix(t *testing.T) {
	head := MustMarshal(map[string]any{"op": 1, "t": "#commit"})
	body := MustMarshal(map[string]any{"seq": 42})
	frame := append(append([]byte{}, head...), body...)
	v1, n, err := DecodePrefix(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(head) {
		t.Fatalf("prefix consumed %d bytes, want %d", n, len(head))
	}
	v2, err := Decode(frame[n:])
	if err != nil {
		t.Fatal(err)
	}
	if v1.(map[string]any)["t"] != "#commit" || v2.(map[string]any)["seq"] != int64(42) {
		t.Fatalf("frame decode mismatch: %v %v", v1, v2)
	}
}

func TestTruncatedInputs(t *testing.T) {
	full := MustMarshal(map[string]any{"key": []any{"value", int64(7)}})
	for i := 1; i < len(full); i++ {
		if _, err := Decode(full[:i]); err == nil {
			t.Fatalf("Decode of %d/%d byte prefix succeeded", i, len(full))
		}
	}
}

func TestInvalidUTF8Rejected(t *testing.T) {
	data := []byte{0x62, 0xff, 0xfe} // text(2) with invalid UTF-8
	if _, err := Decode(data); err == nil {
		t.Fatal("expected invalid UTF-8 error")
	}
}

func TestUnsupportedTagRejected(t *testing.T) {
	data := []byte{0xc1, 0x00} // tag(1) 0
	if _, err := Decode(data); err == nil {
		t.Fatal("expected unsupported tag error")
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		data, err := Marshal(s)
		if err != nil {
			return false
		}
		out, err := Decode(data)
		return err == nil && out == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(i int64) bool {
		data, err := Marshal(i)
		if err != nil {
			return false
		}
		out, err := Decode(data)
		return err == nil && out == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloatRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true // NaN != NaN; skip
		}
		data, err := Marshal(x)
		if err != nil {
			return false
		}
		out, err := Decode(data)
		return err == nil && out == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMapRoundTrip(t *testing.T) {
	f := func(m map[string]int64) bool {
		in := make(map[string]any, len(m))
		for k, v := range m {
			in[k] = v
		}
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		out, err := Decode(data)
		if err != nil {
			return false
		}
		om, ok := out.(map[string]any)
		if !ok || len(om) != len(m) {
			return false
		}
		for k, v := range m {
			if om[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		data, err := Marshal(b)
		if err != nil {
			return false
		}
		out, err := Decode(data)
		if err != nil {
			return false
		}
		ob, ok := out.([]byte)
		return ok && bytes.Equal(ob, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
