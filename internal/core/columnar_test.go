package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// columnarTestBlock builds one RecordBlock exercising every collection
// and field class the columnar codec carries, including the header.
func columnarTestBlock() *RecordBlock {
	ds := diskTestDataset()
	return &RecordBlock{
		Header: &StreamHeader{
			Scale:         ds.Scale,
			WindowStart:   ds.WindowStart,
			WindowEnd:     ds.WindowEnd,
			Firehose:      ds.Firehose,
			NonBskyEvents: ds.NonBskyEvents,
		},
		Labelers:      ds.Labelers,
		Users:         ds.Users,
		Posts:         ds.Posts,
		Days:          ds.Daily,
		Labels:        ds.Labels,
		FeedGens:      ds.FeedGens,
		Domains:       ds.Domains,
		HandleUpdates: ds.HandleUpdates,
	}
}

// TestColumnarV3RoundTrip pins the lossless contract of the codec at
// the single-block level, including the degenerate blocks the disk
// writer emits (header-only, one collection at a time, empty).
func TestColumnarV3RoundTrip(t *testing.T) {
	full := columnarTestBlock()
	blocks := []*RecordBlock{
		full,
		{},
		{Header: full.Header, Labelers: full.Labelers},
		{Users: full.Users},
		{Posts: full.Posts},
		{Days: full.Days},
		{Labels: full.Labels},
		{FeedGens: full.FeedGens},
		{Domains: full.Domains},
		{HandleUpdates: full.HandleUpdates},
	}
	for i, b := range blocks {
		got, err := UnmarshalBlock(MarshalBlock(b))
		if err != nil {
			t.Fatalf("block %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Errorf("block %d drifted through the columnar codec:\n got %+v\nwant %+v", i, got, b)
		}
	}
}

// TestColumnarV1ParityNormalization pins the nil normalization the
// row-CBOR codec established and every DeepEqual golden was recorded
// against: empty slices and maps decode as nil, so a golden never sees
// a nil/empty distinction.
func TestColumnarV1ParityNormalization(t *testing.T) {
	day := time.Date(2024, 3, 10, 0, 0, 0, 0, time.UTC)
	empties := &RecordBlock{
		Users:    []User{{DID: "did:plc:x"}},
		Days:     []DayActivity{{Date: day, ActiveByLang: map[string]int{}}},
		Labelers: []Labeler{{DID: "did:plc:l", Values: []string{}}},
	}
	want := &RecordBlock{
		Users:    []User{{DID: "did:plc:x"}},
		Days:     []DayActivity{{Date: day}},
		Labelers: []Labeler{{DID: "did:plc:l"}},
	}
	got, err := UnmarshalBlock(MarshalBlock(empties))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty slices/maps do not normalize to nil:\n got %+v\nwant %+v", got, want)
	}
}

// TestColumnarV3Determinism pins byte-identical encoding across calls
// — content-hash cache keys and spill goldens stand on it.
func TestColumnarV3Determinism(t *testing.T) {
	b := columnarTestBlock()
	first := encodeColumnar(b)
	for i := 0; i < 8; i++ {
		if !bytes.Equal(first, encodeColumnar(b)) {
			t.Fatalf("encoding of the same block drifted on call %d", i)
		}
	}
}

// TestColumnarV3DictView pins the DictBlock contract: the captured
// label id columns resolve through the captured dictionary to exactly
// the decoded label strings.
func TestColumnarV3DictView(t *testing.T) {
	b, db, err := UnmarshalBlockDict(MarshalBlock(columnarTestBlock()), true)
	if err != nil {
		t.Fatal(err)
	}
	if db == nil || len(db.Dict) == 0 {
		t.Fatal("no dictionary view")
	}
	if len(db.LabelSrc) != len(b.Labels) || len(db.LabelVal) != len(b.Labels) || len(db.LabelKind) != len(b.Labels) {
		t.Fatalf("label id columns not parallel to labels (%d/%d/%d ids, %d labels)",
			len(db.LabelSrc), len(db.LabelVal), len(db.LabelKind), len(b.Labels))
	}
	for i := range b.Labels {
		if db.Dict[db.LabelSrc[i]] != b.Labels[i].Src {
			t.Fatalf("label %d src id %d resolves to %q, want %q", i, db.LabelSrc[i], db.Dict[db.LabelSrc[i]], b.Labels[i].Src)
		}
		if db.Dict[db.LabelVal[i]] != b.Labels[i].Val {
			t.Fatalf("label %d val id mismatch", i)
		}
		if db.Dict[db.LabelKind[i]] != string(b.Labels[i].Kind) {
			t.Fatalf("label %d kind id mismatch", i)
		}
	}
}

// TestColumnarV3HostileBytes fuzzes the decoder with truncations, bit
// flips, and garbage — every outcome must be an error or a decoded
// block, never a panic or a runaway allocation.
func TestColumnarV3HostileBytes(t *testing.T) {
	valid := encodeColumnar(columnarTestBlock())[1:]
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		var mut []byte
		switch i % 3 {
		case 0:
			mut = append([]byte(nil), valid...)
			for j := 0; j < 1+rng.Intn(8); j++ {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
		case 1:
			mut = valid[:rng.Intn(len(valid))]
		case 2:
			mut = make([]byte, rng.Intn(256))
			rng.Read(mut)
		}
		_, _ = decodeColumnar(mut, nil)
	}
}

// TestSimulatedV1ReaderRejectsV2 pins the version gate on a real block
// file: the same bytes restamped as the retired v1 or v2, or as a
// future version, fail the header check with an error naming that
// version — never misparsed — while the unaltered file opens and reads.
func TestSimulatedV1ReaderRejectsV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.cbor")
	if err := WritePartition(path, diskTestDataset(), 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, DiskFormatVersion + 1} {
		stamped := append([]byte(nil), data...)
		binary.BigEndian.PutUint32(stamped[len(partitionMagic):], v)
		_, err := NewPartitionReader(bytes.NewReader(stamped))
		if err == nil {
			t.Fatalf("a v%d block file was accepted", v)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("format v%d", v)) {
			t.Errorf("rejection does not name the offending version %d: %v", v, err)
		}
	}
	pr, err := NewPartitionReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("current reader rejected its own file: %v", err)
	}
	if err := drainPartition(pr); err != nil {
		t.Fatalf("current reader failed on its own file: %v", err)
	}
}

// lzPayload rewrites a tagged payload into its LZ-bit form.
func lzPayload(t *testing.T, payload []byte) []byte {
	t.Helper()
	comp := lzCompress(payload[1:])
	if comp == nil {
		t.Fatal("test payload did not compress")
	}
	out := []byte{payload[0] | blockCodecLZ}
	out = binary.AppendUvarint(out, uint64(len(payload)-1))
	return append(out, comp...)
}

// TestUnmarshalBlockDispatch pins the codec-tag gate: the columnar tag
// decodes, plain or LZ-compressed; the retired v2 tags 0x01 (tagged
// row CBOR) and 0x02 (v2 columnar) — bare or behind the LZ bit — an
// unknown tag, and empty input all fail with an error, never a panic.
func TestUnmarshalBlockDispatch(t *testing.T) {
	b := columnarTestBlock()
	enc := MarshalBlock(b)
	for name, data := range map[string][]byte{"plain": enc, "lz": lzPayload(t, enc)} {
		got, err := UnmarshalBlock(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Errorf("%s: decoded block drifted", name)
		}
	}
	for _, tag := range []byte{0x01, 0x02, 0x7f, 0xa9} {
		retagged := append([]byte{tag}, enc[1:]...)
		if _, err := UnmarshalBlock(retagged); err == nil {
			t.Errorf("codec tag %#x accepted", tag)
		}
		if tag&blockCodecLZ == 0 {
			if _, err := UnmarshalBlock(lzPayload(t, retagged)); err == nil {
				t.Errorf("codec tag %#x behind the LZ bit accepted", tag)
			}
		}
	}
	if _, err := UnmarshalBlock(nil); err == nil {
		t.Error("empty block accepted")
	}
}

// TestLZRoundTrip pins the LZ codec: compressible input round-trips
// exactly, incompressible input is declined, and compression is
// deterministic.
func TestLZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][]byte{
		bytes.Repeat([]byte("abcd"), 1000),
		bytes.Repeat([]byte{0}, 500),
		[]byte("at://did:plc:aaaa/app.bsky.feed.post/1at://did:plc:aaaa/app.bsky.feed.post/2"),
		encodeColumnar(columnarTestBlock()),
	}
	long := make([]byte, 200000)
	for i := range long {
		long[i] = byte(rng.Intn(4)) // low-entropy, long matches
	}
	cases = append(cases, long)
	for i, src := range cases {
		comp := lzCompress(src)
		if comp == nil {
			t.Fatalf("case %d: compressible input declined", i)
		}
		if len(comp) >= len(src) {
			t.Fatalf("case %d: output %d not smaller than input %d", i, len(comp), len(src))
		}
		if again := lzCompress(src); !bytes.Equal(comp, again) {
			t.Fatalf("case %d: compression not deterministic", i)
		}
		got, err := lzDecompress(comp, len(src))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip drifted", i)
		}
	}
	// Random bytes do not compress; the encoder must say so rather
	// than inflate.
	noise := make([]byte, 4096)
	rng.Read(noise)
	if comp := lzCompress(noise); comp != nil {
		t.Fatalf("incompressible input accepted (%d -> %d bytes)", len(noise), len(comp))
	}
}

// TestLZHostileBytes fuzzes the LZ decoder: corrupt streams, lying raw
// lengths, and garbage must all fail cleanly.
func TestLZHostileBytes(t *testing.T) {
	src := encodeColumnar(columnarTestBlock())
	comp := lzCompress(src)
	if comp == nil {
		t.Fatal("test payload did not compress")
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 4000; i++ {
		mut := append([]byte(nil), comp...)
		switch i % 4 {
		case 0:
			for j := 0; j < 1+rng.Intn(8); j++ {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
		case 1:
			mut = mut[:rng.Intn(len(mut))]
		case 2:
			mut = make([]byte, rng.Intn(256))
			rng.Read(mut)
		case 3:
			// keep the stream, lie about the raw length below
		}
		declared := len(src)
		if i%4 == 3 {
			declared = rng.Intn(4 * len(src))
		}
		out, err := lzDecompress(mut, declared)
		if err == nil && len(out) != declared {
			t.Fatalf("iteration %d: decoder returned %d bytes without error, declared %d", i, len(out), declared)
		}
	}
	// A lying raw length far beyond what the stream could produce is
	// rejected before allocation.
	if _, err := lzDecompress([]byte{0x80, 1, 0}, maxBlockBytes); err == nil {
		t.Fatal("absurd raw length accepted")
	}
}
