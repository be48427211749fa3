package cbor

import (
	"fmt"
	"testing"

	"blueskies/internal/cid"
)

// benchDoc is shaped like the codec's heaviest users: shard state
// (slices of small keyed structs and integer columns) and stream
// frames (strings, byte payloads and CID links).
type benchDoc struct {
	Version int        `cbor:"v"`
	Repo    string     `cbor:"repo"`
	Commit  cid.CID    `cbor:"commit"`
	Blocks  []byte     `cbor:"blocks"`
	Ops     []benchOp  `cbor:"ops"`
	Counts  []int64    `cbor:"counts"`
	Sums    []uint32   `cbor:"sums,omitempty"`
	Meta    *benchMeta `cbor:"meta,omitempty"`
	Rates   []float64  `cbor:"rates"`
}

type benchOp struct {
	Action string  `cbor:"action"`
	Path   string  `cbor:"path"`
	CID    cid.CID `cbor:"cid,omitempty"`
	Count  int64   `cbor:"count"`
	Lang   string  `cbor:"lang,omitempty"`
}

type benchMeta struct {
	Seq  int64 `cbor:"seq"`
	Time string
	Tool bool `cbor:"tool"`
}

func newBenchDoc() benchDoc {
	d := benchDoc{
		Version: 3,
		Repo:    "did:plc:ewvi7nxzyoun6zhxrhs64oiz",
		Commit:  cid.SumCBOR([]byte("commit")),
		Blocks:  make([]byte, 512),
		Meta:    &benchMeta{Seq: 123456789, Time: "2024-04-01T12:00:00Z", Tool: true},
	}
	for i := 0; i < 64; i++ {
		op := benchOp{
			Action: "create",
			Path:   fmt.Sprintf("app.bsky.feed.post/3k%06d", i),
			Count:  int64(i * 37),
		}
		if i%4 == 0 {
			op.CID = cid.SumCBOR([]byte(op.Path))
			op.Lang = "en"
		}
		d.Ops = append(d.Ops, op)
	}
	for i := 0; i < 256; i++ {
		d.Counts = append(d.Counts, int64(i*i)-1000)
		d.Sums = append(d.Sums, uint32(i*7919))
	}
	for i := 0; i < 16; i++ {
		d.Rates = append(d.Rates, float64(i)/3)
	}
	return d
}

// BenchmarkMarshalStruct times encoding a representative nested struct.
func BenchmarkMarshalStruct(b *testing.B) {
	doc := newBenchDoc()
	data := MustMarshal(&doc)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Marshal(&doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshalStruct times decoding the same struct into a fresh
// typed target.
func BenchmarkUnmarshalStruct(b *testing.B) {
	doc := newBenchDoc()
	data := MustMarshal(&doc)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		var out benchDoc
		if err := Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}
