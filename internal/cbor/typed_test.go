package cbor

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"blueskies/internal/cid"
)

// The typed decoder (decodeInto) must agree with the generic one
// (decodeValue + assign) on every input: the same value, or an error
// from both. The encoder's per-type plan must write the same bytes as
// encoding the value's generic tree. These types cover every shape the
// direct paths handle and several they hand to the fallback.

type diffLeaf struct {
	N  int32   `cbor:"n"`
	U  uint16  `cbor:"u,omitempty"`
	F  float64 `cbor:"f"`
	S  string  `cbor:"s,omitempty"`
	B  []byte  `cbor:"b"`
	OK bool    `cbor:"ok"`
}

type diffDoc struct {
	ID     int64            `cbor:"id"`
	Name   string           // untagged: key "name"
	Leaves []diffLeaf       `cbor:"leaves"`
	Ptr    *diffLeaf        `cbor:"ptr,omitempty"`
	Link   cid.CID          `cbor:"link,omitempty"`
	Links  []cid.CID        `cbor:"links"`
	OptCID *cid.CID         `cbor:"optCid,omitempty"`
	Any    any              `cbor:"any"`
	Tags   map[string]int64 `cbor:"tags,omitempty"`
	Counts []uint32         `cbor:"counts"`
	Grid   [][]int8         `cbor:"grid"`
	Ratio  float32          `cbor:"r"`
	Skip   string           `cbor:"-"`
}

// Generate implements quick.Generator: quick cannot build cid.CID or
// any-typed fields on its own.
func (diffDoc) Generate(r *rand.Rand, size int) reflect.Value {
	var d diffDoc
	d.ID = r.Int63() - r.Int63()
	d.Name = randString(r)
	for i := r.Intn(4); i > 0; i-- {
		d.Leaves = append(d.Leaves, randLeaf(r))
	}
	if r.Intn(2) == 0 {
		l := randLeaf(r)
		d.Ptr = &l
	}
	if r.Intn(2) == 0 {
		d.Link = randCID(r)
	}
	for i := r.Intn(3); i > 0; i-- {
		d.Links = append(d.Links, randCID(r))
	}
	if r.Intn(3) == 0 {
		c := randCID(r)
		d.OptCID = &c
	}
	d.Any = randTree(r, 3)
	if r.Intn(2) == 0 {
		d.Tags = map[string]int64{}
		for i := r.Intn(4); i > 0; i-- {
			d.Tags[randString(r)] = r.Int63n(1000) - 500
		}
	}
	for i := r.Intn(5); i > 0; i-- {
		d.Counts = append(d.Counts, r.Uint32())
	}
	for i := r.Intn(3); i > 0; i-- {
		row := []int8{}
		for j := r.Intn(3); j > 0; j-- {
			row = append(row, int8(r.Intn(256)-128))
		}
		d.Grid = append(d.Grid, row)
	}
	d.Ratio = r.Float32()
	return reflect.ValueOf(d)
}

func randLeaf(r *rand.Rand) diffLeaf {
	v, _ := quick.Value(reflect.TypeOf(diffLeaf{}), r)
	return v.Interface().(diffLeaf)
}

func randString(r *rand.Rand) string {
	const alphabet = "abcdefgé$"
	var sb strings.Builder
	for i := r.Intn(6); i > 0; i-- {
		sb.WriteString(string([]rune(alphabet)[r.Intn(9)]))
	}
	return sb.String()
}

func randCID(r *rand.Rand) cid.CID {
	b := make([]byte, 8)
	r.Read(b)
	return cid.SumCBOR(b)
}

// randTree builds a generic value of the shapes Decode produces.
func randTree(r *rand.Rand, depth int) any {
	n := 9
	if depth == 0 {
		n = 7
	}
	switch r.Intn(n) {
	case 0:
		return nil
	case 1:
		return r.Int63() - r.Int63()
	case 2:
		return r.NormFloat64()
	case 3:
		return r.Intn(2) == 0
	case 4:
		return randString(r)
	case 5:
		b := make([]byte, r.Intn(4))
		r.Read(b)
		return b
	case 6:
		return randCID(r)
	case 7:
		arr := []any{}
		for i := r.Intn(3); i > 0; i-- {
			arr = append(arr, randTree(r, depth-1))
		}
		return arr
	default:
		m := map[string]any{}
		for i := r.Intn(3); i > 0; i-- {
			m[randString(r)] = randTree(r, depth-1)
		}
		return m
	}
}

// genericTree is the reference for the encoder's plans: it turns v into
// the map[string]any / []any tree the encoder used to build per value,
// with the struct-tag rules spelled out independently of the plan code.
func genericTree(rv reflect.Value) any {
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return nil
		}
		return genericTree(rv.Elem())
	case reflect.Bool:
		return rv.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rv.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return rv.Uint()
	case reflect.Float32, reflect.Float64:
		return rv.Float()
	case reflect.String:
		return rv.String()
	case reflect.Slice:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			return append([]byte{}, rv.Bytes()...)
		}
		out := make([]any, rv.Len())
		for i := range out {
			out[i] = genericTree(rv.Index(i))
		}
		return out
	case reflect.Map:
		out := map[string]any{}
		for it := rv.MapRange(); it.Next(); {
			out[it.Key().String()] = genericTree(it.Value())
		}
		return out
	case reflect.Struct:
		if rv.Type() == cidType {
			return rv.Interface().(cid.CID)
		}
		out := map[string]any{}
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			name := strings.ToLower(f.Name[:1]) + f.Name[1:]
			tag, _ := f.Tag.Lookup("cbor")
			opts := strings.Split(tag, ",")
			if opts[0] == "-" {
				continue
			}
			if opts[0] != "" {
				name = opts[0]
			}
			fv := rv.Field(i)
			if len(opts) > 1 && opts[1] == "omitempty" && emptyForTree(fv) {
				continue
			}
			out[name] = genericTree(fv)
		}
		return out
	}
	panic("genericTree: unsupported kind " + rv.Kind().String())
}

func emptyForTree(rv reflect.Value) bool {
	if rv.Type() == cidType {
		return !rv.Interface().(cid.CID).Defined()
	}
	return rv.IsZero() || (rv.Kind() == reflect.Slice || rv.Kind() == reflect.Map) && rv.Len() == 0
}

// typedTargets are the targets every differential input is decoded
// into; each call returns a fresh, identically pre-filled one, so that
// "absent fields untouched" and pointer reuse are compared too.
var typedTargets = map[string]func() any{
	"doc": func() any { return new(diffDoc) },
	"docPre": func() any {
		return &diffDoc{Name: "kept", Ptr: &diffLeaf{N: 7, S: "old"}, Tags: map[string]int64{"x": 1}}
	},
	"ptrPtr": func() any { return new(*diffDoc) },
	"leaves": func() any { return new([]diffLeaf) },
	"ints":   func() any { return new([]int64) },
	"uint8":  func() any { return new(uint8) },
	"int8":   func() any { return new(int8) },
	"float":  func() any { return new(float64) },
	"string": func() any { return new(string) },
	"bytes":  func() any { return new([]byte) },
	"bool":   func() any { return new(bool) },
	"cid":    func() any { return new(cid.CID) },
	"map":    func() any { return new(map[string]any) },
	"any":    func() any { return new(any) },
	"array":  func() any { return new([2]int) },
}

// checkTyped decodes data into every typed target both ways and fails
// t if the two decoders disagree.
func checkTyped(t *testing.T, data []byte) {
	t.Helper()
	for name, mk := range typedTargets {
		typed, generic := mk(), mk()
		errTyped := Unmarshal(data, typed)
		tree, errGeneric := Decode(data)
		if errGeneric == nil {
			errGeneric = assign(reflect.ValueOf(generic).Elem(), tree)
		}
		if (errTyped == nil) != (errGeneric == nil) {
			t.Fatalf("%s: decoders disagree on %x: typed %v, generic %v", name, data, errTyped, errGeneric)
		}
		if errTyped == nil && !sameValue(reflect.ValueOf(typed), reflect.ValueOf(generic)) {
			t.Fatalf("%s: decoders disagree on %x:\ntyped   %#v\ngeneric %#v", name, data, typed, generic)
		}
	}
}

// sameValue is reflect.DeepEqual except that floats compare by bits,
// so a NaN decoded from mutated bytes equals itself.
func sameValue(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !sameValue(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameValue: unsupported kind " + a.Kind().String())
}

func TestTypedDecodeMatchesGeneric(t *testing.T) {
	f := func(d diffDoc, seed int64) bool {
		data, err := Marshal(&d)
		if err != nil {
			t.Fatal(err)
		}
		checkTyped(t, data)
		// Hostile variants of a valid document: truncations and byte
		// flips reach every error path of both decoders.
		r := rand.New(rand.NewSource(seed))
		checkTyped(t, data[:r.Intn(len(data))])
		for i := 0; i < 4; i++ {
			mut := append([]byte(nil), data...)
			mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
			checkTyped(t, mut)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTypedDecodeMatchesGenericOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		checkTyped(t, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestTypedDecodeEdgeCases pins pairings the random inputs rarely
// reach: non-minimal and overflowing integers, integers into floats,
// long-form null and booleans, keys out of order, bad tags.
func TestTypedDecodeEdgeCases(t *testing.T) {
	for _, data := range [][]byte{
		{0x18, 0x05},                      // non-minimal uint
		{0x19, 0x01, 0x00},                // 256: overflows uint8
		{0x1b, 0x80, 0, 0, 0, 0, 0, 0, 0}, // 2^63: overflows int64
		{0x3b, 0x80, 0, 0, 0, 0, 0, 0, 0}, // -2^63-1
		{0x20},                            // -1 into unsigned
		{0xf8, 0x16},                      // two-byte null
		{0xf8, 0x15},                      // two-byte true
		{0xf9, 0x00, 0x14},                // half-float head carrying false
		{0xf6},                            // null
		{0x62, 0xc3, 0x28},                // invalid UTF-8
		{0xa2, 0x61, 0x62, 0x01, 0x61, 0x61, 0x02},                   // keys out of order
		{0xa2, 0x61, 0x61, 0x01, 0x61, 0x61, 0x02},                   // duplicate key
		{0xa1, 0x01, 0x01},                                           // integer key
		{0xa1, 0x62, 0x69, 0x64, 0xf6},                               // {"id": null}
		{0xa1, 0x63, 0x70, 0x74, 0x72, 0xf6},                         // {"ptr": null}
		{0xa1, 0x61, 0x72, 0x05},                                     // {"r": 5}: int into float32
		{0xa1, 0x62, 0x69, 0x64, 0xfb, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0}, // {"id": 1.0}
		{0xa1, 0x63, 0x7a, 0x7a, 0x7a, 0x82, 0x62, 0xc3, 0x28, 0x00}, // unknown key, bad UTF-8 inside
		{0xd8, 0x2a, 0x41, 0x01},                                     // tag 42 without the 0x00 prefix
		{0xd8, 0x2b, 0x40},                                           // tag 43
		{0xd8, 0x2a, 0xd8, 0x2a, 0x40},                               // tag 42 of a tag
		{0x82, 0x01},                                                 // array short of its length
		{0x82, 0x01, 0x02, 0x03},                                     // trailing bytes
		{0x5a, 0xff, 0xff, 0xff, 0xff},                               // bytes(2^32-1)
		{0x9b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{0xbb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	} {
		checkTyped(t, data)
	}
}

func TestPlanEncodingMatchesGenericTree(t *testing.T) {
	f := func(d diffDoc) bool {
		typed, err := Marshal(&d)
		if err != nil {
			t.Fatal(err)
		}
		generic, err := Marshal(genericTree(reflect.ValueOf(d)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(typed, generic) {
			t.Fatalf("plan encoding differs from the generic tree's:\nplan    %x\ngeneric %x", typed, generic)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateWireKeyPanics(t *testing.T) {
	type byTag struct {
		A int `cbor:"x"`
		B int `cbor:"x"`
	}
	type byName struct {
		Foo int
		Bar int `cbor:"foo"`
	}
	for _, v := range []any{byTag{}, &byName{}} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "both map to key") {
					t.Fatalf("%T: want a duplicate-key panic, got %v", v, r)
				}
			}()
			_, _ = Marshal(v)
		}()
	}
}

// TestTypedHostileArrayLength decodes declared arrays of large structs
// that the input does not back. The first declares 2^20 elements (about
// 4 GiB) and holds 64; the second declares 2^16 and holds that many
// bytes, but breaks after 64 elements. Neither may allocate in
// proportion to the declared length: at most what the generic path's
// []any would, 16 bytes per input byte.
func TestTypedHostileArrayLength(t *testing.T) {
	type large struct {
		Pad [4096]byte
		N   int
	}
	short := append([]byte{0x9a, 0x00, 0x10, 0x00, 0x00}, bytes.Repeat([]byte{0xa0}, 64)...)
	broken := append([]byte{0x9a, 0x00, 0x01, 0x00, 0x00}, bytes.Repeat([]byte{0xa0}, 64)...)
	broken = append(broken, 0xff) // reserved head: fails the 65th element
	broken = append(broken, make([]byte, 1<<16)...)
	for _, data := range [][]byte{short, broken} {
		var out []large
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Unmarshal(data, &out)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("array(%x) accepted", data[1:5])
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("array(%x): %d input bytes allocated %d bytes", data[1:5], len(data), grew)
		}
	}
}

// TestTypedDecodeCopiesInput checks that decoded strings and byte
// slices do not alias the input buffer, which callers reuse.
func TestTypedDecodeCopiesInput(t *testing.T) {
	in := diffLeaf{S: "text", B: []byte{1, 2, 3}}
	data := MustMarshal(in)
	var out diffLeaf
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0
	}
	if out.S != in.S || !bytes.Equal(out.B, in.B) {
		t.Fatalf("decoded value changed with its input: %+v", out)
	}
}
