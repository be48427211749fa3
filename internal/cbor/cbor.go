// Package cbor implements the deterministic DAG-CBOR encoding used by
// the AT Protocol for records, repository nodes, and stream frames.
//
// The profile implemented here follows the IPLD DAG-CBOR specification:
//
//   - map keys must be strings and are serialized in canonical order
//     (shortest first, then bytewise lexicographic);
//   - integers use the shortest possible encoding;
//   - floats are always encoded as 64-bit;
//   - indefinite-length items are forbidden;
//   - CID links are encoded as tag 42 wrapping the identity-multibase
//     binary CID (a 0x00 prefix byte followed by the CID bytes);
//   - no other tags are permitted.
//
// Marshal accepts Go maps, slices, strings, byte slices, booleans,
// integers, floats, cid.CID values, and structs. Struct fields use the
// `cbor:"name"` tag (with an optional ",omitempty" flag) and fall back
// to the JSON-style lowercase of the field name when untagged.
//
// Each struct type's layout is derived once, on first use, into a
// cached field plan: its exported fields, their encoded keys, sorted
// into canonical key order. Marshal writes a struct's fields straight
// from the plan. Two fields that map to the same key make the plan
// fail with a panic, since such a type has no faithful wire form.
//
// Unmarshal decodes straight into typed targets. Structs match keys
// against the plan; slices, integers, floats, strings, byte slices,
// bools and pointers to them are filled in place; every other pairing
// of wire item and target (interfaces, maps, arrays, a null, a wire
// type the target does not take) goes through the generic tree that
// Decode builds and is copied from there, so both routes accept the
// same inputs and produce the same value. Struct fields whose key is
// absent are left untouched, non-nil pointers are reused, `any`
// targets receive the generic tree, integers may fill float fields,
// and out-of-range integers are errors. Unknown keys are decoded, and
// so validated, then dropped. Declared lengths are bounded by the
// bytes remaining, and slices are never pre-sized beyond what the
// generic tree would allocate for the same header.
package cbor

import (
	"errors"
	"fmt"
	"reflect"
)

// Marshal encodes v as deterministic DAG-CBOR.
func Marshal(v any) ([]byte, error) { return AppendMarshal(nil, v) }

// AppendMarshal appends the DAG-CBOR encoding of v to dst and returns
// the extended slice, so a caller that knows the size can encode
// several documents into one buffer. On error it returns nil.
func AppendMarshal(dst []byte, v any) ([]byte, error) {
	e := encoder{buf: dst}
	if err := e.encode(v); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// MustMarshal is Marshal but panics on error; intended for values whose
// encodability is a program invariant (e.g. fixed record structs).
func MustMarshal(v any) []byte {
	b, err := Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("cbor: MustMarshal: %v", err))
	}
	return b
}

// Unmarshal decodes DAG-CBOR data into the value pointed to by v.
// v may be a *any (producing map[string]any / []any / primitive trees)
// or a pointer to a concrete Go type mirroring the document shape.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errors.New("cbor: Unmarshal target must be a non-nil pointer")
	}
	d := &decoder{data: data}
	if err := d.decodeInto(rv.Elem()); err != nil {
		return err
	}
	if d.pos != len(d.data) {
		return fmt.Errorf("cbor: %d trailing bytes", len(d.data)-d.pos)
	}
	return nil
}

// Decode decodes DAG-CBOR data into a generic value tree:
// map[string]any, []any, string, []byte, int64, float64, bool,
// cid.CID, or nil.
func Decode(data []byte) (any, error) {
	d := &decoder{data: data}
	v, err := d.decodeValue()
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("cbor: %d trailing bytes", len(d.data)-d.pos)
	}
	return v, nil
}

// DecodePrefix decodes one DAG-CBOR item from the front of data and
// returns it along with the number of bytes consumed. Used by stream
// framing where two items are concatenated (header then body).
func DecodePrefix(data []byte) (any, int, error) {
	d := &decoder{data: data}
	v, err := d.decodeValue()
	if err != nil {
		return nil, 0, err
	}
	return v, d.pos, nil
}
