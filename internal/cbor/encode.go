package cbor

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"

	"blueskies/internal/cid"
)

// Major types of RFC 8949.
const (
	majorUint   = 0
	majorNegInt = 1
	majorBytes  = 2
	majorText   = 3
	majorArray  = 4
	majorMap    = 5
	majorTag    = 6
	majorSimple = 7
)

// Simple values within major type 7.
const (
	simpleFalse   = 20
	simpleTrue    = 21
	simpleNull    = 22
	simpleFloat64 = 27
)

// cidLinkTag is the IPLD tag for CID links.
const cidLinkTag = 42

type encoder struct {
	buf []byte
}

func (e *encoder) head(major byte, n uint64) {
	switch {
	case n < 24:
		e.buf = append(e.buf, major<<5|byte(n))
	case n <= math.MaxUint8:
		e.buf = append(e.buf, major<<5|24, byte(n))
	case n <= math.MaxUint16:
		e.buf = append(e.buf, major<<5|25, byte(n>>8), byte(n))
	case n <= math.MaxUint32:
		e.buf = append(e.buf, major<<5|26, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	default:
		e.buf = append(e.buf, major<<5|27,
			byte(n>>56), byte(n>>48), byte(n>>40), byte(n>>32),
			byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
}

func (e *encoder) encodeInt(i int64) {
	if i >= 0 {
		e.head(majorUint, uint64(i))
	} else {
		e.head(majorNegInt, uint64(-1-i))
	}
}

func (e *encoder) encodeFloat(f float64) {
	bits := math.Float64bits(f)
	e.buf = append(e.buf, majorSimple<<5|simpleFloat64,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

func (e *encoder) encodeCID(c cid.CID) error {
	if !c.Defined() {
		return fmt.Errorf("cbor: cannot encode undefined CID")
	}
	e.head(majorTag, cidLinkTag)
	// A binary CID is 36 to 45 bytes, so with its multibase prefix the
	// minimal length head is always the one-byte form; write it with a
	// placeholder and patch it once the CID is appended in place.
	at := len(e.buf)
	e.buf = append(e.buf, majorBytes<<5|24, 0, 0x00) // head, identity multibase prefix
	e.buf = c.AppendBytes(e.buf)
	e.buf[at+1] = byte(len(e.buf) - at - 2)
	return nil
}

func (e *encoder) encode(v any) error {
	switch x := v.(type) {
	case nil:
		e.buf = append(e.buf, majorSimple<<5|simpleNull)
		return nil
	case bool:
		if x {
			e.buf = append(e.buf, majorSimple<<5|simpleTrue)
		} else {
			e.buf = append(e.buf, majorSimple<<5|simpleFalse)
		}
		return nil
	case int:
		e.encodeInt(int64(x))
		return nil
	case int32:
		e.encodeInt(int64(x))
		return nil
	case int64:
		e.encodeInt(x)
		return nil
	case uint64:
		e.head(majorUint, x)
		return nil
	case float64:
		e.encodeFloat(x)
		return nil
	case string:
		e.head(majorText, uint64(len(x)))
		e.buf = append(e.buf, x...)
		return nil
	case []byte:
		e.head(majorBytes, uint64(len(x)))
		e.buf = append(e.buf, x...)
		return nil
	case cid.CID:
		return e.encodeCID(x)
	case *cid.CID:
		if x == nil {
			e.buf = append(e.buf, majorSimple<<5|simpleNull)
			return nil
		}
		return e.encodeCID(*x)
	case map[string]any:
		return e.encodeStringMap(x)
	case []any:
		e.head(majorArray, uint64(len(x)))
		for _, item := range x {
			if err := e.encode(item); err != nil {
				return err
			}
		}
		return nil
	}
	return e.encodeReflect(reflect.ValueOf(v))
}

func (e *encoder) encodeStringMap(m map[string]any) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return canonicalLess(keys[i], keys[j]) })
	e.head(majorMap, uint64(len(keys)))
	for _, k := range keys {
		e.head(majorText, uint64(len(k)))
		e.buf = append(e.buf, k...)
		if err := e.encode(m[k]); err != nil {
			return err
		}
	}
	return nil
}

// encodeReflect encodes rv by its kind. It writes the same bytes that
// encode(rv.Interface()) would, without boxing rv.
func (e *encoder) encodeReflect(rv reflect.Value) error {
	switch rv.Kind() {
	case reflect.Pointer:
		if rv.IsNil() {
			e.buf = append(e.buf, majorSimple<<5|simpleNull)
			return nil
		}
		return e.encodeReflect(rv.Elem())
	case reflect.Interface:
		if rv.IsNil() {
			e.buf = append(e.buf, majorSimple<<5|simpleNull)
			return nil
		}
		return e.encode(rv.Elem().Interface())
	case reflect.Bool:
		return e.encode(rv.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.encodeInt(rv.Int())
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.head(majorUint, rv.Uint())
		return nil
	case reflect.Float32, reflect.Float64:
		e.encodeFloat(rv.Float())
		return nil
	case reflect.String:
		s := rv.String()
		e.head(majorText, uint64(len(s)))
		e.buf = append(e.buf, s...)
		return nil
	case reflect.Slice, reflect.Array:
		if rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() == reflect.Uint8 {
			b := rv.Bytes()
			e.head(majorBytes, uint64(len(b)))
			e.buf = append(e.buf, b...)
			return nil
		}
		e.head(majorArray, uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			if err := e.encodeReflect(rv.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return fmt.Errorf("cbor: map keys must be strings, got %s", rv.Type().Key())
		}
		keys := rv.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return canonicalLess(keys[i].String(), keys[j].String()) })
		e.head(majorMap, uint64(len(keys)))
		for _, k := range keys {
			e.head(majorText, uint64(k.Len()))
			e.buf = append(e.buf, k.String()...)
			if err := e.encodeReflect(rv.MapIndex(k)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		return e.encodeStruct(rv)
	}
	return fmt.Errorf("cbor: unsupported type %s", rv.Type())
}

func isEmptyValue(rv reflect.Value) bool {
	switch rv.Kind() {
	case reflect.Slice, reflect.Map, reflect.String:
		return rv.Len() == 0
	case reflect.Pointer, reflect.Interface:
		return rv.IsNil()
	case reflect.Bool:
		return !rv.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rv.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return rv.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return rv.Float() == 0
	case reflect.Struct:
		if rv.Type() == cidType {
			return !cidOf(rv).Defined()
		}
	}
	return false
}

// encodeStruct writes rv as a map whose keys come from its type's plan,
// already in canonical order.
func (e *encoder) encodeStruct(rv reflect.Value) error {
	if rv.Type() == cidType {
		return e.encodeCID(cidOf(rv))
	}
	fields := planFor(rv.Type()).fields
	n := len(fields)
	for i := range fields {
		if fields[i].omitEmpty && isEmptyValue(rv.Field(fields[i].index)) {
			n--
		}
	}
	e.head(majorMap, uint64(n))
	for i := range fields {
		f := &fields[i]
		fv := rv.Field(f.index)
		if f.omitEmpty && isEmptyValue(fv) {
			continue
		}
		e.buf = append(e.buf, f.key...)
		if err := e.encodeReflect(fv); err != nil {
			return err
		}
	}
	return nil
}

// CanonicalEqual reports whether two encodings are identical; useful in
// tests asserting determinism.
func CanonicalEqual(a, b []byte) bool { return bytes.Equal(a, b) }
