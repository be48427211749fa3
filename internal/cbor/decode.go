package cbor

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"unicode/utf8"

	"blueskies/internal/cid"
)

type decoder struct {
	data []byte
	pos  int
}

var errTruncated = errors.New("cbor: truncated input")

func (d *decoder) readByte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, errTruncated
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) readN(n uint64) ([]byte, error) {
	if n > uint64(len(d.data)-d.pos) {
		return nil, errTruncated
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// readHead returns the major type, the additional-info nibble, and the
// decoded argument of the next item head. For major type 7 with
// info 27 the argument holds the raw float64 bits.
func (d *decoder) readHead() (major, info byte, arg uint64, err error) {
	ib, err := d.readByte()
	if err != nil {
		return 0, 0, 0, err
	}
	major = ib >> 5
	info = ib & 0x1f
	switch {
	case info < 24:
		return major, info, uint64(info), nil
	case info == 24:
		b, err := d.readByte()
		if err != nil {
			return 0, 0, 0, err
		}
		if major != majorSimple && b < 24 {
			return 0, 0, 0, errors.New("cbor: non-minimal integer encoding")
		}
		return major, info, uint64(b), nil
	case info == 25:
		b, err := d.readN(2)
		if err != nil {
			return 0, 0, 0, err
		}
		v := uint64(b[0])<<8 | uint64(b[1])
		if major != majorSimple && v <= math.MaxUint8 {
			return 0, 0, 0, errors.New("cbor: non-minimal integer encoding")
		}
		return major, info, v, nil
	case info == 26:
		b, err := d.readN(4)
		if err != nil {
			return 0, 0, 0, err
		}
		v := uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
		if major != majorSimple && v <= math.MaxUint16 {
			return 0, 0, 0, errors.New("cbor: non-minimal integer encoding")
		}
		return major, info, v, nil
	case info == 27:
		b, err := d.readN(8)
		if err != nil {
			return 0, 0, 0, err
		}
		v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
			uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
		if major != majorSimple && v <= math.MaxUint32 {
			return 0, 0, 0, errors.New("cbor: non-minimal integer encoding")
		}
		return major, info, v, nil
	default:
		return 0, 0, 0, fmt.Errorf("cbor: indefinite or reserved additional info %d", info)
	}
}

func (d *decoder) decodeValue() (any, error) {
	major, info, arg, err := d.readHead()
	if err != nil {
		return nil, err
	}
	switch major {
	case majorUint, majorNegInt:
		return intArg(major, arg)
	case majorBytes:
		b, err := d.readN(arg)
		if err != nil {
			return nil, err
		}
		out := make([]byte, len(b))
		copy(out, b)
		return out, nil
	case majorText:
		b, err := d.readN(arg)
		if err != nil {
			return nil, err
		}
		if !utf8.Valid(b) {
			return nil, errors.New("cbor: invalid UTF-8 in text string")
		}
		return string(b), nil
	case majorArray:
		if arg > uint64(len(d.data)) {
			return nil, errTruncated
		}
		arr := make([]any, 0, arg)
		for i := uint64(0); i < arg; i++ {
			v, err := d.decodeValue()
			if err != nil {
				return nil, err
			}
			arr = append(arr, v)
		}
		return arr, nil
	case majorMap:
		if arg > uint64(len(d.data)) {
			return nil, errTruncated
		}
		m := make(map[string]any, arg)
		prevKey := ""
		for i := uint64(0); i < arg; i++ {
			kmaj, _, karg, err := d.readHead()
			if err != nil {
				return nil, err
			}
			if kmaj != majorText {
				return nil, errors.New("cbor: map key must be a text string")
			}
			kb, err := d.readN(karg)
			if err != nil {
				return nil, err
			}
			key := string(kb)
			if i > 0 && !canonicalLess(prevKey, key) {
				return nil, fmt.Errorf("cbor: map keys not in canonical order (%q after %q)", key, prevKey)
			}
			prevKey = key
			v, err := d.decodeValue()
			if err != nil {
				return nil, err
			}
			m[key] = v
		}
		return m, nil
	case majorTag:
		c, err := d.readLink(arg)
		if err != nil {
			return nil, err
		}
		return c, nil
	case majorSimple:
		if info == simpleFloat64 {
			// readHead consumed the 8 payload bytes; arg holds the bits.
			return math.Float64frombits(arg), nil
		}
		switch arg {
		case simpleFalse:
			return false, nil
		case simpleTrue:
			return true, nil
		case simpleNull:
			return nil, nil
		default:
			return nil, fmt.Errorf("cbor: unsupported simple value %d (info %d)", arg, info)
		}
	}
	return nil, fmt.Errorf("cbor: unhandled major type %d", major)
}

// readLink reads the rest of a tag item whose head carried tag: only
// tag 42 wrapping an identity-multibase binary CID is allowed.
func (d *decoder) readLink(tag uint64) (cid.CID, error) {
	if tag != cidLinkTag {
		return cid.CID{}, fmt.Errorf("cbor: unsupported tag %d", tag)
	}
	major, _, n, err := d.readHead()
	if err != nil {
		return cid.CID{}, err
	}
	if major != majorBytes {
		return cid.CID{}, errors.New("cbor: tag 42 must wrap identity-multibase CID bytes")
	}
	raw, err := d.readN(n)
	if err != nil {
		return cid.CID{}, err
	}
	if len(raw) == 0 || raw[0] != 0x00 {
		return cid.CID{}, errors.New("cbor: tag 42 must wrap identity-multibase CID bytes")
	}
	c, err := cid.Decode(raw[1:])
	if err != nil {
		return cid.CID{}, fmt.Errorf("cbor: bad CID link: %w", err)
	}
	return c, nil
}

// intArg is the int64 value of an integer head.
func intArg(major byte, arg uint64) (int64, error) {
	if arg > math.MaxInt64 {
		if major == majorUint {
			return 0, fmt.Errorf("cbor: uint %d overflows int64", arg)
		}
		return 0, fmt.Errorf("cbor: negative int overflows int64")
	}
	if major == majorUint {
		return int64(arg), nil
	}
	return -1 - int64(arg), nil
}

// keyLess and nameLess are canonicalLess for raw key bytes; the
// conversions in the comparisons do not allocate.
func keyLess(a, b []byte) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return string(a) < string(b)
}

func nameLess(a string, b []byte) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < string(b)
}

// isNull reports whether a head is the null simple value.
func isNull(major, info byte, arg uint64) bool {
	return major == majorSimple && info != simpleFloat64 && arg == simpleNull
}

// decodeInto decodes the next item straight into dst, which must be
// settable. Structs, slices, integers, floats, strings, byte strings,
// bools and pointers to them are filled in place; every other pairing
// of wire item and target shape rewinds and goes through decodeValue +
// assign, so both paths accept the same inputs and yield the same value.
func (d *decoder) decodeInto(dst reflect.Value) error {
	start := d.pos
	major, info, arg, err := d.readHead()
	if err != nil {
		return err
	}
	switch dst.Kind() {
	case reflect.Pointer:
		if !isNull(major, info, arg) {
			if dst.IsNil() {
				dst.Set(reflect.New(dst.Type().Elem()))
			}
			d.pos = start
			return d.decodeInto(dst.Elem())
		}
	case reflect.Bool:
		if major == majorSimple && info != simpleFloat64 && (arg == simpleFalse || arg == simpleTrue) {
			dst.SetBool(arg == simpleTrue)
			return nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if major == majorUint || major == majorNegInt {
			x, err := intArg(major, arg)
			if err != nil {
				return err
			}
			if dst.OverflowInt(x) {
				return fmt.Errorf("cbor: %d overflows %s", x, dst.Type())
			}
			dst.SetInt(x)
			return nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if major == majorUint {
			x, err := intArg(major, arg)
			if err != nil {
				return err
			}
			if dst.OverflowUint(uint64(x)) {
				return fmt.Errorf("cbor: %d overflows %s", x, dst.Type())
			}
			dst.SetUint(uint64(x))
			return nil
		}
	case reflect.Float32, reflect.Float64:
		switch {
		case major == majorSimple && info == simpleFloat64:
			dst.SetFloat(math.Float64frombits(arg))
			return nil
		case major == majorUint || major == majorNegInt:
			x, err := intArg(major, arg)
			if err != nil {
				return err
			}
			dst.SetFloat(float64(x))
			return nil
		}
	case reflect.String:
		if major == majorText {
			b, err := d.readN(arg)
			if err != nil {
				return err
			}
			if !utf8.Valid(b) {
				return errors.New("cbor: invalid UTF-8 in text string")
			}
			dst.SetString(string(b))
			return nil
		}
	case reflect.Slice:
		if major == majorBytes && dst.Type().Elem().Kind() == reflect.Uint8 {
			b, err := d.readN(arg)
			if err != nil {
				return err
			}
			out := make([]byte, len(b)) // make+copy skips zeroing out
			copy(out, b)
			dst.SetBytes(out)
			return nil
		}
		if major == majorArray {
			return d.decodeSlice(dst, arg)
		}
	case reflect.Struct:
		switch {
		case dst.Type() == cidType:
			if major == majorTag {
				c, err := d.readLink(arg)
				if err != nil {
					return err
				}
				*dst.Addr().Interface().(*cid.CID) = c
				return nil
			}
		case major == majorMap:
			return d.decodeStruct(dst, arg)
		}
	}
	d.pos = start
	val, err := d.decodeValue()
	if err != nil {
		return err
	}
	return assign(dst, val)
}

// maxElemPresize is the in-memory size of one []any element: the
// generic path pre-sizes an array to its declared length at this cost
// per element, and the typed path never pre-sizes more bytes than that.
const maxElemPresize = 16

// decodeSlice decodes an array of n items into a fresh slice stored in
// dst. Every item takes at least one byte, so n is first bounded by the
// bytes remaining. The slice is pre-sized to n only while that costs
// no more than the generic path would; beyond that it grows by append,
// so a hostile length cannot buy a large allocation with a short input.
func (d *decoder) decodeSlice(dst reflect.Value, n uint64) error {
	remaining := uint64(len(d.data) - d.pos)
	if n > remaining {
		return errTruncated
	}
	c := n
	if size := uint64(dst.Type().Elem().Size()); size > maxElemPresize {
		c = min(n, maxElemPresize*remaining/size)
	}
	dst.Set(reflect.MakeSlice(dst.Type(), 0, int(c)))
	for i := 0; i < int(n); i++ {
		if i == dst.Cap() {
			dst.Grow(1)
		}
		dst.SetLen(i + 1)
		if err := d.decodeInto(dst.Index(i)); err != nil {
			return err
		}
	}
	return nil
}

// decodeStruct decodes a map of n entries into the struct dst. Keys are
// checked for canonical order exactly as decodeValue checks them; since
// the plan's fields share that order, one forward cursor finds each
// key's field. Fields whose key is absent are left untouched, and
// unknown keys are decoded (and so validated) and dropped.
func (d *decoder) decodeStruct(dst reflect.Value, n uint64) error {
	if n > uint64(len(d.data)-d.pos) {
		return errTruncated
	}
	fields := planFor(dst.Type()).fields
	next := 0
	var prev []byte
	for i := uint64(0); i < n; i++ {
		kmaj, _, karg, err := d.readHead()
		if err != nil {
			return err
		}
		if kmaj != majorText {
			return errors.New("cbor: map key must be a text string")
		}
		key, err := d.readN(karg)
		if err != nil {
			return err
		}
		if i > 0 && !keyLess(prev, key) {
			return fmt.Errorf("cbor: map keys not in canonical order (%q after %q)", key, prev)
		}
		prev = key
		for next < len(fields) && nameLess(fields[next].name, key) {
			next++
		}
		if next < len(fields) && fields[next].name == string(key) {
			f := &fields[next]
			if err := d.decodeInto(dst.Field(f.index)); err != nil {
				return fmt.Errorf("cbor: field %q: %w", f.name, err)
			}
			continue
		}
		if _, err := d.decodeValue(); err != nil {
			return err
		}
	}
	return nil
}

// assign stores the generic decoded value val into the typed
// destination dst, converting shapes recursively.
func assign(dst reflect.Value, val any) error {
	if val == nil {
		dst.SetZero()
		return nil
	}
	if dst.Kind() == reflect.Pointer {
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
		}
		return assign(dst.Elem(), val)
	}
	if dst.Kind() == reflect.Interface && dst.NumMethod() == 0 {
		dst.Set(reflect.ValueOf(val))
		return nil
	}
	if c, ok := val.(cid.CID); ok {
		if dst.Type() == reflect.TypeOf(cid.CID{}) {
			dst.Set(reflect.ValueOf(c))
			return nil
		}
		return fmt.Errorf("cbor: cannot assign CID link to %s", dst.Type())
	}
	switch x := val.(type) {
	case int64:
		switch dst.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if dst.OverflowInt(x) {
				return fmt.Errorf("cbor: %d overflows %s", x, dst.Type())
			}
			dst.SetInt(x)
			return nil
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			if x < 0 || dst.OverflowUint(uint64(x)) {
				return fmt.Errorf("cbor: %d overflows %s", x, dst.Type())
			}
			dst.SetUint(uint64(x))
			return nil
		case reflect.Float32, reflect.Float64:
			dst.SetFloat(float64(x))
			return nil
		}
	case float64:
		if dst.Kind() == reflect.Float32 || dst.Kind() == reflect.Float64 {
			dst.SetFloat(x)
			return nil
		}
	case bool:
		if dst.Kind() == reflect.Bool {
			dst.SetBool(x)
			return nil
		}
	case string:
		if dst.Kind() == reflect.String {
			dst.SetString(x)
			return nil
		}
	case []byte:
		if dst.Kind() == reflect.Slice && dst.Type().Elem().Kind() == reflect.Uint8 {
			dst.SetBytes(x)
			return nil
		}
	case []any:
		if dst.Kind() == reflect.Slice {
			out := reflect.MakeSlice(dst.Type(), len(x), len(x))
			for i, item := range x {
				if err := assign(out.Index(i), item); err != nil {
					return err
				}
			}
			dst.Set(out)
			return nil
		}
	case map[string]any:
		switch dst.Kind() {
		case reflect.Map:
			if dst.Type().Key().Kind() != reflect.String {
				return fmt.Errorf("cbor: cannot assign map to %s", dst.Type())
			}
			out := reflect.MakeMapWithSize(dst.Type(), len(x))
			for k, item := range x {
				ev := reflect.New(dst.Type().Elem()).Elem()
				if err := assign(ev, item); err != nil {
					return err
				}
				out.SetMapIndex(reflect.ValueOf(k).Convert(dst.Type().Key()), ev)
			}
			dst.Set(out)
			return nil
		case reflect.Struct:
			for _, f := range planFor(dst.Type()).fields {
				item, ok := x[f.name]
				if !ok {
					continue
				}
				if err := assign(dst.Field(f.index), item); err != nil {
					return fmt.Errorf("cbor: field %q: %w", f.name, err)
				}
			}
			return nil
		}
	}
	return fmt.Errorf("cbor: cannot assign %T to %s", val, dst.Type())
}
