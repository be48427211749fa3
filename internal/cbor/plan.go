package cbor

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"blueskies/internal/cid"
)

var cidType = reflect.TypeOf(cid.CID{})

// field is one struct field as it travels on the wire.
type field struct {
	name      string
	key       []byte // the encoded map key: text-string head + name
	index     int
	omitEmpty bool
}

// structPlan is the wire layout of one struct type, derived once.
// Fields are in DAG-CBOR key order (shorter first, then bytewise), so
// the encoder writes them as they come and the decoder matches the
// canonically ordered keys of a document with one forward cursor.
type structPlan struct {
	fields []field
}

// plans caches a *structPlan per reflect.Type.
var plans sync.Map

// planFor returns t's plan, building it on first use. It panics if two
// exported fields of t map to the same key: such a type has no
// faithful wire form, and that is a bug in the type, not in the input.
func planFor(t reflect.Type) *structPlan {
	if p, ok := plans.Load(t); ok {
		return p.(*structPlan)
	}
	p, _ := plans.LoadOrStore(t, buildPlan(t))
	return p.(*structPlan)
}

func buildPlan(t reflect.Type) *structPlan {
	fields := make([]field, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := strings.ToLower(f.Name[:1]) + f.Name[1:]
		omitEmpty := false
		if tag, ok := f.Tag.Lookup("cbor"); ok {
			parts := strings.Split(tag, ",")
			if parts[0] == "-" {
				continue
			}
			if parts[0] != "" {
				name = parts[0]
			}
			for _, opt := range parts[1:] {
				if opt == "omitempty" {
					omitEmpty = true
				}
			}
		}
		fields = append(fields, field{name: name, index: i, omitEmpty: omitEmpty})
	}
	sort.Slice(fields, func(i, j int) bool { return canonicalLess(fields[i].name, fields[j].name) })
	for i := range fields {
		if i > 0 && fields[i].name == fields[i-1].name {
			panic(fmt.Sprintf("cbor: %s: fields %s and %s both map to key %q",
				t, t.Field(fields[i-1].index).Name, t.Field(fields[i].index).Name, fields[i].name))
		}
		e := encoder{}
		e.head(majorText, uint64(len(fields[i].name)))
		fields[i].key = append(e.buf, fields[i].name...)
	}
	return &structPlan{fields: fields}
}

// canonicalLess orders map keys per DAG-CBOR: shorter keys first,
// equal-length keys bytewise lexicographic.
func canonicalLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// cidOf reads the cid.CID held by rv without boxing it when it can.
func cidOf(rv reflect.Value) cid.CID {
	if rv.CanAddr() {
		return *rv.Addr().Interface().(*cid.CID)
	}
	return rv.Interface().(cid.CID)
}
