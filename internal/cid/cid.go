// Package cid implements Content IDentifiers (CIDv1) as used by the AT
// Protocol: a self-describing content address consisting of a version,
// a multicodec content type, and a sha2-256 multihash of the content.
//
// Only the subset required by atproto repositories is implemented:
// CIDv1 with the dag-cbor (0x71) or raw (0x55) codecs, sha2-256
// multihashes, and the base32-lower multibase ("b…") text encoding.
package cid

import (
	"bytes"
	"crypto/sha256"
	"encoding/base32"
	"errors"
	"fmt"
	"io"
)

// Codec identifies the multicodec content type of the addressed block.
type Codec uint64

// Multicodec codes used by atproto repositories.
const (
	// DagCBOR is the multicodec code for DAG-CBOR blocks (0x71).
	DagCBOR Codec = 0x71
	// Raw is the multicodec code for raw byte blocks (0x55).
	Raw Codec = 0x55
)

const (
	cidVersion1  = 1
	mhSHA256     = 0x12
	sha256Length = 32
)

// lowercase base32 without padding, per the "b" multibase prefix.
var base32Lower = base32.NewEncoding("abcdefghijklmnopqrstuvwxyz234567").WithPadding(base32.NoPadding)

// CID is a version-1 content identifier. The zero value is invalid and
// reported by Defined as false.
type CID struct {
	codec Codec
	hash  [sha256Length]byte
	set   bool
}

// Sum computes the CID of data under the given codec using sha2-256.
func Sum(codec Codec, data []byte) CID {
	return CID{codec: codec, hash: sha256.Sum256(data), set: true}
}

// SumCBOR computes the CID of a DAG-CBOR block.
func SumCBOR(data []byte) CID { return Sum(DagCBOR, data) }

// SumRaw computes the CID of a raw block.
func SumRaw(data []byte) CID { return Sum(Raw, data) }

// Defined reports whether c holds a parsed or computed CID (as opposed
// to the zero value).
func (c CID) Defined() bool { return c.set }

// Codec returns the multicodec content type of the CID.
func (c CID) Codec() Codec { return c.codec }

// Hash returns the sha2-256 digest carried by the CID.
func (c CID) Hash() [sha256Length]byte { return c.hash }

// Equal reports whether two CIDs are identical.
func (c CID) Equal(o CID) bool { return c == o }

// Bytes returns the binary form: <version><codec><multihash>.
func (c CID) Bytes() []byte {
	if !c.set {
		return nil
	}
	return c.AppendBytes(make([]byte, 0, 4+2+sha256Length))
}

// AppendBytes appends the binary form to dst and returns the extended
// slice; an undefined CID appends nothing.
func (c CID) AppendBytes(dst []byte) []byte {
	if !c.set {
		return dst
	}
	dst = appendUvarint(dst, cidVersion1)
	dst = appendUvarint(dst, uint64(c.codec))
	dst = appendUvarint(dst, mhSHA256)
	dst = appendUvarint(dst, sha256Length)
	return append(dst, c.hash[:]...)
}

// String returns the canonical text form: multibase base32-lower.
func (c CID) String() string {
	if !c.set {
		return ""
	}
	return "b" + base32Lower.EncodeToString(c.Bytes())
}

// MarshalText implements encoding.TextMarshaler.
func (c CID) MarshalText() ([]byte, error) {
	if !c.set {
		return nil, errors.New("cid: marshal of undefined CID")
	}
	return []byte(c.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (c *CID) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// Parse decodes the multibase text form of a CIDv1.
func Parse(s string) (CID, error) {
	if len(s) < 2 || s[0] != 'b' {
		return CID{}, fmt.Errorf("cid: unsupported multibase in %q", s)
	}
	raw, err := base32Lower.DecodeString(s[1:])
	if err != nil {
		return CID{}, fmt.Errorf("cid: invalid base32: %w", err)
	}
	return Decode(raw)
}

// Decode parses the binary form of a CIDv1.
func Decode(raw []byte) (CID, error) {
	r := bytes.NewReader(raw)
	version, err := readUvarint(r)
	if err != nil {
		return CID{}, err
	}
	if version != cidVersion1 {
		return CID{}, fmt.Errorf("cid: unsupported version %d", version)
	}
	codec, err := readUvarint(r)
	if err != nil {
		return CID{}, err
	}
	hashFn, err := readUvarint(r)
	if err != nil {
		return CID{}, err
	}
	if hashFn != mhSHA256 {
		return CID{}, fmt.Errorf("cid: unsupported multihash 0x%x", hashFn)
	}
	hashLen, err := readUvarint(r)
	if err != nil {
		return CID{}, err
	}
	if hashLen != sha256Length {
		return CID{}, fmt.Errorf("cid: bad sha2-256 length %d", hashLen)
	}
	var c CID
	c.codec = Codec(codec)
	if _, err := io.ReadFull(r, c.hash[:]); err != nil {
		return CID{}, fmt.Errorf("cid: truncated digest: %w", err)
	}
	if r.Len() != 0 {
		return CID{}, fmt.Errorf("cid: %d trailing bytes", r.Len())
	}
	c.set = true
	return c, nil
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func readUvarint(r *bytes.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, errors.New("cid: truncated varint")
		}
		if shift >= 63 && b > 1 {
			return 0, errors.New("cid: varint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, nil
		}
		shift += 7
	}
}
