package cid

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestSumDeterministic(t *testing.T) {
	a := SumCBOR([]byte("hello"))
	b := SumCBOR([]byte("hello"))
	if !a.Equal(b) {
		t.Fatalf("same content produced different CIDs: %s vs %s", a, b)
	}
	c := SumCBOR([]byte("world"))
	if a.Equal(c) {
		t.Fatalf("different content produced equal CIDs")
	}
}

func TestCodecDistinguishesCID(t *testing.T) {
	a := SumCBOR([]byte("x"))
	b := SumRaw([]byte("x"))
	if a.Equal(b) {
		t.Fatal("dag-cbor and raw CIDs of same bytes must differ")
	}
	if a.Codec() != DagCBOR || b.Codec() != Raw {
		t.Fatalf("codec mismatch: %v %v", a.Codec(), b.Codec())
	}
}

func TestStringFormat(t *testing.T) {
	c := SumCBOR([]byte("abc"))
	s := c.String()
	if !strings.HasPrefix(s, "b") {
		t.Fatalf("CID string must be base32 multibase (prefix b): %q", s)
	}
	if strings.ToLower(s) != s {
		t.Fatalf("CID string must be lowercase: %q", s)
	}
	// CIDv1 sha2-256 base32 strings are always 59 chars.
	if len(s) != 59 {
		t.Fatalf("unexpected CID string length %d: %q", len(s), s)
	}
}

func TestParseRoundTrip(t *testing.T) {
	orig := SumRaw([]byte("round trip"))
	parsed, err := Parse(orig.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !parsed.Equal(orig) {
		t.Fatalf("round trip mismatch: %s vs %s", parsed, orig)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	orig := SumCBOR([]byte("binary round trip"))
	parsed, err := Decode(orig.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !parsed.Equal(orig) {
		t.Fatalf("binary round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"z123",                // wrong multibase
		"b",                   // empty payload
		"b0123!!",             // invalid base32
		"bafyreihdwdcefgh4dq", // truncated digest
	}
	for _, tc := range cases {
		if _, err := Parse(tc); err == nil {
			t.Errorf("Parse(%q): expected error", tc)
		}
	}
}

func TestAppendBytes(t *testing.T) {
	c := SumCBOR([]byte("append"))
	prefix := []byte{0xaa, 0xbb}
	got := c.AppendBytes(prefix[:2:2])
	if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], c.Bytes()) {
		t.Fatalf("AppendBytes = %x, want %x then %x", got, prefix, c.Bytes())
	}
	if got := (CID{}).AppendBytes(prefix); !bytes.Equal(got, prefix) {
		t.Fatalf("undefined CID appended %x", got[len(prefix):])
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	raw := append(SumRaw([]byte("x")).Bytes(), 0x00)
	if _, err := Decode(raw); err == nil {
		t.Fatal("expected error for trailing bytes")
	}
}

func TestUndefinedCID(t *testing.T) {
	var c CID
	if c.Defined() {
		t.Fatal("zero CID must be undefined")
	}
	if c.String() != "" || c.Bytes() != nil {
		t.Fatal("zero CID must stringify empty")
	}
	if _, err := c.MarshalText(); err == nil {
		t.Fatal("MarshalText of undefined CID must error")
	}
}

func TestTextMarshaling(t *testing.T) {
	orig := SumCBOR([]byte("text"))
	text, err := orig.MarshalText()
	if err != nil {
		t.Fatalf("MarshalText: %v", err)
	}
	var back CID
	if err := back.UnmarshalText(text); err != nil {
		t.Fatalf("UnmarshalText: %v", err)
	}
	if !back.Equal(orig) {
		t.Fatal("text marshal round trip mismatch")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte, raw bool) bool {
		var c CID
		if raw {
			c = SumRaw(data)
		} else {
			c = SumCBOR(data)
		}
		p, err := Parse(c.String())
		if err != nil {
			return false
		}
		d, err := Decode(c.Bytes())
		if err != nil {
			return false
		}
		return p.Equal(c) && d.Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
