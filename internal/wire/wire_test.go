package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// record exercises every field kind the codec offers.
type record struct {
	U8     uint8
	U32    uint32
	U64    uint64
	I32    int32
	Int    int
	T, F   bool
	Kind   kind
	Blob   []byte
	Empty  []byte
	Name   string
	Hash   [32]byte
	Words  []uint32
	Nested []pair
}

type kind uint8

type pair struct {
	A uint64
	B []byte
}

func wirePair(c *Codec, p *pair) {
	c.U64(&p.A)
	c.Blob(&p.B)
}

func (r *record) wire(c *Codec) {
	c.U8(&r.U8)
	c.U32(&r.U32)
	c.U64(&r.U64)
	c.I32(&r.I32)
	c.Int(&r.Int)
	c.Bool(&r.T)
	c.Bool(&r.F)
	Enum(c, &r.Kind)
	c.Blob(&r.Blob)
	c.Blob(&r.Empty)
	c.String(&r.Name)
	c.Hash(&r.Hash)
	Slice(c, &r.Words, 16, (*Codec).U32)
	Slice(c, &r.Nested, 16, wirePair)
}

func sampleRecord() *record {
	r := &record{
		U8: 0xAB, U32: 0xDEADBEEF, U64: 1 << 60, I32: -7, Int: -42,
		T: true, Kind: 3, Blob: []byte{1, 2, 3}, Name: "golden",
		Words:  []uint32{1, 2, 3},
		Nested: []pair{{A: 9, B: []byte("x")}, {A: 10}},
	}
	r.Hash[0] = 0xFE
	return r
}

// TestRoundTrip: one field list encodes and decodes every field kind, and
// the decoded value re-encodes to the same bytes.
func TestRoundTrip(t *testing.T) {
	in := sampleRecord()
	enc := Encode(in.wire)
	out := &record{}
	if err := Decode(enc, out.wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", in, out)
	}
	if !bytes.Equal(Encode(out.wire), enc) {
		t.Fatal("decoded record re-encodes differently")
	}
}

// TestDeterministic pins the property content addressing depends on: equal
// values encode to identical bytes.
func TestDeterministic(t *testing.T) {
	if !bytes.Equal(Encode(sampleRecord().wire), Encode(sampleRecord().wire)) {
		t.Fatal("equal inputs encoded differently")
	}
}

// TestTruncationLatches: every truncation of a valid encoding fails without
// panicking, and the fields after the first truncated one stay untouched.
func TestTruncationLatches(t *testing.T) {
	enc := Encode(sampleRecord().wire)
	for n := 0; n < len(enc); n++ {
		if err := Decode(enc[:n], (&record{}).wire); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	out := &record{}
	if err := Decode(enc[:3], out.wire); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated U32: %v", err)
	}
	if out.U8 != 0xAB || out.U32 != 0 || out.U64 != 0 || out.Name != "" || out.Words != nil {
		t.Fatalf("fields after the truncated one were filled: %+v", out)
	}
	if err := Decode(append(bytes.Clone(enc), 0), (&record{}).wire); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: %v", err)
	}
}

// TestBlobLengthBomb: a blob or slice whose claimed length exceeds the
// remaining bytes errors instead of allocating the claimed size, and a
// slice length above its limit errors too.
func TestBlobLengthBomb(t *testing.T) {
	bomb := Encode(func(c *Codec) {
		n := uint64(1 << 50)
		c.U64(&n) // claimed length, no payload
	})
	var b []byte
	if err := Decode(bomb, func(c *Codec) { c.Blob(&b) }); err == nil || b != nil {
		t.Fatalf("oversized blob: %v, %d bytes", err, len(b))
	}

	slice := Encode(func(c *Codec) {
		n := 1000
		c.Int(&n)
		pad := make([]byte, 100) // 108 bytes, room for 13 pairs at 16 bytes each
		c.Blob(&pad)
	})
	var pairs []pair
	err := Decode(slice, func(c *Codec) { Slice(c, &pairs, 1<<20, wirePair) })
	if err == nil || !strings.Contains(err.Error(), "bytes left") || pairs != nil {
		t.Fatalf("slice longer than its input: %v, %d elements", err, len(pairs))
	}
	err = Decode(slice, func(c *Codec) { Slice(c, &pairs, 999, wirePair) })
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("slice above its limit: %v", err)
	}
}

// TestStrictBool: a bool byte other than 0 or 1 is malformed, so every
// accepted input re-encodes to its own bytes.
func TestStrictBool(t *testing.T) {
	var v bool
	for b, ok := range map[byte]bool{0: true, 1: true, 2: false, 0xFF: false} {
		if err := Decode([]byte{b}, func(c *Codec) { c.Bool(&v) }); (err == nil) != ok {
			t.Errorf("bool byte %d: err = %v", b, err)
		}
	}
}

// TestCheckOnlyDecodes: a failed Check rejects input but never an encode.
func TestCheckOnlyDecodes(t *testing.T) {
	fields := func(c *Codec) {
		v := uint8(7)
		c.U8(&v)
		c.Check(v != 7, "seven is malformed")
	}
	enc := Encode(fields)
	if err := Decode(enc, fields); err == nil || err.Error() != "seven is malformed" {
		t.Fatalf("Check did not fail the decode: %v", err)
	}
}

func TestSealOpen(t *testing.T) {
	magic := [4]byte{'T', 'E', 'S', 'T'}
	payload := []byte("payload")
	sealed := Seal(magic, 3, payload)
	got, err := Open(sealed, magic, 3)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Open = %q, %v", got, err)
	}
	flipped := bytes.Clone(sealed)
	flipped[15] ^= 1 // inside the payload
	cases := []struct {
		name    string
		data    []byte
		version uint64
		wantSub string
	}{
		{"short", sealed[:10], 3, "truncated"},
		{"magic", Seal([4]byte{'N', 'O', 'P', 'E'}, 3, payload), 3, "magic"},
		{"version", sealed, 4, "format 3"},
		{"flip", flipped, 3, "hash mismatch"},
	}
	for _, tc := range cases {
		if _, err := Open(tc.data, magic, tc.version); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantSub)
		}
	}
}
