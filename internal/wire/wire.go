// Package wire is the binary codec under the checkpoint-artifact and
// liveness-profile formats: fixed-width little-endian scalars and
// length-prefixed byte strings in one buffer. The encoding carries no type
// information, so writer and reader must agree on the field sequence. Each
// format therefore lists its fields once, in one method taking a *Codec,
// and that same method encodes (the Codec appends each field) and decodes
// (the Codec fills each field from the input); the two directions cannot
// drift apart. Equal values encode to identical bytes, the property
// content addressing is built on, and every byte string a decoder accepts
// re-encodes to itself.
//
// Decoding never trusts a length: a slice length above its format's limit
// or above what the remaining input could hold is rejected before
// anything is allocated, so a few forged bytes cannot demand a large
// allocation.
//
// Seal and Open put a payload in the one envelope both formats share:
// magic, format version and a sha256 trailer.
package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Codec runs a field list in one direction: an encoder appends each field
// to its buffer, a decoder fills each field from its input. A decoder
// latches the first malformed field as its error and leaves every later
// field untouched, so a field list runs to its end and the caller checks
// the error once.
type Codec struct {
	buf      []byte
	off      int
	err      error
	decoding bool
}

// Encode runs fields in encoding mode and returns the bytes they wrote.
func Encode(fields func(*Codec)) []byte {
	c := &Codec{}
	fields(c)
	return c.buf
}

// Decode runs fields in decoding mode over data. It returns the first
// malformed field's error, or an error if fields left bytes unread. data
// is not retained: decoded byte strings are copies.
func Decode(data []byte, fields func(*Codec)) error {
	c := &Codec{buf: data, decoding: true}
	fields(c)
	if c.err == nil && c.off != len(data) {
		c.err = fmt.Errorf("wire: %d trailing bytes", len(data)-c.off)
	}
	return c.err
}

// Decoding reports whether the Codec fills fields from input. A field list
// asks it to allocate storage that a length it has already run implies.
func (c *Codec) Decoding() bool { return c.decoding }

// Err returns the first decoding error, or nil.
func (c *Codec) Err() error { return c.err }

// Check fails the decode with the formatted error unless ok. Encoding
// ignores it: the checks it carries reject malformed input, and an encoder
// only sees values its own program built.
func (c *Codec) Check(ok bool, format string, args ...any) {
	if c.decoding && !ok && c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// take consumes n input bytes, or latches a truncation error and returns
// nil.
func (c *Codec) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.buf)-c.off) {
		c.err = fmt.Errorf("wire: truncated: need %d bytes at offset %d of %d", n, c.off, len(c.buf))
		return nil
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// U8 runs one byte.
func (c *Codec) U8(v *uint8) {
	if !c.decoding {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// U32 runs a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U64 runs a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// I32 runs an int32 as its two's-complement uint32.
func (c *Codec) I32(v *int32) {
	u := uint32(*v)
	c.U32(&u)
	*v = int32(u)
}

// Int runs an int as an int64, so the encoding is the same on every host
// int width.
func (c *Codec) Int(v *int) {
	u := uint64(*v)
	c.U64(&u)
	*v = int(u)
}

// Bool runs a bool as one byte, 0 or 1. Decoding rejects any other byte,
// which no encoder writes.
func (c *Codec) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.U8(&u)
	c.Check(u <= 1, "wire: bool byte %d", u)
	*v = u == 1
}

// Enum runs a one-byte enumeration such as isa.Op.
func Enum[T ~uint8](c *Codec, v *T) {
	u := uint8(*v)
	c.U8(&u)
	*v = T(u)
}

// Blob runs a length-prefixed byte string. Decoding copies it out of the
// input, and an empty string decodes as nil.
func (c *Codec) Blob(b *[]byte) {
	n := uint64(len(*b))
	c.U64(&n)
	if !c.decoding {
		c.buf = append(c.buf, *b...)
	} else if s := c.take(n); len(s) > 0 {
		*b = bytes.Clone(s)
	} else {
		*b = nil
	}
}

// String runs a length-prefixed string.
func (c *Codec) String(s *string) {
	b := []byte(*s)
	c.Blob(&b)
	*s = string(b)
}

// Hash runs a sha256 digest as a byte string (the layout Blob gives it).
// Decoding rejects any other length.
func (c *Codec) Hash(h *[sha256.Size]byte) {
	b := h[:]
	c.Blob(&b)
	c.Check(len(b) == sha256.Size, "wire: hash is %d bytes, want %d", len(b), sha256.Size)
	copy(h[:], b)
}

// Slice runs a length-prefixed slice, elem running each element's fields.
// Decoding checks the length before it allocates: it must be at most
// limit, and the remaining input must hold that many elements at their
// smallest encoding. An empty slice decodes as nil.
func Slice[T any](c *Codec, s *[]T, limit int, elem func(*Codec, *T)) {
	n := len(*s)
	c.Int(&n)
	if c.decoding {
		if c.err != nil {
			return
		}
		if n < 0 || n > limit {
			c.err = fmt.Errorf("wire: slice length %d out of range [0, %d]", n, limit)
			return
		}
		if left := len(c.buf) - c.off; n > left/minSize(elem) {
			c.err = fmt.Errorf("wire: slice length %d exceeds the %d bytes left", n, left)
			return
		}
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// minSize is the encoded size of elem's zero value, the smallest any
// element can take: every variable-length field is then empty.
func minSize[T any](elem func(*Codec, *T)) int {
	var zero T
	return max(len(Encode(func(c *Codec) { elem(c, &zero) })), 1)
}

// Seal frames a payload: the 4-byte magic, the little-endian uint64
// format version, the payload, then a sha256 of everything before it.
func Seal(magic [4]byte, version uint64, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+8+len(payload)+sha256.Size)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint64(out, version)
	out = append(out, payload...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// Open checks a sealed frame's length, magic, version and hash, and
// returns its payload. The hash catches corruption, not forgery: whoever
// can write the bytes can reseal them, so decoders still check every
// field.
func Open(data []byte, magic [4]byte, version uint64) ([]byte, error) {
	header := len(magic) + 8
	if len(data) < header+sha256.Size {
		return nil, fmt.Errorf("wire: sealed data truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("wire: bad magic %q, want %q", data[:len(magic)], magic[:])
	}
	if v := binary.LittleEndian.Uint64(data[len(magic):header]); v != version {
		return nil, fmt.Errorf("wire: unsupported format %d (want %d)", v, version)
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("wire: content hash mismatch")
	}
	return body[header:], nil
}
