// Package wire is the system's one binary field codec: a flat sequence of
// fields with no tags and no framing beyond length prefixes. Integers are
// encoding/binary varints (unsigned for lengths and counts, zig-zag signed
// for values), strings and byte slices are a uvarint length followed by
// the bytes, and a record's last field may run to the end of the buffer.
// Both sides agree on the field order, so a record costs its payload plus
// one or two bytes per field.
//
// Its users are every place the system picks its own encoding: the App
// layer's stored values (EncodeInt, EncodeIntList), the deterministic
// core's log records and WAL group headers (internal/core), the statefun
// runtime's envelope (internal/statefun), and the stateful-dataflow cell's
// choreography messages. Op arguments are the application's format and do
// not go through it.
package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// ErrMalformed reports a record that is truncated or not a record of the
// expected shape.
var ErrMalformed = errors.New("wire: malformed record")

// UvarintLen is the encoded size of x as an unsigned varint, for callers
// that size a record's buffer exactly before appending to it.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// VarintLen is the encoded size of x as a zig-zag signed varint.
func VarintLen(x int64) int { return UvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// AppendString appends s with its uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p with its uvarint length prefix. Nil and empty
// slices encode alike.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Decoder reads fields off a wire record in order. The first failure
// sticks: later reads return zero values and Err reports it, so a decoder
// checks once after reading every field. Decoding never panics, whatever
// the input.
//
// Byte fields alias the decoded buffer rather than copying it. Records on
// the broker are never mutated after the produce, and the dataflow state
// backend copies on Put, so a decoded field may be stored or passed on
// as-is; a caller that mutates one must copy it first.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder starts decoding b.
func NewDecoder(b []byte) Decoder { return Decoder{buf: b} }

// Err returns the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail() {
	d.err = ErrMalformed
	d.buf = nil
}

// overlong reports a varint padded with a zero final byte: binary.Uvarint
// accepts it, but the encoder never writes one, and rejecting it keeps
// every value's encoding unique.
func overlong(v []byte) bool { return len(v) > 1 && v[len(v)-1] == 0 }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || overlong(d.buf[:n]) {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 || overlong(d.buf[:n]) {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 || d.buf[0] > 1 {
		d.fail()
		return false
	}
	v := d.buf[0] == 1
	d.buf = d.buf[1:]
	return v
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

// Bytes reads a length-prefixed byte field, aliasing the buffer. An empty
// field decodes as nil.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v
}

// String reads a length-prefixed string field.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Count reads a uvarint element count and rejects one larger than the
// bytes left, each element taking at least minSize bytes, so garbage
// cannot make the caller allocate beyond the record's own size.
func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if d.err == nil && n > uint64(len(d.buf)/minSize) {
		d.fail()
		return 0
	}
	return int(n)
}

// Rest returns everything left in the buffer, nil when nothing is, and
// consumes it: the last field of a record that runs to its end.
func (d *Decoder) Rest() []byte {
	if d.err != nil || len(d.buf) == 0 {
		return nil
	}
	v := d.buf
	d.buf = nil
	return v
}

// Finish reports the first decoding failure, or ErrMalformed when bytes
// are left over after the record's last field.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) != 0 {
		d.fail()
	}
	return d.err
}
