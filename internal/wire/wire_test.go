package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestDecoderRejectsGarbage(t *testing.T) {
	overlong := binary.AppendUvarint(nil, 1<<40) // beyond the buffer
	for _, c := range []struct {
		name string
		in   []byte
		read func(d *Decoder)
	}{
		{"bool out of range", []byte{2}, func(d *Decoder) { d.Bool() }},
		{"length too long", overlong, func(d *Decoder) { d.Bytes() }},
		{"count too large", overlong, func(d *Decoder) { d.Count(1) }},
	} {
		d := NewDecoder(c.in)
		c.read(&d)
		if !errors.Is(d.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", c.name, d.Err())
		}
	}
	// Overlong (zero-padded) varints: binary.Uvarint accepts them, the
	// decoder does not, so each value has one encoding.
	for _, in := range [][]byte{{0x80, 0x00}, {0x82, 0x00}} {
		d := NewDecoder(in)
		if d.Uvarint(); d.Err() == nil {
			t.Errorf("overlong uvarint %x decoded", in)
		}
		d = NewDecoder(in)
		if d.Varint(); d.Err() == nil {
			t.Errorf("overlong varint %x decoded", in)
		}
	}
	// Unterminated varint, and bytes left over after the last field.
	d := NewDecoder([]byte{0x80, 0x80})
	if d.Varint(); d.Err() == nil {
		t.Error("unterminated varint decoded")
	}
	d = NewDecoder([]byte{1, 'a', 'z'})
	if s := d.String(); s != "a" || d.Finish() == nil {
		t.Errorf("trailing byte: got %q, err %v", s, d.Err())
	}
	// The first failure sticks.
	d = NewDecoder([]byte{9})
	d.Bytes()
	if d.Uvarint() != 0 || d.Rest() != nil || !errors.Is(d.Finish(), ErrMalformed) {
		t.Error("a failed decoder kept reading")
	}
}

// TestVarintLen checks the size helpers against the encoder at every
// varint length boundary and the extremes.
func TestVarintLen(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 64, -65, 8191, 8192, math.MaxInt64, math.MinInt64} {
		if got, want := VarintLen(v), len(binary.AppendVarint(nil, v)); got != want {
			t.Errorf("VarintLen(%d) = %d, want %d", v, got, want)
		}
	}
	for _, u := range []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint64} {
		if got, want := UvarintLen(u), len(binary.AppendUvarint(nil, u)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", u, got, want)
		}
	}
}
