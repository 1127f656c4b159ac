package statefun

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tca/internal/mq"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []envelope{
		{To: Ref{"txn", "r-1"}, From: Ref{"key", "user/7"}, Payload: []byte("hello")},
		{To: Ref{"key", "k"}, Payload: []byte{0, 1, 2, 255}}, // ingress: no sender
		{To: Ref{"key", "k"}, From: Ref{"txn", "r"}},         // nil payload
		{To: Ref{"key", "k"}, Payload: []byte{}},             // empty payload
		{},
	}
	for _, in := range cases {
		got, err := decodeEnvelope(encodeEnvelope(in.To, in.From, in.Payload))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if got.To != in.To || got.From != in.From || !bytes.Equal(got.Payload, in.Payload) {
			t.Errorf("round trip: got %+v, want %+v", got, in)
		}
		if len(in.Payload) == 0 && got.Payload != nil {
			t.Errorf("empty payload decoded as %q, want nil", got.Payload)
		}
	}
}

// TestEnvelopeTruncatedAddressFails cuts an envelope inside its four
// address strings: every such prefix must fail to decode. (A cut inside
// the payload is a shorter payload — the payload runs to the end of the
// record by definition.)
func TestEnvelopeTruncatedAddressFails(t *testing.T) {
	to, from := Ref{"txn", "req-42"}, Ref{"key", "user/1"}
	full := encodeEnvelope(to, from, []byte("payload"))
	header := len(full) - len("payload")
	for n := 0; n < header; n++ {
		if _, err := decodeEnvelope(full[:n]); !errors.Is(err, ErrMalformed) {
			t.Errorf("prefix of %d/%d bytes: err = %v, want ErrMalformed", n, header, err)
		}
	}
}

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

// FuzzDecodeEnvelope: any input decodes or errors, never panics, and a
// decoded envelope re-encodes to a record that decodes to the same
// envelope.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add(encodeEnvelope(Ref{"txn", "r-1"}, Ref{"key", "k"}, []byte("p")))
	f.Add(encodeEnvelope(Ref{"key", "k"}, Ref{}, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{3, 'k', 'e'})
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := decodeEnvelope(b)
		if err != nil {
			return
		}
		again, err := decodeEnvelope(encodeEnvelope(env.To, env.From, env.Payload))
		if err != nil || again.To != env.To || again.From != env.From || !bytes.Equal(again.Payload, env.Payload) {
			t.Fatalf("re-encode of %+v decoded as %+v, %v", env, again, err)
		}
	})
}

// TestDispatchCountsDrops feeds the internal topic a record that is not an
// envelope and an envelope for an unregistered function type: both are
// dropped, counted, and the app keeps processing.
func TestDispatchCountsDrops(t *testing.T) {
	b := mq.NewBroker()
	app := NewApp(b, Config{Name: "drops", Parallelism: 2, Ingress: "drops-in"})
	var hits atomic.Int64
	app.Register("ok", func(ctx *Ctx, payload []byte) error {
		hits.Add(1)
		return nil
	})
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	p := b.NewProducer("")
	if _, _, err := p.Send("drops-internal", "x", []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if err := app.SendToIngress(Ref{"nobody", "x"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := app.SendToIngress(Ref{"ok", "x"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := app.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := app.Job().Metrics().Counter("statefun.dropped").Value(); got != 2 {
		t.Errorf("statefun.dropped = %d, want 2", got)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("registered function ran %d times, want 1", n)
	}
}
