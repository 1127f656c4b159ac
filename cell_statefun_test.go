package tca

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"tca/internal/statefun"
)

// nilIfEmpty is what a decoded byte field holds: empty and nil encode
// alike and decode as nil.
func nilIfEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// sfMsgCases has one message of every kind, as the choreography sends
// them, plus edge values: empty and nil byte fields, negative and extreme
// integers.
var sfMsgCases = []sfMsg{
	{Kind: sfOp, Req: "req-1", Op: SocialComposePost, Args: []byte(`{"author":3}`)},
	{Kind: sfOp, Req: "req-2", Op: "noop", Args: []byte{}},
	{Kind: sfCont},
	{Kind: sfRead, Req: "req-1", Key: "timeline/9"},
	{Kind: sfResp, Req: "req-1", Key: "timeline/9", Val: EncodeIntList([]int64{5, 4}), Found: true},
	{Kind: sfResp, Req: "req-1", Key: "posts/2"},
	{Kind: sfFlush},
	{Kind: sfPut, Key: "k", Val: []byte{0, 0xff}},
	{Kind: sfPut, Key: "k", Val: []byte{}},
	{Kind: sfAdd, Key: "balance/0", Delta: -42},
	{Kind: sfAdd, Key: "balance/0", Delta: math.MinInt64},
	{Kind: sfPush, Key: "timeline/1", ID: math.MaxInt64, Cap: 32},
	{Kind: sfProbe, Probe: "probe-7"},
}

func TestSfMsgRoundTrip(t *testing.T) {
	for _, in := range sfMsgCases {
		got, err := decodeSfMsg(in.encode())
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		want := in
		want.Args, want.Val = nilIfEmpty(in.Args), nilIfEmpty(in.Val)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestSfWritesRoundTrip(t *testing.T) {
	for _, in := range [][]sfWrite{
		nil,
		{{Key: "a", Set: true, Val: []byte("v")}},
		{
			{Key: "balance/1", Delta: -7},
			{Key: "timeline/3", Push: true, ID: 99, Cap: 16},
			{Key: "empty", Set: true, Val: []byte{}},
			{Key: "nil", Set: true},
			{Key: "", Delta: math.MaxInt64},
		},
	} {
		got, err := decodeSfWrites(encodeSfWrites(in))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		want := make([]sfWrite, len(in))
		for i, w := range in {
			w.Val = nilIfEmpty(w.Val)
			want[i] = w
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestSfEgressRecordsRoundTrip(t *testing.T) {
	for _, in := range []sfDone{{}, {Val: []byte("result")}, {Val: []byte{}}, {Err: "tca: insufficient funds"}} {
		got, err := decodeSfDone(in.encode())
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if got.Err != in.Err || !reflect.DeepEqual(got.Val, nilIfEmpty(in.Val)) {
			t.Errorf("done round trip: got %+v, want %+v", got, in)
		}
	}
	for _, in := range []sfProbeResp{{}, {Val: EncodeInt(3), Found: true}, {Val: []byte{}, Found: true}} {
		got, err := decodeSfProbeResp(in.encode())
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if got.Found != in.Found || !reflect.DeepEqual(got.Val, nilIfEmpty(in.Val)) {
			t.Errorf("probe round trip: got %+v, want %+v", got, in)
		}
	}
}

// TestSfDecodersRejectTruncation cuts every encoded record short at every
// length: each field takes at least one byte and the decoders require the
// whole record, so every strict prefix must fail with ErrMalformed.
func TestSfDecodersRejectTruncation(t *testing.T) {
	msg := func(b []byte) error { _, err := decodeSfMsg(b); return err }
	type record struct {
		decode func([]byte) error
		full   []byte
	}
	records := []record{
		{func(b []byte) error { _, err := decodeSfDone(b); return err }, sfDone{Val: []byte("v"), Err: "e"}.encode()},
		{func(b []byte) error { _, err := decodeSfProbeResp(b); return err }, sfProbeResp{Val: []byte("v"), Found: true}.encode()},
		{func(b []byte) error { _, err := decodeSfWrites(b); return err }, encodeSfWrites([]sfWrite{
			{Key: "a", Set: true, Val: []byte("v")}, {Key: "b", Push: true, ID: 1, Cap: 2},
		})},
	}
	for _, m := range sfMsgCases {
		records = append(records, record{msg, m.encode()})
	}
	for _, r := range records {
		for n := 0; n < len(r.full); n++ {
			if err := r.decode(r.full[:n]); !errors.Is(err, statefun.ErrMalformed) {
				t.Errorf("%x cut to %d bytes: err = %v, want ErrMalformed", r.full, n, err)
			}
		}
	}
}

// The fuzz targets check that any input decodes or errors without
// panicking, and that a decoded value survives a re-encode. Their seed
// corpora (valid records, truncations, garbage) run under plain go test.

func FuzzDecodeSfMsg(f *testing.F) {
	for _, m := range sfMsgCases {
		f.Add(m.encode())
	}
	f.Add([]byte{})
	f.Add([]byte{byte(sfPut), 0, 0, 0, 1})
	f.Add([]byte{byte(sfOp), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeSfMsg(b)
		if err != nil {
			return
		}
		again, err := decodeSfMsg(m.encode())
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encode of %+v decoded as %+v, %v", m, again, err)
		}
	})
}

func FuzzDecodeSfWrites(f *testing.F) {
	f.Add(encodeSfWrites(nil))
	f.Add(encodeSfWrites([]sfWrite{{Key: "a", Set: true, Val: []byte("v")}, {Key: "b", Delta: -1}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}) // a count far past the record
	f.Add([]byte{1, 1, 'k', 2})           // a bool byte out of range
	f.Fuzz(func(t *testing.T, b []byte) {
		ws, err := decodeSfWrites(b)
		if err != nil {
			return
		}
		again, err := decodeSfWrites(encodeSfWrites(ws))
		if err != nil || len(again) != len(ws) || (len(ws) > 0 && !reflect.DeepEqual(again, ws)) {
			t.Fatalf("re-encode of %+v decoded as %+v, %v", ws, again, err)
		}
	})
}

func FuzzDecodeSfDone(f *testing.F) {
	f.Add(sfDone{Val: []byte("v")}.encode())
	f.Add(sfDone{Err: "boom"}.encode())
	f.Add([]byte{5, 'x'})
	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := decodeSfDone(b)
		if err != nil {
			return
		}
		again, err := decodeSfDone(o.encode())
		if err != nil || !reflect.DeepEqual(again, o) {
			t.Fatalf("re-encode of %+v decoded as %+v, %v", o, again, err)
		}
	})
}

func FuzzDecodeSfProbeResp(f *testing.F) {
	f.Add(sfProbeResp{Val: []byte("v"), Found: true}.encode())
	f.Add(sfProbeResp{}.encode())
	f.Add([]byte{7})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeSfProbeResp(b)
		if err != nil {
			return
		}
		again, err := decodeSfProbeResp(r.encode())
		if err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("re-encode of %+v decoded as %+v, %v", r, again, err)
		}
	})
}
