package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"tca/internal/wal"
	"tca/internal/wire"
)

var recordCases = []request{
	{ReqID: "r-1", Fn: "deposit", Keys: []string{"acc/1"}, Args: []byte(`{"a":1}`)},
	{ReqID: "r-2", Fn: "transfer", Keys: []string{"acc/1", "acc/2"}, Args: []byte{0, 0xff, 0xfe}},
	{ReqID: "r-3", Fn: "transfer", Keys: []string{"acc/1", "acc/9"}, GSeq: 42}, // a marker
	{ReqID: "r-4", Fn: "noargs"},
	{GSeq: math.MaxInt64},
	{},
}

// checkStrict requires every strict prefix of rec, rec with a trailing
// byte, and rec retagged as any other kind to fail decode.
func checkStrict(t *testing.T, name string, rec []byte, decode func([]byte) error) {
	t.Helper()
	for _, tag := range []byte{0, recTxn, recGroup, recHeader, 0xff} {
		if tag != rec[0] {
			retagged := append([]byte{tag}, rec[1:]...)
			if err := decode(retagged); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s retagged %#x: err = %v, want ErrMalformed", name, tag, err)
			}
		}
	}
	for n := 0; n < len(rec); n++ {
		if err := decode(rec[:n]); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s cut to %d/%d bytes: err = %v, want ErrMalformed", name, n, len(rec), err)
		}
	}
	if err := decode(append(append([]byte(nil), rec...), 0)); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("%s with a trailing byte: err = %v, want ErrMalformed", name, err)
	}
}

func TestTxnRecordRoundTrip(t *testing.T) {
	for _, q := range recordCases {
		rec := encodeRequest(q)
		if cap(rec) != len(rec) {
			t.Errorf("%+v: len %d cap %d, want exact", q, len(rec), cap(rec))
		}
		got, err := decodeRequest(rec)
		if err != nil || !reflect.DeepEqual(got, q) {
			t.Errorf("round trip: got %+v, %v; want %+v", got, err, q)
		}
		checkStrict(t, "txn "+q.ReqID, rec, func(b []byte) error { _, err := decodeRequest(b); return err })
	}
	// A marker is a single-member group whose record carries its stamp.
	marker := encodeRequest(recordCases[2])
	if raw, gseq := markerOf([][]byte{marker}); !bytes.Equal(raw, marker) || gseq != 42 {
		t.Errorf("markerOf(marker) = %x, %d; want the record, 42", raw, gseq)
	}
	if raw, _ := markerOf([][]byte{encodeRequest(recordCases[0])}); raw != nil {
		t.Error("markerOf took an unstamped txn for a marker")
	}
}

func TestGroupRecordRoundTrip(t *testing.T) {
	members := make([][]byte, len(recordCases))
	for i, q := range recordCases {
		members[i] = encodeRequest(q)
	}
	rec := encodeGroup(members)
	if !isGroup(rec) || cap(rec) != len(rec) {
		t.Fatalf("group record: isGroup %v, len %d cap %d", isGroup(rec), len(rec), cap(rec))
	}
	got, err := decodeGroup(rec)
	if err != nil || !reflect.DeepEqual(got, recordCases) {
		t.Fatalf("round trip: got %+v, %v", got, err)
	}
	checkStrict(t, "group", rec, func(b []byte) error { _, err := decodeGroup(b); return err })
	// A lone member is its own record, never a group of one.
	if one := encodeGroup(members[:1]); !bytes.Equal(one, members[0]) || isGroup(one) {
		t.Errorf("group of one = %x, want the member record %x", one, members[0])
	}
	for name, bad := range map[string][]byte{
		"group of one":  wire.AppendBytes([]byte{recGroup, 1}, members[0]),
		"txn as group":  members[0],
		"bad member":    encodeGroup([][]byte{{0xff}, members[0]}),
		"nested groups": encodeGroup([][]byte{rec, rec}),
	} {
		if _, err := decodeGroup(bad); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

func TestHeaderRecordRoundTrip(t *testing.T) {
	root := wal.MerkleRoot([][]byte{[]byte("a"), []byte("b")})
	rec := encodeHeader(2, root)
	n, got, err := decodeHeader(rec)
	if err != nil || n != 2 || !bytes.Equal(got, root[:]) {
		t.Fatalf("round trip: n %d root %x err %v", n, got, err)
	}
	checkStrict(t, "header", rec, func(b []byte) error { _, _, err := decodeHeader(b); return err })
	if _, _, err := decodeHeader(encodeHeader(0, root)); err == nil {
		t.Error("empty group header decoded")
	}
}

// FuzzDecodeRecord: any input decodes or errors as each record kind,
// never panics, and whatever decodes re-encodes byte-identical.
func FuzzDecodeRecord(f *testing.F) {
	members := make([][]byte, len(recordCases))
	for i, q := range recordCases {
		members[i] = encodeRequest(q)
		f.Add(members[i])
	}
	f.Add(encodeGroup(members))
	f.Add(encodeGroup(members[:2]))
	f.Add(encodeHeader(3, wal.MerkleRoot(members[:3])))
	f.Add([]byte(`{"r":"r-1","f":"deposit","k":["acc/1"],"a":"e30="}`)) // a JSON-era record
	f.Add([]byte{})
	f.Add([]byte{recGroup, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		if q, err := decodeRequest(b); err == nil {
			if again := encodeRequest(q); !bytes.Equal(again, b) {
				t.Fatalf("txn %x re-encodes as %x", b, again)
			}
		}
		if reqs, err := decodeGroup(b); err == nil {
			ms := make([][]byte, len(reqs))
			for i, q := range reqs {
				ms[i] = encodeRequest(q)
			}
			if again := encodeGroup(ms); !bytes.Equal(again, b) {
				t.Fatalf("group %x re-encodes as %x", b, again)
			}
		}
		if n, root, err := decodeHeader(b); err == nil {
			if again := encodeHeader(n, [wal.HashSize]byte(root)); !bytes.Equal(again, b) {
				t.Fatalf("header %x re-encodes as %x", b, again)
			}
		}
	})
}

// TestUndecodableRecordIsPoison appends records the scheduler cannot
// decode to a partition topic, ahead of one real deposit: each counts in
// core.poison and executes nothing, and the log keeps flowing past them.
func TestUndecodableRecordIsPoison(t *testing.T) {
	r := newBankRuntime(t, "poison")
	valid := encodeRequest(request{ReqID: "x", Fn: "deposit", Keys: []string{"acc/0"}, Args: append(i64(7), i64(0)...)})
	garbage := [][]byte{
		{0xff},
		valid[:len(valid)-1], // truncated
		[]byte(`{"r":"x","f":"deposit","k":["acc/0"],"a":"BwAAAAAAAAAAAAAAAAAAAA=="}`), // JSON-era
		{recGroup, 2, byte(len(valid))},                  // group cut after its count
		encodeHeader(1, wal.MerkleRoot([][]byte{valid})), // a WAL-only kind
	}
	for _, g := range garbage {
		if _, err := r.broker.Produce(r.logTopic(0), "", g); err != nil {
			t.Fatal(err)
		}
	}
	deposit(t, r, "d1", 0, 25)
	if got := r.Metrics().Counter("core.poison").Value(); got != int64(len(garbage)) {
		t.Errorf("core.poison = %d, want %d", got, len(garbage))
	}
	if got := r.Metrics().Counter("core.commits").Value(); got != 1 {
		t.Errorf("core.commits = %d, want 1 (the real deposit only)", got)
	}
	if got := balance(r, 0); got != 25 {
		t.Errorf("balance = %d, want 25", got)
	}
}
