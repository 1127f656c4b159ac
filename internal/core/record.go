package core

import (
	"encoding/binary"
	"math"

	"tca/internal/wal"
	"tca/internal/wire"
)

// The input log's record format. Every record the runtime writes — to the
// partition logs and the global-sequence topic on the broker, and to the
// durable log (wal.go) — is one of three kinds, told apart by a leading
// tag byte and encoded with the shared field codec (internal/wire):
//
//	txn     0x01  ReqID  Fn  nkeys  Key × nkeys  Args  GSeq
//	group   0x02  n  (len, txn record) × n          n ≥ 2
//	header  0x03  n  root                           WAL only
//
// Strings and Args are uvarint-length-prefixed; nkeys, n, len and GSeq
// are uvarints; root is the raw Merkle root (wal.HashSize bytes) over
// the n member records that follow a header on disk. Args are the op's
// arguments as the client gave them, carried raw. A txn record is a lone
// submission, a cross-partition submission on the sequence topic, or —
// with GSeq stamped — the sequencer's marker for one; a group record is
// one batcher group append, a lone member being written as its own txn
// record. Decoding is strict: a truncated record, trailing bytes, an
// unknown tag or a group of fewer than two members is malformed, so every
// decodable record re-encodes byte-identical. The scheduler counts an
// undecodable broker record in core.poison; on disk, a record that breaks
// the group structure fails Merkle verification (ErrLogTampered).
const (
	recTxn    byte = 1
	recGroup  byte = 2
	recHeader byte = 3
)

// minTxnSize is the smallest encoded txn record: the tag and five empty
// or zero fields, one byte each.
const minTxnSize = 6

// request is one transaction on the input log. GSeq is zero for
// transactions appended directly to their home partition; the sequencer
// stamps cross-partition markers with their global sequence offset + 1.
type request struct {
	ReqID string
	Fn    string
	Keys  []string
	Args  []byte
	GSeq  int64
}

// encodeRequest is q's txn record, allocated at its exact size.
func encodeRequest(q request) []byte {
	n := 1 + lenField(len(q.ReqID)) + lenField(len(q.Fn)) + wire.UvarintLen(uint64(len(q.Keys))) +
		lenField(len(q.Args)) + wire.UvarintLen(uint64(q.GSeq))
	for _, k := range q.Keys {
		n += lenField(len(k))
	}
	b := make([]byte, 0, n)
	b = append(b, recTxn)
	b = wire.AppendString(b, q.ReqID)
	b = wire.AppendString(b, q.Fn)
	b = binary.AppendUvarint(b, uint64(len(q.Keys)))
	for _, k := range q.Keys {
		b = wire.AppendString(b, k)
	}
	b = wire.AppendBytes(b, q.Args)
	return binary.AppendUvarint(b, uint64(q.GSeq))
}

// lenField is the encoded size of a length-prefixed field of n bytes.
func lenField(n int) int { return wire.UvarintLen(uint64(n)) + n }

// decodeRequest parses a txn record. Args alias b (see wire.Decoder).
func decodeRequest(b []byte) (request, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != recTxn {
		return request{}, wire.ErrMalformed
	}
	q := request{ReqID: d.String(), Fn: d.String()}
	if n := d.Count(1); n > 0 {
		q.Keys = make([]string, n)
		for i := range q.Keys {
			q.Keys[i] = d.String()
		}
	}
	q.Args = d.Bytes()
	gseq := d.Uvarint()
	if err := d.Finish(); err != nil {
		return request{}, err
	}
	if gseq > math.MaxInt64 {
		return request{}, wire.ErrMalformed
	}
	q.GSeq = int64(gseq)
	return q, nil
}

// encodeGroup is the broker record of one batcher group append, sized
// exactly up front: a lone member is its own record, more are wrapped in a
// group record. members are txn records — on disk they are the group's
// Merkle leaves, so bootstrap rebuilds the identical record from them.
func encodeGroup(members [][]byte) []byte {
	if len(members) == 1 {
		return members[0]
	}
	n := 1 + wire.UvarintLen(uint64(len(members)))
	for _, m := range members {
		n += lenField(len(m))
	}
	b := make([]byte, 0, n)
	b = append(b, recGroup)
	b = binary.AppendUvarint(b, uint64(len(members)))
	for _, m := range members {
		b = wire.AppendBytes(b, m)
	}
	return b
}

// isGroup reports whether a broker record is tagged as a group record.
func isGroup(b []byte) bool { return len(b) > 0 && b[0] == recGroup }

// decodeGroup parses a group record into its member transactions, in
// record order.
func decodeGroup(b []byte) ([]request, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != recGroup {
		return nil, wire.ErrMalformed
	}
	n := d.Count(1 + minTxnSize)
	if d.Err() != nil || n < 2 {
		return nil, wire.ErrMalformed
	}
	reqs := make([]request, n)
	for i := range reqs {
		var err error
		if reqs[i], err = decodeRequest(d.Bytes()); err != nil {
			return nil, err
		}
	}
	return reqs, d.Finish()
}

// encodeHeader is the on-disk header record that opens a group of n
// members whose Merkle root is root.
func encodeHeader(n int, root [wal.HashSize]byte) []byte {
	b := make([]byte, 0, 1+wire.UvarintLen(uint64(n))+wal.HashSize)
	b = append(b, recHeader)
	b = binary.AppendUvarint(b, uint64(n))
	return append(b, root[:]...)
}

// decodeHeader parses a header record; root aliases b.
func decodeHeader(b []byte) (n int, root []byte, err error) {
	d := wire.NewDecoder(b)
	if d.Byte() != recHeader {
		return 0, nil, wire.ErrMalformed
	}
	u := d.Uvarint()
	root = d.Rest()
	if d.Err() != nil || u == 0 || u > math.MaxInt32 || len(root) != wal.HashSize {
		return 0, nil, wire.ErrMalformed
	}
	return int(u), root, nil
}
