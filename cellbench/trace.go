package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tca"
	"tca/internal/fabric"
)

// The traced run records spans at the boundaries a user of the library can
// reach: the Cell the sessions submit through, each Op.Body, and the Txn
// handed to the body. Spans stay in memory until the run ends.

type spanKind uint8

const (
	spanRequest    spanKind = iota // scheduled arrival -> handle resolved
	spanCellSubmit                 // Cell.Submit call
	spanBody                       // one Op.Body execution
	spanGet                        // Txn.Get
	spanWrite                      // Txn.Put, Add or PushCap
)

var spanNames = [...]string{"request", "cell.submit", "app.body", "txn.get", "txn.write"}

// span is one timed interval. Times are nanoseconds since the run's
// epoch; a request's root span has the request id as its span id.
type span struct {
	id, parent, rid int64
	kind            spanKind
	start, end      int64
}

const spanShards = 64

// spanStore collects spans from every goroutine of a traced run. Shards
// keep concurrent bodies from serializing on one lock.
type spanStore struct {
	clock  clock
	nextID atomic.Int64
	shards [spanShards]struct {
		mu    sync.Mutex
		spans []span
	}
}

// firstSpanID keeps generated span ids clear of request ids.
const firstSpanID = 1 << 40

func newSpanStore(c clock) *spanStore {
	s := &spanStore{clock: c}
	s.nextID.Store(firstSpanID)
	return s
}

func (s *spanStore) add(sp span) {
	sh := &s.shards[uint64(sp.rid)%spanShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, sp)
	sh.mu.Unlock()
}

func (s *spanStore) all() []span {
	var out []span
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// write dumps the spans as tab-separated lines: name, id, parent,
// request id, start and end in nanoseconds since the run began.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\trid\tstart_ns\tend_ns")
	for _, sp := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", spanNames[sp.kind], sp.id, sp.parent, sp.rid, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clock reads monotonic nanoseconds since a fixed epoch.
type clock struct{ epoch time.Time }

func newClock() clock                 { return clock{epoch: time.Now()} }
func (c clock) now() int64            { return int64(time.Since(c.epoch)) }
func (c clock) at(ns int64) time.Time { return c.epoch.Add(time.Duration(ns)) }

// ridPrefix starts the JSON arguments of a traced request. Every App
// decodes its arguments with encoding/json, which ignores the unknown
// field, so the tag joins body spans to requests without changing what
// the op does.
const ridPrefix = `{"bench_rid":`

// tagArgs prepends the request id to a JSON object.
func tagArgs(rid int64, args []byte) []byte {
	out := make([]byte, 0, len(args)+24)
	out = append(out, ridPrefix...)
	out = strconv.AppendInt(out, rid, 10)
	if len(args) > 2 {
		out = append(out, ',')
	}
	return append(out, args[1:]...)
}

// ridOf returns the request id tagArgs put in args, or 0.
func ridOf(args []byte) int64 {
	if !bytes.HasPrefix(args, []byte(ridPrefix)) {
		return 0
	}
	var rid int64
	for _, c := range args[len(ridPrefix):] {
		if c < '0' || c > '9' {
			break
		}
		rid = rid*10 + int64(c-'0')
	}
	return rid
}

// tracedApp re-registers every op of app with its Body and Txn wrapped in
// spans. The ops keep their names, keys and read-only flags, so every cell
// schedules them exactly as it schedules the plain App.
func tracedApp(app *tca.App, st *spanStore) *tca.App {
	out := tca.NewApp(app.Name())
	for _, name := range app.Ops() {
		op, _ := app.Op(name)
		body := op.Body
		op.Body = func(tx tca.Txn, args []byte) ([]byte, error) {
			rid := ridOf(args)
			id := st.nextID.Add(1)
			start := st.clock.now()
			res, err := body(&tracedTxn{Txn: tx, st: st, rid: rid, parent: id}, args)
			st.add(span{id: id, parent: rid, rid: rid, kind: spanBody, start: start, end: st.clock.now()})
			return res, err
		}
		out.Register(op)
	}
	return out
}

// tracedTxn records a span around every call into the cell's Txn.
type tracedTxn struct {
	tca.Txn
	st          *spanStore
	rid, parent int64
}

func (t *tracedTxn) record(kind spanKind, start int64) {
	t.st.add(span{id: t.st.nextID.Add(1), parent: t.parent, rid: t.rid, kind: kind, start: start, end: t.st.clock.now()})
}

func (t *tracedTxn) Get(key string) ([]byte, bool, error) {
	start := t.st.clock.now()
	v, ok, err := t.Txn.Get(key)
	t.record(spanGet, start)
	return v, ok, err
}

func (t *tracedTxn) Put(key string, value []byte) error {
	start := t.st.clock.now()
	err := t.Txn.Put(key, value)
	t.record(spanWrite, start)
	return err
}

func (t *tracedTxn) Add(key string, delta int64) error {
	start := t.st.clock.now()
	err := t.Txn.Add(key, delta)
	t.record(spanWrite, start)
	return err
}

func (t *tracedTxn) PushCap(key string, id int64, cap int) error {
	start := t.st.clock.now()
	err := t.Txn.PushCap(key, id, cap)
	t.record(spanWrite, start)
	return err
}

// probeCell is the Cell the sessions submit through. It times each
// request's first Cell.Submit call, which separates the session's own
// wait from the cell's in every run, and records it as a span when
// traced. Requests are found by their argument slice, which the session
// passes through unchanged and the harness allocates fresh per request.
type probeCell struct {
	tca.Cell
	clock clock
	reqs  sync.Map // *byte (first byte of args) -> *opRec
	spans *spanStore
}

func (c *probeCell) track(rec *opRec)   { c.reqs.Store(&rec.args[0], rec) }
func (c *probeCell) untrack(rec *opRec) { c.reqs.Delete(&rec.args[0]) }

func (c *probeCell) Submit(reqID, op string, args []byte, tr *fabric.Trace) tca.Handle {
	in := c.clock.now()
	h := c.Cell.Submit(reqID, op, args, tr)
	out := c.clock.now()
	if v, ok := c.reqs.Load(&args[0]); ok {
		// Only the session's synchronous first attempt counts; shed
		// retries run later on the session's own goroutine.
		if rec := v.(*opRec); rec.cellIn == 0 {
			rec.cellIn, rec.cellOut = in, out
		}
	}
	if c.spans != nil {
		rid := ridOf(args)
		c.spans.add(span{id: c.spans.nextID.Add(1), parent: rid, rid: rid, kind: spanCellSubmit, start: in, end: out})
	}
	return h
}
