package tca

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/fabric"
	"tca/internal/statefun"
	"tca/internal/wire"
)

// statefunCell deploys an App on stateful dataflow functions. Every key's
// state lives in a keyed "key" function; an op runs as a message
// choreography coordinated by a per-request "txn" function:
//
//  1. Invoke appends the op to the ingress (acceptance, not completion);
//  2. the txn function sends a read request to each declared key;
//  3. key functions reply with their current values;
//  4. when the last reply arrives the body runs over the gathered
//     snapshot, and its writes go out as messages — Put as a full value,
//     Add as a commutative delta, PushCap as a bounded-list merge.
//
// Wide transactions chunk: the runtime budgets statefun.MaxSends sends
// per invocation, so both the read-scatter and the write-emit reserve the
// last slot for a SendSelf continuation and resume from the
// continuation's own invocation (cursor and pending writes held in the
// txn function's scoped state, checkpoint-consistent with the messages).
// A compose-post to 128 followers is no longer a hard failure — it is
// ⌈129/31⌉ scatter rounds and ⌈129/31⌉ emit rounds, each exactly-once.
//
// Every message is exactly-once (the statefun runtime's idempotent
// produce), so deltas never double-apply — but the snapshot is gathered
// asynchronously and writes land asynchronously: there is no isolation
// across keys, the §4.2 gap E7/E17 demonstrate. Chunking widens the
// gather window, it does not change the guarantee.
//
// Every choreography record — the sfMsg payloads, the write tail kept
// between emit rounds, and the result and probe records on the egress —
// is encoded with the statefun runtime's binary wire codec (fields in a
// fixed order, uvarint length prefixes, no tags); see sfMsg.encode.
type statefunCell struct {
	app *App
	sf  *statefun.App

	probeSeq atomic.Int64
	mu       sync.Mutex
	probes   map[string]chan sfProbeResp

	// resolvers holds the in-flight Submit handles by reqID, resolved when
	// the choreography's result record lands on the egress. The egress
	// callback is at-least-once, so resolution is remove-then-resolve (and
	// the handle itself resolves idempotently). Its size is the cell's
	// acknowledged-not-yet-applied watermark: maxInflight bounds it
	// (Options.MaxPending; 0 = unbounded), and Submit sheds at the bound —
	// before the ingress produce, so a shed op never enters the dataflow.
	resMu       sync.Mutex
	resolvers   map[string]sfPending
	maxInflight int

	// handlerErrs counts handler invocations that returned an error —
	// the cell's honest drop count, which the conformance tests pin to
	// zero (in particular: statefun.ErrTooManySends must be unreachable
	// now that both choreography phases chunk).
	handlerErrs    atomic.Int64
	lastHandlerErr atomic.Value // sfErrBox
}

// sfErrBox wraps handler errors in one concrete type: atomic.Value
// panics on stores of inconsistently typed values, and handler errors
// legitimately vary in dynamic type.
type sfErrBox struct{ err error }

// sfKind tags a choreography message; the zero value is not a kind.
type sfKind uint8

const (
	sfOp    sfKind = iota + 1 // ingress -> txn: run op Op on Args
	sfCont                    // txn -> itself: continue the read scatter
	sfRead                    // txn -> key: read request
	sfResp                    // key -> txn: the key's Val and Found
	sfFlush                   // txn -> itself: emit the next write chunk
	sfPut                     // txn -> key: set Val
	sfAdd                     // txn -> key: add Delta
	sfPush                    // txn -> key: merge ID into the list bounded by Cap
	sfProbe                   // ingress -> key: emit the value as record Probe
)

// sfMsg is one choreography message, the payload of a runtime envelope.
// Each kind uses only some of the fields; the rest stay zero.
type sfMsg struct {
	Kind  sfKind
	Req   string
	Op    string
	Args  []byte
	Key   string
	Val   []byte
	Found bool
	Delta int64
	ID    int64
	Cap   int
	Probe string
}

// encode is the wire form of m: every field in declaration order — Kind
// as one byte, strings and byte slices length-prefixed, integers as
// signed varints — so an unused field costs one byte.
func (m sfMsg) encode() []byte {
	n := len(m.Req) + len(m.Op) + len(m.Args) + len(m.Key) + len(m.Val) + len(m.Probe)
	b := make([]byte, 0, n+32)
	b = append(b, byte(m.Kind))
	b = wire.AppendString(b, m.Req)
	b = wire.AppendString(b, m.Op)
	b = wire.AppendBytes(b, m.Args)
	b = wire.AppendString(b, m.Key)
	b = wire.AppendBytes(b, m.Val)
	b = wire.AppendBool(b, m.Found)
	b = binary.AppendVarint(b, m.Delta)
	b = binary.AppendVarint(b, m.ID)
	b = binary.AppendVarint(b, int64(m.Cap))
	return wire.AppendString(b, m.Probe)
}

// decodeSfMsg parses an encoded sfMsg. Args and Val alias b (see
// wire.Decoder): the state backend copies whatever is stored, and
// nothing downstream mutates them.
func decodeSfMsg(b []byte) (sfMsg, error) {
	d := wire.NewDecoder(b)
	m := sfMsg{
		Kind:  sfKind(d.Byte()),
		Req:   d.String(),
		Op:    d.String(),
		Args:  d.Bytes(),
		Key:   d.String(),
		Val:   d.Bytes(),
		Found: d.Bool(),
		Delta: d.Varint(),
		ID:    d.Varint(),
		Cap:   int(d.Varint()),
		Probe: d.String(),
	}
	return m, d.Finish()
}

// sfProbeResp answers a probe on the egress: Found, then Val.
type sfProbeResp struct {
	Val   []byte
	Found bool
}

func (r sfProbeResp) encode() []byte {
	b := wire.AppendBool(make([]byte, 0, len(r.Val)+8), r.Found)
	return wire.AppendBytes(b, r.Val)
}

func decodeSfProbeResp(b []byte) (sfProbeResp, error) {
	d := wire.NewDecoder(b)
	r := sfProbeResp{Found: d.Bool(), Val: d.Bytes()}
	return r, d.Finish()
}

// sfDone is the choreography's result record, emitted on the egress under
// the key "done/<reqID>" when the txn function has run the body and
// shipped the last write chunk. Err carries a body failure — the drop an
// asynchronous cell could never report to its caller before Submit. Its
// wire form is Err, then Val.
type sfDone struct {
	Val []byte
	Err string
}

func (o sfDone) encode() []byte {
	b := wire.AppendString(make([]byte, 0, len(o.Err)+len(o.Val)+8), o.Err)
	return wire.AppendBytes(b, o.Val)
}

func decodeSfDone(b []byte) (sfDone, error) {
	d := wire.NewDecoder(b)
	o := sfDone{Err: d.String(), Val: d.Bytes()}
	return o, d.Finish()
}

// sfPending pairs an in-flight handle with its trace (the result hop is
// charged at resolution).
type sfPending struct {
	h  *opHandle
	tr *fabric.Trace
}

// sfDonePrefix keys result records on the egress; sfResultTimeout bounds
// how long a Submit handle waits for its result record. It is a hang
// backstop, not a rejection policy — an accepted op is exactly-once in
// the ingress and will still apply even if its handle times out — so the
// bound is generous (3× Settle's quiesce timeout) to keep a deep
// pipelined backlog on a loaded machine from resolving live handles
// spuriously.
const (
	sfDonePrefix    = "done/"
	sfResultTimeout = 30 * time.Second
)

const (
	sfKeyFn = "key"
	sfTxnFn = "txn"
)

// sfDefaultMaxInflight is the default bound on acknowledged-not-yet-applied
// ingress records (Options.MaxPending == 0). The dataflow cell pipelines
// deeply by design, so its default headroom is wider than the worker-pool
// cells'; what matters is that it is finite — open-loop overload otherwise
// grows the ingress backlog, and every apply latency, without bound.
const sfDefaultMaxInflight = 1024

func newStatefunCell(app *App, env *Env, opts Options) (*statefunCell, error) {
	maxInflight := opts.MaxPending
	if maxInflight == 0 {
		maxInflight = sfDefaultMaxInflight
	} else if maxInflight < 0 {
		maxInflight = 0 // legacy: unbounded ingress
	}
	c := &statefunCell{
		app:         app,
		probes:      make(map[string]chan sfProbeResp),
		resolvers:   make(map[string]sfPending),
		maxInflight: maxInflight,
	}
	sf := statefun.NewApp(env.Broker, statefun.Config{
		Name: "cell-" + app.Name(), Parallelism: 2, Ingress: "cell-" + app.Name() + "-ingress",
		OnEgress: func(key string, value []byte) {
			if req, ok := strings.CutPrefix(key, sfDonePrefix); ok {
				c.resolveDone(req, value)
				return
			}
			resp, err := decodeSfProbeResp(value)
			if err != nil {
				return
			}
			c.mu.Lock()
			ch, ok := c.probes[key]
			if ok {
				delete(c.probes, key)
			}
			c.mu.Unlock()
			if ok {
				select {
				case ch <- resp:
				default:
				}
			}
		},
	})
	sf.Register(sfKeyFn, c.trap(c.keyHandler))
	sf.Register(sfTxnFn, c.trap(c.txnHandler))
	if err := sf.Start(); err != nil {
		return nil, err
	}
	c.sf = sf
	return c, nil
}

// trap wraps a handler to count (and keep) errors: asynchronous cells drop
// failed ops — the honest dataflow failure mode — but the tests assert the
// drop count stays zero on conforming workloads.
func (c *statefunCell) trap(h statefun.Handler) statefun.Handler {
	return func(ctx *statefun.Ctx, payload []byte) error {
		err := h(ctx, payload)
		if err != nil {
			c.handlerErrs.Add(1)
			c.lastHandlerErr.Store(sfErrBox{err})
		}
		return err
	}
}

// handlerErrors returns the number of dropped (errored) handler
// invocations and the most recent error.
func (c *statefunCell) handlerErrors() (int64, error) {
	box, _ := c.lastHandlerErr.Load().(sfErrBox)
	return c.handlerErrs.Load(), box.err
}

// droppedRecords returns how many records the runtime's dispatch dropped
// (statefun.dropped): malformed envelopes and unregistered function types.
func (c *statefunCell) droppedRecords() int64 {
	return c.sf.Job().Metrics().Counter("statefun.dropped").Value()
}

// resolveDone completes the in-flight handle whose result record landed.
func (c *statefunCell) resolveDone(reqID string, value []byte) {
	out, err := decodeSfDone(value)
	if err != nil {
		return
	}
	c.resMu.Lock()
	p, ok := c.resolvers[reqID]
	if ok {
		delete(c.resolvers, reqID)
	}
	c.resMu.Unlock()
	if !ok {
		return // duplicate delivery or an abandoned (timed-out) handle
	}
	p.tr.Charge(time.Millisecond / 2) // result record -> client
	if out.Err != "" {
		p.h.resolve(nil, fmt.Errorf("tca: statefun op dropped: %s", out.Err))
		return
	}
	p.h.resolve(out.Val, nil)
}

// keyHandler owns one key's state (scoped under the function instance).
func (c *statefunCell) keyHandler(ctx *statefun.Ctx, payload []byte) error {
	m, err := decodeSfMsg(payload)
	if err != nil {
		return err
	}
	switch m.Kind {
	case sfRead:
		val, found := ctx.Get("v")
		reply := sfMsg{Kind: sfResp, Req: m.Req, Key: ctx.Self.ID, Val: val, Found: found}
		return ctx.Send(ctx.Caller, reply.encode())
	case sfPut:
		ctx.Set("v", m.Val)
	case sfAdd:
		cur, _ := ctx.Get("v")
		ctx.Set("v", EncodeInt(DecodeInt(cur)+m.Delta))
	case sfPush:
		cur, _ := ctx.Get("v")
		ctx.Set("v", EncodeIntList(mergeBounded(DecodeIntList(cur), m.ID, m.Cap)))
	case sfProbe:
		val, found := ctx.Get("v")
		ctx.SendEgress(m.Probe, sfProbeResp{Val: val, Found: found}.encode())
	}
	return nil
}

// txnHandler coordinates one op: gathers the declared snapshot (chunked
// across continuation rounds past the send budget), runs the body, and
// emits the writes (chunked the same way). Its scoped state (keyed by the
// reqID) holds the pending op, the scatter cursor, and the un-emitted
// writes between rounds.
func (c *statefunCell) txnHandler(ctx *statefun.Ctx, payload []byte) error {
	m, err := decodeSfMsg(payload)
	if err != nil {
		return err
	}
	switch m.Kind {
	case sfOp:
		op, ok := c.app.Op(m.Op)
		if !ok {
			return opError(c.app, m.Op)
		}
		keys := c.app.keysOf(op, m.Args)
		if len(keys) == 0 {
			return c.runBody(ctx, op, m.Args, nil)
		}
		ctx.Set("op", payload)
		ctx.Set("want", EncodeInt(int64(len(keys))))
		ctx.Set("got", EncodeInt(0))
		return c.scatterReads(ctx, keys, 0)
	case sfCont:
		// Continuation of the read scatter: recompute the declared key
		// set from the stored op and resume from the cursor.
		opRaw, ok := ctx.Get("op")
		if !ok {
			return nil // already completed (replayed continuation)
		}
		pending, err := decodeSfMsg(opRaw)
		if err != nil {
			return err
		}
		op, okOp := c.app.Op(pending.Op)
		if !okOp {
			return opError(c.app, pending.Op)
		}
		cursorRaw, _ := ctx.Get("next")
		return c.scatterReads(ctx, c.app.keysOf(op, pending.Args), int(DecodeInt(cursorRaw)))
	case sfResp:
		if m.Found {
			ctx.Set("val/"+m.Key, m.Val)
		}
		raw, _ := ctx.Get("got")
		got := DecodeInt(raw) + 1
		ctx.Set("got", EncodeInt(got))
		wantRaw, ok := ctx.Get("want")
		if !ok || got < DecodeInt(wantRaw) {
			return nil
		}
		opRaw, ok := ctx.Get("op")
		if !ok {
			return nil
		}
		pending, err := decodeSfMsg(opRaw)
		if err != nil {
			return err
		}
		op, okOp := c.app.Op(pending.Op)
		if !okOp {
			return opError(c.app, pending.Op)
		}
		snapshot := make(map[string][]byte)
		for _, k := range c.app.keysOf(op, pending.Args) {
			if v, found := ctx.Get("val/" + k); found {
				snapshot[k] = v
			}
			ctx.Del("val/" + k)
		}
		ctx.Del("op")
		ctx.Del("want")
		ctx.Del("got")
		ctx.Del("next")
		return c.runBody(ctx, op, pending.Args, snapshot)
	case sfFlush:
		// Continuation of the write emit: ship the next chunk of the
		// writes stored by the previous round.
		pendRaw, ok := ctx.Get("pend")
		if !ok {
			return nil // already flushed (replayed continuation)
		}
		writes, err := decodeSfWrites(pendRaw)
		if err != nil {
			return err
		}
		return c.emitWrites(ctx, writes)
	}
	return nil
}

// scatterReads sends read requests for keys[from:], reserving the last
// send slot for a SendSelf continuation when the remainder exceeds the
// invocation's budget. The cursor persists in scoped state so the
// continuation round resumes where this one stopped.
func (c *statefunCell) scatterReads(ctx *statefun.Ctx, keys []string, from int) error {
	n := len(keys) - from
	budget := ctx.SendsRemaining()
	chunked := n > budget
	if chunked {
		n = budget - 1
	}
	for _, k := range keys[from : from+n] {
		req := sfMsg{Kind: sfRead, Req: ctx.Self.ID, Key: k}
		if err := ctx.Send(statefun.Ref{Type: sfKeyFn, ID: k}, req.encode()); err != nil {
			return err
		}
	}
	if !chunked {
		return nil
	}
	ctx.Set("next", EncodeInt(int64(from+n)))
	return ctx.SendSelf(sfMsg{Kind: sfCont}.encode())
}

// emitWrites ships writes to the key functions, reserving the last send
// slot for a SendSelf continuation when the remainder exceeds the
// invocation's budget; the tail persists in scoped state until the flush
// round picks it up.
func (c *statefunCell) emitWrites(ctx *statefun.Ctx, writes []sfWrite) error {
	n := len(writes)
	budget := ctx.SendsRemaining()
	chunked := n > budget
	if chunked {
		n = budget - 1
	}
	for _, w := range writes[:n] {
		var msg sfMsg
		switch {
		case w.Set:
			msg = sfMsg{Kind: sfPut, Key: w.Key, Val: w.Val}
		case w.Push:
			msg = sfMsg{Kind: sfPush, Key: w.Key, ID: w.ID, Cap: w.Cap}
		default:
			msg = sfMsg{Kind: sfAdd, Key: w.Key, Delta: w.Delta}
		}
		if err := ctx.Send(statefun.Ref{Type: sfKeyFn, ID: w.Key}, msg.encode()); err != nil {
			return err
		}
	}
	if !chunked {
		// Final round: every write is in its key's partition log (the sends
		// above are exactly-once produces), so the result record emitted
		// here orders after them — a read submitted once the handle
		// resolves gathers a snapshot that includes this op's writes.
		ctx.Del("pend")
		res, _ := ctx.Get("res")
		ctx.Del("res")
		c.sendDone(ctx, res, nil)
		return nil
	}
	ctx.Set("pend", encodeSfWrites(writes[n:]))
	return ctx.SendSelf(sfMsg{Kind: sfFlush}.encode())
}

// runBody executes the body over the gathered snapshot and sends its
// writes to the key functions. Body errors drop the op — the honest
// dataflow failure mode — but the result record carries the error, so a
// Submit handle (unlike the fire-and-forget ingress append of old) learns
// about the drop.
func (c *statefunCell) runBody(ctx *statefun.Ctx, op Op, args []byte, snapshot map[string][]byte) error {
	tx := &sfTxn{snapshot: snapshot}
	result, err := op.Body(op.guard(tx), args)
	if err != nil {
		c.sendDone(ctx, nil, err)
		return nil
	}
	if op.ReadOnly {
		// A query is answered by the read-gather phase itself: the body ran
		// over the gathered snapshot and there is no write-emit round —
		// half the choreography's messages, and the key functions never
		// see the op. The result record is the answer.
		c.sendDone(ctx, result, nil)
		return nil
	}
	// The result rides in scoped state until the last write chunk ships:
	// a chunked emit finishes in a later "flush" invocation, and the
	// result record must order after every write.
	ctx.Set("res", result)
	return c.emitWrites(ctx, tx.writes)
}

// sendDone emits the choreography's result record on the egress. The txn
// function instance is keyed by the reqID, so Self.ID addresses the
// in-flight handle.
func (c *statefunCell) sendDone(ctx *statefun.Ctx, val []byte, err error) {
	out := sfDone{Val: val}
	if err != nil {
		out.Err = err.Error()
	}
	ctx.SendEgress(sfDonePrefix+ctx.Self.ID, out.encode())
}

// sfTxn runs a body over the choreography's gathered snapshot. Writes are
// buffered and shipped as messages after the body succeeds; Gets overlay
// the op's own writes on the snapshot.
type sfTxn struct {
	snapshot map[string][]byte
	writes   []sfWrite
}

// sfWrite is one buffered write. The write tail of a chunked emit round
// persists in the txn function's scoped state between invocations,
// encoded by encodeSfWrites.
type sfWrite struct {
	Key   string
	Set   bool
	Val   []byte
	Delta int64
	Push  bool
	ID    int64
	Cap   int
}

// sfWriteMinSize is the fewest bytes one encoded write takes: five
// one-byte fields and two one-byte length prefixes.
const sfWriteMinSize = 7

// encodeSfWrites is the wire form of a write tail: the write count, then
// each write's fields in declaration order.
func encodeSfWrites(ws []sfWrite) []byte {
	n := binary.MaxVarintLen64
	for _, w := range ws {
		n += len(w.Key) + len(w.Val) + 3*binary.MaxVarintLen64
	}
	b := binary.AppendUvarint(make([]byte, 0, n), uint64(len(ws)))
	for _, w := range ws {
		b = wire.AppendString(b, w.Key)
		b = wire.AppendBool(b, w.Set)
		b = wire.AppendBytes(b, w.Val)
		b = binary.AppendVarint(b, w.Delta)
		b = wire.AppendBool(b, w.Push)
		b = binary.AppendVarint(b, w.ID)
		b = binary.AppendVarint(b, int64(w.Cap))
	}
	return b
}

// decodeSfWrites parses an encoded write tail; Val fields alias b.
func decodeSfWrites(b []byte) ([]sfWrite, error) {
	d := wire.NewDecoder(b)
	ws := make([]sfWrite, d.Count(sfWriteMinSize))
	for i := range ws {
		ws[i] = sfWrite{
			Key:   d.String(),
			Set:   d.Bool(),
			Val:   d.Bytes(),
			Delta: d.Varint(),
			Push:  d.Bool(),
			ID:    d.Varint(),
			Cap:   int(d.Varint()),
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ws, nil
}

func (t *sfTxn) Get(key string) ([]byte, bool, error) {
	raw, found := t.snapshot[key]
	for _, w := range t.writes {
		if w.Key != key {
			continue
		}
		switch {
		case w.Set:
			raw, found = w.Val, true
		case w.Push:
			raw, found = EncodeIntList(mergeBounded(DecodeIntList(raw), w.ID, w.Cap)), true
		default:
			raw, found = EncodeInt(DecodeInt(raw)+w.Delta), true
		}
	}
	return raw, found, nil
}

func (t *sfTxn) Put(key string, value []byte) error {
	t.writes = append(t.writes, sfWrite{Key: key, Set: true, Val: value})
	return nil
}

func (t *sfTxn) Add(key string, delta int64) error {
	t.writes = append(t.writes, sfWrite{Key: key, Delta: delta})
	return nil
}

func (t *sfTxn) PushCap(key string, id int64, cap int) error {
	t.writes = append(t.writes, sfWrite{Key: key, Push: true, ID: id, Cap: cap})
	return nil
}

func (c *statefunCell) Model() ProgrammingModel { return StatefulDataflow }
func (c *statefunCell) App() *App               { return c.app }

func (c *statefunCell) Guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: false, ExactlyOnce: true,
		Note: "exactly-once processing; NO isolation across functions (§4.2) — ops settle eventually"}
}

// Submit appends the op to the ingress — acceptance, one produce hop —
// and the handle resolves when the choreography's result record lands on
// the egress: the body ran over its gathered snapshot and the final write
// chunk is durably in the key functions' partition logs. That is the
// cell's honest accept/apply gap, now visible as two latency numbers per
// request (E20). Per-key settlement of the writes still needs Settle;
// the guarantee is unchanged.
func (c *statefunCell) Submit(reqID, opName string, args []byte, tr *fabric.Trace) Handle {
	if _, ok := c.app.Op(opName); !ok {
		return resolvedHandle(nil, opError(c.app, opName))
	}
	h := newOpHandle()
	c.resMu.Lock()
	if prev, dup := c.resolvers[reqID]; dup {
		// A retry of an in-flight request joins it instead of stranding
		// the first handle: one choreography, one result record, every
		// caller resolved by it. (Retries of *completed* requests
		// re-execute — the cell has no result cache; its idempotence is
		// per message, not per request, which Guarantee reports.) The
		// retry's own produce hop is charged here; the result hop lands
		// on the first caller's trace, where the result record resolves.
		c.resMu.Unlock()
		tr.Charge(time.Millisecond / 2)
		return prev.h
	}
	if c.maxInflight > 0 && len(c.resolvers) >= c.maxInflight {
		// The acknowledged-not-yet-applied watermark is at its bound:
		// shed before the ingress produce, so the op never enters the
		// dataflow — nothing to un-apply, nothing for the auditor.
		depth := len(c.resolvers)
		c.resMu.Unlock()
		return shedHandle(StatefulDataflow, depth, time.Millisecond)
	}
	c.resolvers[reqID] = sfPending{h: h, tr: tr}
	c.resMu.Unlock()
	payload := sfMsg{Kind: sfOp, Req: reqID, Op: opName, Args: args}.encode()
	tr.Charge(time.Millisecond / 2) // acceptance: one produce hop
	if err := c.sf.SendToIngress(statefun.Ref{Type: sfTxnFn, ID: reqID}, payload); err != nil {
		c.resMu.Lock()
		delete(c.resolvers, reqID)
		c.resMu.Unlock()
		h.resolve(nil, err)
		return h
	}
	// Watchdog: a result record that never lands (the cell stopped, a
	// poison payload) must not hang the handle forever.
	go func() {
		timer := time.NewTimer(sfResultTimeout)
		defer timer.Stop()
		select {
		case <-h.done:
		case <-timer.C:
			c.resMu.Lock()
			delete(c.resolvers, reqID)
			c.resMu.Unlock()
			h.resolve(nil, errors.New("tca: statefun result timeout"))
		}
	}()
	return h
}

func (c *statefunCell) Invoke(reqID, opName string, args []byte, tr *fabric.Trace) ([]byte, error) {
	return c.Submit(reqID, opName, args, tr).Result()
}

// Read settles, then probes the key function's scoped state through the
// egress.
func (c *statefunCell) Read(key string) ([]byte, bool, error) {
	if err := c.Settle(); err != nil {
		return nil, false, err
	}
	return c.Peek(key)
}

// Peek reads a key without settling — the dirty read an external observer
// performs mid-flight (experiment E7).
func (c *statefunCell) Peek(key string) ([]byte, bool, error) {
	probe := fmt.Sprintf("probe-%d", c.probeSeq.Add(1))
	ch := make(chan sfProbeResp, 1)
	c.mu.Lock()
	c.probes[probe] = ch
	c.mu.Unlock()
	msg := sfMsg{Kind: sfProbe, Probe: probe}.encode()
	if err := c.sf.SendToIngress(statefun.Ref{Type: sfKeyFn, ID: key}, msg); err != nil {
		return nil, false, err
	}
	select {
	case resp := <-ch:
		return resp.Val, resp.Found, nil
	case <-time.After(5 * time.Second):
		return nil, false, errors.New("tca: statefun read probe timeout")
	}
}

func (c *statefunCell) Settle() error { return c.sf.WaitIdle(10 * time.Second) }
func (c *statefunCell) Close()        { c.sf.Stop() }

// StatefunRuntime returns the eventual cell's underlying statefun app —
// the checkpoint and crash/recover control surface — or nil for any
// other cell, the dataflow counterpart of CoreRuntime.
func StatefunRuntime(c Cell) *statefun.App {
	if sc, ok := c.(*statefunCell); ok {
		return sc.sf
	}
	return nil
}
