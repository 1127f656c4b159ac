package tca

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/fabric"
	"tca/internal/grid"
	"tca/internal/workload"
)

// The one driver behind E20, E21, E23 and E24: drive offers a mix's op stream to a
// deployed target — a cell, or a replica group — under a closed or an
// open loop, with the mix's Auditor running live inside the loop: Record
// at submission, Observe (plus a bounded live-value sample) as each
// handle resolves, and the precedence-graph Verify on the settled target.
// Every run returns one driveResult, which becomes a grid.Sample in one
// place.

// harnessCell is the cell configuration every driven experiment deploys:
// 32 core workers and the modeled 80µs durable append that the
// deterministic cell's group appends amortize.
var harnessCell = Options{Workers: 32, SequenceDelay: 80 * time.Microsecond}

// deployMix deploys mix's App under model with harnessCell plus the row's
// worker pool (Options.Clients) and queue bound (Options.MaxPending).
// durable backs the deterministic cell with a real write-ahead log in a
// throwaway directory, whose append+fsync replaces the modeled append;
// other models ignore it. The returned func closes the cell and removes
// the directory.
func deployMix(mixName string, model ProgrammingModel, clients, maxPending int, durable bool) (Cell, func(), error) {
	m, err := lookupMix(mixName)
	if err != nil {
		return nil, nil, err
	}
	opts := harnessCell
	opts.Clients, opts.MaxPending = clients, maxPending
	if durable && model == Deterministic {
		if opts.LogDir, err = os.MkdirTemp("", "tca-cell-"); err != nil {
			return nil, nil, err
		}
	}
	cell, err := DeployWith(model, m.app(), NewEnv(1, 3), opts)
	if err != nil {
		os.RemoveAll(opts.LogDir)
		return nil, nil, err
	}
	return cell, func() { cell.Close(); os.RemoveAll(opts.LogDir) }, nil
}

// target is what drive submits to: a deployed cell, or a replica group
// whose ReadOnly ops go through Query under read. A group's latencies
// are modeled (fabric-trace) time, so its rows are machine-independent.
type target struct {
	cell  Cell
	group *ReplicaGroup
	read  ReadMode
}

// regions returns one Cell per region to submit at: the cell itself, or
// each region of the group.
func (t target) regions() []Cell {
	if t.group == nil {
		return []Cell{t.cell}
	}
	out := make([]Cell, t.group.Regions())
	for r := range out {
		out[r] = regionCell{g: t.group, origin: r, read: t.read}
	}
	return out
}

// regionCell is the Cell view of one region of a replica group, so
// Sessions and the open loop drive a group exactly as they drive a cell:
// writes go through the group's Submit at the region, ReadOnly ops
// through Query under the read mode, and Settle drains the whole group.
type regionCell struct {
	g      *ReplicaGroup
	origin int
	read   ReadMode
}

func (c regionCell) Model() ProgrammingModel { return c.g.CellAt(c.origin).Model() }
func (c regionCell) Guarantee() Guarantee    { return c.g.CellAt(c.origin).Guarantee() }
func (c regionCell) App() *App               { return c.g.app }

func (c regionCell) Submit(reqID, opName string, args []byte, tr *fabric.Trace) Handle {
	if op, ok := c.g.app.Op(opName); ok && op.ReadOnly {
		h := newOpHandle()
		go func() { h.resolve(c.g.Query(c.origin, c.read, reqID, opName, args, tr)) }()
		return h
	}
	return c.g.Submit(c.origin, reqID, opName, args, tr)
}

func (c regionCell) Invoke(reqID, opName string, args []byte, tr *fabric.Trace) ([]byte, error) {
	return c.Submit(reqID, opName, args, tr).Result()
}

func (c regionCell) Read(key string) ([]byte, bool, error) { return c.g.ReadLocal(c.origin, key) }
func (c regionCell) Settle() error                         { return c.g.Drain() }

// Close is a no-op: the group belongs to whoever deployed it.
func (c regionCell) Close() {}

// load is the offered load: exactly one of clients (closed loop) and
// arrivals (open loop) is set.
type load struct {
	// ops is the exact number of submissions the run issues.
	ops int
	// seed varies the op streams and the reservoirs' sampling: stream k
	// (closed-loop session k, or the open loop's region k) is seeded
	// 100 + seed·1e6 + k, so repeat streams stay disjoint.
	seed int64
	// clients runs a closed loop: that many pipelined Sessions per region
	// (MaxInFlight 8); of the n sessions, session k submits ops k, k+n,
	// k+2n, … back to back.
	clients int
	// arrivals runs an open loop: ops arrivals on this schedule,
	// round-robin across regions, each submitted straight to the cell
	// with no retries and timed from its scheduled instant.
	arrivals workload.ArrivalProcess
}

// driveResult is one driven run.
type driveResult struct {
	model ProgrammingModel
	// issued counts submissions. Each ends completed, rejected (an abort
	// the App asked for: an empty cart, an overdraft), shed
	// (ErrOverloaded, after any Session retries) or failed (any other
	// error).
	issued, rejected, shed, failed int64
	// elapsed spans the first submission to the settled (drained) target.
	elapsed time.Duration
	// offered is the open loop's arrival rate; zero on a closed loop.
	offered float64
	// accept runs from submission (closed loop) or the scheduled arrival
	// (open loop) to Submit's return, apply from the same origin to the
	// handle resolving; shed ops record no apply time.
	accept, apply *workload.LatencyReservoir
	// read and write are a group's modeled (fabric-trace) query and
	// write latencies; nil on a cell.
	read, write *workload.LatencyReservoir
	// audited reports the auditor ran; anomalies is its final verdict.
	audited   bool
	anomalies []string
	audit     AuditStats
	// txnExhausted is the actor cell's actor.txn_exhausted.
	txnExhausted int64
	// staleness is a group's replication-lag probe.
	staleness StalenessStats
	// diverged lists the keys on which an async group's replicas still
	// disagree after drain (must be empty).
	diverged []string
}

func (r driveResult) completed() int64 { return r.issued - r.rejected - r.shed - r.failed }

// throughput returns completed ops per second of the run.
func (r driveResult) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.completed()) / r.elapsed.Seconds()
}

// sample converts the run into its grid row: throughput, the latency
// reservoirs (a group's modeled read/write latencies in place of
// accept/apply), and the counters as extras.
func (r driveResult) sample() grid.Sample {
	acc, app, an, pn := r.accept, r.apply, "accept", "apply"
	if r.read != nil {
		acc, app, an, pn = r.read, r.write, "read", "write"
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	s := grid.Sample{Throughput: r.throughput(), Accept: acc.Samples(), Apply: app.Samples(), Extra: map[string]float64{
		an + "_p50_us":  us(acc.P50()),
		pn + "_p50_us":  us(app.P50()),
		an + "_p999_us": us(acc.P999()),
		pn + "_p999_us": us(app.P999()),
		"rejected":      float64(r.rejected),
		"failed":        float64(r.failed),
		"shed_pct":      100 * float64(r.shed) / float64(r.issued),
	}}
	if r.offered > 0 {
		s.Extra["offered_s"] = r.offered
	}
	if r.model == Actors {
		s.Extra["txn_exhausted"] = float64(r.txnExhausted)
	}
	if r.audited {
		s.Extra["anomalies"] = float64(len(r.anomalies))
		s.Extra["violations"] = float64(r.audit.LiveViolations)
		s.Extra["reordered"] = float64(r.audit.Reordered)
		s.Extra["graph_cycles"] = float64(r.audit.GraphCycles)
	}
	if r.read != nil {
		s.Extra["max_lag_ms"] = float64(r.staleness.MaxLag) / 1e6
		s.Extra["lag_txns"] = float64(r.staleness.MaxLagTxns)
		s.Extra["shipped_writes"] = float64(r.staleness.ShippedWrites)
	}
	return s
}

// drive runs mix against t under load l, auditing live when audit is set,
// then settles (drains) the target and verifies it. The eventual cell's
// failed ops are observed like completed ones (an accepted op is
// exactly-once in its ingress and applies even when its handle reports a
// drop or timeout); every other cell observes completed ops only, and a
// shed op never reaches the reference on any cell.
func drive(t target, mixName string, audit bool, l load) (driveResult, error) {
	m, err := lookupMix(mixName)
	switch {
	case err != nil:
		return driveResult{}, err
	case l.ops <= 0:
		return driveResult{}, fmt.Errorf("tca: drive needs ops > 0 (got %d)", l.ops)
	case (l.clients > 0) == (l.arrivals != nil):
		return driveResult{}, errors.New("tca: drive needs exactly one of clients > 0 and arrivals")
	case l.arrivals != nil && !(l.arrivals.Rate() > 0):
		return driveResult{}, fmt.Errorf("tca: drive needs a positive arrival rate (got %g)", l.arrivals.Rate())
	}
	regions := t.regions()
	// The auditor verifies the cell itself, or the group's home replica.
	verified := t.cell
	if t.group != nil {
		verified = t.group.CellAt(t.group.Home())
	}
	var aud Auditor
	var live liveKeyer
	if audit {
		aud = m.auditor()
		defer aud.Close()
		live, _ = aud.(liveKeyer)
	}
	if m.init != nil {
		if err := m.init(regions[0], aud); err != nil {
			return driveResult{}, err
		}
	}

	res := driveResult{
		model:  regions[0].Model(),
		issued: int64(l.ops),
		accept: workload.NewLatencyReservoir(8192, l.seed),
		apply:  workload.NewLatencyReservoir(8192, l.seed+1),
	}
	if t.group != nil {
		res.read = workload.NewLatencyReservoir(8192, l.seed+2)
		res.write = workload.NewLatencyReservoir(8192, l.seed+3)
	}
	if l.arrivals != nil {
		res.offered = l.arrivals.Rate()
	}
	app := regions[0].App()
	var rejected, shed, failed, auditSeq atomic.Int64
	var inflight sync.WaitGroup

	// finish classifies one resolved handle, records its latencies and
	// keeps the auditor's intent set exact.
	finish := func(h Handle, auditID, name string, args []byte, origin time.Time, tr *fabric.Trace) {
		<-h.Done()
		_, opErr := h.Result()
		switch {
		case opErr == nil:
		case errors.Is(opErr, ErrOverloaded):
			// A shed op never entered any cell's pipeline.
			shed.Add(1)
			if aud != nil {
				aud.Discard(auditID)
			}
			return
		case isBusinessAbort(opErr):
			rejected.Add(1)
		default:
			failed.Add(1)
		}
		res.apply.Record(time.Since(origin))
		if tr != nil {
			if op, ok := app.Op(name); ok && op.ReadOnly {
				res.read.Record(tr.Total())
			} else {
				res.write.Record(tr.Total())
			}
		}
		if aud == nil {
			return
		}
		if opErr != nil && res.model != StatefulDataflow {
			aud.Discard(auditID)
			return
		}
		var sample map[string][]byte
		if live != nil {
			for _, k := range live.LiveKeys(name, args) {
				if v, found := livePeek(verified, k); found {
					if sample == nil {
						sample = make(map[string][]byte, auditLiveKeyCap)
					}
					sample[k] = v
				}
			}
		}
		var seq int64
		if sh, ok := h.(interface{ Seq() int64 }); ok {
			// The deterministic core (and the global sequencer) stamp
			// results with their log position: the verdict replays
			// components in the actual commit order instead of searching
			// for one.
			seq = sh.Seq()
		}
		aud.Observe(Commit{ReqID: auditID, Op: name, Args: args, Start: origin, End: time.Now(), Live: sample, Seq: seq})
	}
	// record declares one op's intent to the auditor, under its own id.
	record := func(name string, args []byte) string {
		if aud == nil {
			return ""
		}
		id := fmt.Sprintf("a/%d", auditSeq.Add(1))
		aud.Record(id, name, args)
		return id
	}
	// start submits one op through send, times its acceptance from
	// origin and resolves its handle in the background; async moves the
	// send itself off the caller's goroutine.
	start := func(auditID, name string, args []byte, origin time.Time, async bool, send func(*fabric.Trace) Handle) {
		var tr *fabric.Trace
		if t.group != nil {
			tr = fabric.NewTrace()
		}
		submit := func() Handle {
			h := send(tr)
			res.accept.Record(time.Since(origin))
			return h
		}
		inflight.Add(1)
		if async {
			go func() {
				defer inflight.Done()
				finish(submit(), auditID, name, args, origin, tr)
			}()
			return
		}
		h := submit()
		go func() {
			defer inflight.Done()
			finish(h, auditID, name, args, origin, tr)
		}()
	}

	begin := time.Now()
	if l.clients > 0 {
		n := len(regions) * l.clients
		var wg sync.WaitGroup
		for k := 0; k < n; k++ {
			sess := NewSession(regions[k/l.clients], fmt.Sprintf("s%d/c%d", l.seed, k), SessionOptions{MaxInFlight: 8})
			next := m.stream(streamSeed(l.seed, k))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := k; i < l.ops; i += n {
					name, args := next()
					id := record(name, args)
					start(id, name, args, time.Now(), false, func(tr *fabric.Trace) Handle {
						return sess.Submit(name, args, tr)
					})
				}
			}()
		}
		wg.Wait()
	} else {
		streams := make([]func() (string, []byte), len(regions))
		for r := range streams {
			streams[r] = m.stream(streamSeed(l.seed, r))
		}
		next := begin
		for i := 0; i < l.ops; i++ {
			next = next.Add(l.arrivals.Gap())
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			c := regions[i%len(regions)]
			name, args := streams[i%len(regions)]()
			reqID := fmt.Sprintf("ol/%d", i)
			id := record(name, args)
			start(id, name, args, next, !submitsInline(c), func(tr *fabric.Trace) Handle {
				return c.Submit(reqID, name, args, tr)
			})
		}
	}
	inflight.Wait()
	if err := regions[0].Settle(); err != nil {
		return driveResult{}, err
	}
	res.elapsed = time.Since(begin)
	res.rejected, res.shed, res.failed = rejected.Load(), shed.Load(), failed.Load()

	if ac, ok := t.cell.(*actorCell); ok {
		res.txnExhausted = ac.sys.Metrics().Counter("actor.txn_exhausted").Value()
	}
	if t.group != nil {
		res.staleness = t.group.Staleness()
		if so, ok := aud.(interface{ ObserveStaleness(StalenessStats) }); ok {
			// AuditStats carries the probe alongside the anomaly counters.
			so.ObserveStaleness(res.staleness)
		}
	}
	if aud != nil {
		if res.anomalies, err = aud.Verify(verified); err != nil {
			return driveResult{}, err
		}
		res.audited, res.audit = true, aud.Stats()
	}
	if t.group != nil && t.group.Mode() == AsyncReplication && t.group.Regions() > 1 {
		if m.keys == nil {
			return driveResult{}, fmt.Errorf("tca: mix %q has no key universe to check convergence on", mixName)
		}
		res.diverged = t.group.divergedKeys(m.keys)
	}
	return res, nil
}

// streamSeed seeds op stream k of a run under seed.
func streamSeed(seed int64, k int) int64 { return 100 + seed*1_000_000 + int64(k) }

// submitsInline reports whether the open loop calls c.Submit from its
// pacing loop. A bounded queue makes Submit's verdict ~immediate (a token
// or a shed), so the loop submits inline — which is also what lets a
// backlog actually accumulate against the bound instead of being drained
// by the scheduler between arrivals — and only the await runs
// concurrently. Otherwise each arrival submits from its own goroutine: a
// legacy unbounded queue blocks the submitter when full, and the open
// loop must keep offering regardless (the goroutine pile is the unbounded
// queue, its blocked time lands in the accept tail). The deterministic
// cell always takes that path: its Submit return is the durable ack,
// whose cost amortizes only across concurrent submitters (group appends),
// while its admission verdict already fires at the bounded batch queue
// before the ack wait parks.
func submitsInline(c Cell) bool {
	switch c := c.(type) {
	case *microCell:
		return c.pool.tokens != nil
	case *actorCell:
		return c.pool.tokens != nil
	case *faasCell:
		return c.pool.tokens != nil
	case *statefunCell:
		return c.maxInflight > 0
	case regionCell:
		return submitsInline(c.g.CellAt(c.origin))
	}
	return false
}

// isBusinessAbort reports whether err is an abort an App asks for. The
// deterministic core reports them wrapped in a string ("core: transaction
// aborted: ..."), so they match by message as well as by identity.
func isBusinessAbort(err error) bool {
	for _, b := range []error{ErrEmptyCart, ErrInsufficientFunds} {
		if errors.Is(err, b) || strings.HasSuffix(err.Error(), ": "+b.Error()) {
			return true
		}
	}
	return false
}

// livePeek reads a key for the auditor's live sample without settling the
// cell: the dataflow cell exposes its dirty Peek, every other cell's Read
// serves committed state directly.
func livePeek(c Cell, key string) ([]byte, bool) {
	read := c.Read
	if sc, ok := c.(*statefunCell); ok {
		read = sc.Peek
	}
	raw, found, err := read(key)
	return raw, found && err == nil
}

// liveKeyer is the optional auditor surface the harness samples for.
type liveKeyer interface {
	LiveKeys(op string, args []byte) []string
}

// divergedKeys returns every key on which any replica disagrees with
// region 0, in "key: region i = x, region 0 = y" form. Empty means the
// group converged exactly.
func (g *ReplicaGroup) divergedKeys(universe []string) []string {
	var diffs []string
	for _, key := range universe {
		base, baseFound, err := g.ReadLocal(0, key)
		if err != nil {
			diffs = append(diffs, fmt.Sprintf("%s: read failed at region 0: %v", key, err))
			continue
		}
		for r := 1; r < g.Regions(); r++ {
			got, found, err := g.ReadLocal(r, key)
			switch {
			case err != nil:
				diffs = append(diffs, fmt.Sprintf("%s: read failed at region %d: %v", key, r, err))
			case found != baseFound || string(got) != string(base):
				diffs = append(diffs, fmt.Sprintf("%s: region %d = %q (found=%v), region 0 = %q (found=%v)",
					key, r, got, found, base, baseFound))
			}
		}
	}
	return diffs
}
