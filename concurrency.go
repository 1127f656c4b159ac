package tca

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/metrics"
	"tca/internal/workload"
)

// The E20/E21 concurrency drivers, shared by the bench suite and
// cmd/tcabench so the two surfaces can never report different numbers for
// the same experiment: one cell = one (mix, model, clients) triple,
// driven through pipelined client Sessions by workload.ClosedLoop, with
// the workload's Auditor running live inside the loop — Record at
// submission, Observe (plus a bounded live-value sample) as each handle
// resolves, and the precedence-graph Verify on the settled cell.

// ConcurrencyMixes are the workloads the E20 matrix sweeps: the TPC-C
// NewOrder/Payment mix (non-commutative stock writes — the order verdict
// separates real anomalies from reorder noise) and the social
// compose-post mix (fully commutative — any divergence is a delivery
// failure).
var ConcurrencyMixes = []string{"tpcc", "social"}

// AuditedMixes are the workloads the E21 live-audit-overhead sweep
// drives: every first-class App, each under its incremental Auditor.
// "market-res" is the reservation-style marketplace (ROADMAP 4b) —
// identical op mix to "market", restructured so commutativity and
// unique key ownership replace isolation; "booking" and "ledger" are
// the example programs promoted to first-class audited mixes.
var AuditedMixes = []string{"bank", "tpcc", "market", "market-res", "booking", "ledger", "social"}

// ConcurrencyOptions tunes one concurrency-cell run.
type ConcurrencyOptions struct {
	// Audit runs the workload's Auditor live inside the loop and the
	// final precedence-graph Verify. Off measures the raw harness.
	Audit bool
	// LogDir, when set and the model is Deterministic, backs the cell with
	// a real durable write-ahead log (Options.LogDir) in a fresh
	// subdirectory of LogDir, removed when the run ends — so repeated runs
	// (a benchmark growing b.N) never replay a previous run's log. The
	// modeled SequenceDelay is then not charged; the log's own append+fsync
	// cost is the measured accept latency. Other models ignore it.
	LogDir string
	// Seed varies the clients' op streams and the reservoirs' sampling
	// deterministically — the knob grid repeats turn. Zero reproduces the
	// historical fixed streams (client c seeded 100+c), so existing
	// callers and baselines are unchanged; seed s ≠ 0 gives client c the
	// stream seed 100 + s·1e6 + c, keeping repeat streams disjoint.
	Seed int64
}

// ConcurrencyResult is one cell of the concurrency matrix.
type ConcurrencyResult struct {
	// Issued counts submissions; Rejected those whose handles resolved
	// with an error (business aborts, exhausted 2PL retries, sheds the
	// session's retry budget could not absorb).
	Issued, Rejected int64
	// Shed counts the Rejected subset that failed with ErrOverloaded
	// after the session exhausted its retry budget.
	Shed int64
	// Elapsed spans first submission to settled state.
	Elapsed time.Duration
	// AcceptP50 is the median Session.Submit-to-acknowledgment time,
	// ApplyP50 the median Submit-to-Handle-resolution time — the per-cell
	// accept/apply split. The P99s are the same distributions' tails,
	// from a bounded reservoir.
	AcceptP50, ApplyP50 time.Duration
	AcceptP99, ApplyP99 time.Duration
	// Anomalies are the final divergences the order verdict could not
	// attribute to any serializable completion order.
	Anomalies []string
	// Violations counts live delta-constraint hits during the run
	// (negative stock, overdrafts — sampled at apply time).
	Violations int
	// Reordered counts final mismatches a legal reordering of racing
	// commits explains — the false positives a completion-order audit
	// would have reported, suppressed by the precedence-graph verdict.
	Reordered int
	// GraphCycles counts conflict components whose settled values are
	// explainable only by an order contradicting real-time precedence.
	GraphCycles int
	// Audited reports whether the auditor ran.
	Audited bool
	// TxnExhausted counts the actor cell's transactions that ran out of
	// wound-wait restarts (actor.txn_exhausted); zero on other models.
	TxnExhausted int64
	// AcceptSamples and ApplySamples are the bounded reservoirs' retained
	// sample sets, exported so grid repeats can pool their tails.
	AcceptSamples, ApplySamples []time.Duration
}

// Throughput returns applied (accepted and not rejected) ops per second.
func (r ConcurrencyResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Issued-r.Rejected) / r.Elapsed.Seconds()
}

// concClient is one simulated user: a Session on the cell plus its own
// seeded stream. ClosedLoop's shared op closure checks a client out of a
// pool, so each driver goroutine effectively owns one.
type concClient struct {
	sess *Session
	next func() (name string, args []byte)
}

// mixApp returns the App behind one concurrency mix.
func mixApp(mix string) (*App, error) {
	switch mix {
	case "bank":
		return BankApp(), nil
	case "tpcc":
		return TPCCApp(), nil
	case "market":
		return MarketApp(), nil
	case "market-res":
		return MarketAppReserved(), nil
	case "booking":
		return BookingApp(), nil
	case "ledger":
		return LedgerApp(), nil
	case "social":
		return SocialApp(), nil
	default:
		return nil, fmt.Errorf("tca: unknown concurrency mix %q", mix)
	}
}

// newMixAuditor returns the mix's incremental Auditor.
func newMixAuditor(mix string) Auditor {
	switch mix {
	case "bank":
		return NewBankAuditor()
	case "tpcc":
		return NewTPCCAuditor()
	case "market":
		return NewMarketAuditor()
	case "market-res":
		return NewMarketReservedAuditor()
	case "booking":
		return NewBookingAuditor()
	case "ledger":
		return NewLedgerAuditor()
	default:
		return NewSocialAuditor()
	}
}

// bankMixAccounts and bankMixBalance size the bank mix: enough seeded
// balance that the uniform transfer stream never legitimately overdrafts,
// so any overdraft or conservation hit is the cell's doing.
const (
	bankMixAccounts = 64
	bankMixBalance  = 1_000_000
)

// mixStream returns one client's seeded op stream for a mix.
func mixStream(mix string, seed int64) func() (string, []byte) {
	switch mix {
	case "bank":
		gen := workload.NewBank(seed, bankMixAccounts, 0.1)
		return func() (string, []byte) {
			op := gen.Next()
			args, _ := json.Marshal(bankTransferArgs{From: op.From, To: op.To, Amount: op.Amount})
			return "transfer", args
		}
	case "tpcc":
		gen := workload.NewTPCC(seed, workload.DefaultTPCCConfig(4))
		return func() (string, []byte) {
			op := gen.Next()
			args, _ := json.Marshal(op)
			return tpccOpName(op), args
		}
	case "market":
		cfg := workload.DefaultMarketConfig()
		cfg.Users, cfg.Products = 256, 64
		cfg.ZipfS = 1.3
		gen := workload.NewMarket(seed, cfg)
		return func() (string, []byte) {
			op := gen.Next()
			args, _ := json.Marshal(op)
			return marketOpName(op), args
		}
	case "market-res":
		// The same mix shape as "market" — only the reservation
		// bookkeeping (ids, quotes, claims) differs, so the reserved row
		// is comparable to the tolerate-the-drift row next to it.
		cfg := workload.DefaultMarketConfig()
		cfg.Users, cfg.Products = 256, 64
		cfg.ZipfS = 1.3
		gen := workload.NewReservedMarket(seed, cfg)
		return func() (string, []byte) {
			op := gen.Next()
			args, _ := json.Marshal(op)
			return marketOpName(op), args
		}
	case "booking":
		gen := workload.NewBooking(seed, 64, 8, 8, 0.1, 0.2)
		return func() (string, []byte) {
			op := gen.Next()
			args, _ := json.Marshal(op)
			return bookingOpName(op), args
		}
	case "ledger":
		gen := workload.NewLedger(seed, 32, 0.15)
		return func() (string, []byte) {
			op := gen.Next()
			args, _ := json.Marshal(op)
			return ledgerOpName(op), args
		}
	default:
		gen := workload.NewSocial(seed, 128, 16)
		return func() (string, []byte) {
			op := gen.Next()
			args, _ := json.Marshal(op)
			return SocialOpName(op), args
		}
	}
}

// seedMix prepares a mix's initial state on the cell and, when auditing,
// folds the same seeding into the auditor's reference. Only the bank
// needs it: accounts start funded so transfers never legitimately abort.
func seedMix(mix string, cell Cell, aud Auditor) error {
	if mix != "bank" {
		return nil
	}
	for acct := 0; acct < bankMixAccounts; acct++ {
		args, _ := json.Marshal(bankDepositArgs{Account: acct, Amount: bankMixBalance})
		reqID := fmt.Sprintf("seed/%d", acct)
		if _, err := cell.Invoke(reqID, "deposit", args, nil); err != nil {
			return err
		}
		if aud != nil {
			aud.Record(reqID, "deposit", args)
			aud.Observe(Commit{ReqID: reqID})
		}
	}
	return cell.Settle()
}

// livePeek reads a key for the auditor's live sample without settling the
// cell: the dataflow cell exposes its dirty Peek, every other cell's Read
// serves committed state directly.
func livePeek(c Cell, key string) ([]byte, bool) {
	if sc, ok := c.(*statefunCell); ok {
		raw, found, err := sc.Peek(key)
		if err != nil {
			return nil, false
		}
		return raw, found
	}
	raw, found, err := c.Read(key)
	if err != nil {
		return nil, false
	}
	return raw, found
}

// liveKeyer is the optional auditor surface the harness samples for.
type liveKeyer interface {
	LiveKeys(op string, args []byte) []string
}

// RunConcurrencyCell is RunConcurrencyCellOpts with live auditing on and
// the deterministic cell on the real durable log (a per-run directory under
// the OS temp dir) — the E20 configuration.
func RunConcurrencyCell(mix string, model ProgrammingModel, clients, ops int) (ConcurrencyResult, error) {
	return RunConcurrencyCellOpts(mix, model, clients, ops, ConcurrencyOptions{Audit: true, LogDir: os.TempDir()})
}

// RunConcurrencyCellOpts deploys the mix's App under model and drives it
// with `clients` pipelined Sessions for ~ops total submissions. The cell
// gets Options.Clients = clients (the sync cells' worker pool), 32 core
// workers, and the modeled 80µs durable-append latency — what the
// deterministic cell's group appends amortize; with ConcurrencyOptions
// .LogDir set, the deterministic cell runs on a real write-ahead log
// instead and the measured append+fsync cost replaces the model (the E20
// configuration). With auditing on,
// the mix's Auditor runs live inside the loop: each submission is
// Recorded, each resolved handle is Observed in completion order together
// with a bounded sample of live cell values for the delta constraint
// checks, and the settled cell gets the precedence-graph Verify — so
// non-commutative mixes audit exactly instead of reporting reorder noise.
// The eventual cell observes unconditionally (an accepted op is
// exactly-once in the ingress and applies even if its handle reports a
// drop or timeout); every other cell observes applied ops only — the same
// baseline rule as E17/E18/E19.
func RunConcurrencyCellOpts(mix string, model ProgrammingModel, clients, ops int, copts ConcurrencyOptions) (ConcurrencyResult, error) {
	env := NewEnv(1, 3)
	opts := Options{Clients: clients, Workers: 32, SequenceDelay: 80 * time.Microsecond}
	if copts.LogDir != "" && model == Deterministic {
		dir, err := os.MkdirTemp(copts.LogDir, "cell-")
		if err != nil {
			return ConcurrencyResult{}, err
		}
		defer os.RemoveAll(dir)
		opts.LogDir = dir
	}
	app, err := mixApp(mix)
	if err != nil {
		return ConcurrencyResult{}, err
	}
	cell, err := DeployWith(model, app, env, opts)
	if err != nil {
		return ConcurrencyResult{}, err
	}
	defer cell.Close()

	var aud Auditor
	var live liveKeyer
	if copts.Audit {
		aud = newMixAuditor(mix)
		defer aud.Close()
		live, _ = aud.(liveKeyer)
	}
	if err := seedMix(mix, cell, aud); err != nil {
		return ConcurrencyResult{}, err
	}

	pool := make(chan *concClient, clients)
	for c := 0; c < clients; c++ {
		streamSeed := int64(100 + c)
		sessID := fmt.Sprintf("c%d", c)
		if copts.Seed != 0 {
			streamSeed = 100 + copts.Seed*1_000_000 + int64(c)
			sessID = fmt.Sprintf("s%d/c%d", copts.Seed, c)
		}
		pool <- &concClient{
			sess: NewSession(cell, sessID, SessionOptions{MaxInFlight: 8}),
			next: mixStream(mix, streamSeed),
		}
	}

	acceptHist, applyHist := metrics.NewHistogram(), metrics.NewHistogram()
	acceptRes := workload.NewLatencyReservoir(0, copts.Seed*2+1)
	applyRes := workload.NewLatencyReservoir(0, copts.Seed*2+2)
	var rejected, shed atomic.Int64
	var auditSeq atomic.Int64
	var inflight sync.WaitGroup
	start := time.Now()
	res := workload.ClosedLoop(clients, ops/clients+1, 0, func() error {
		cl := <-pool
		defer func() { pool <- cl }()
		name, args := cl.next()
		var auditID string
		if aud != nil {
			auditID = fmt.Sprintf("a/%d", auditSeq.Add(1))
			aud.Record(auditID, name, args)
		}
		t0 := time.Now()
		h := cl.sess.Submit(name, args, nil)
		d := time.Since(t0)
		acceptHist.RecordDuration(d)
		acceptRes.Record(d)
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			<-h.Done()
			d := time.Since(t0)
			applyHist.RecordDuration(d)
			applyRes.Record(d)
			_, opErr := h.Result()
			if opErr != nil {
				rejected.Add(1)
				if errors.Is(opErr, ErrOverloaded) {
					shed.Add(1)
				}
			}
			if aud == nil {
				return
			}
			// A shed op never entered any cell's pipeline — discard its
			// intent on every model, including the eventual cell whose
			// accepted errors otherwise still apply.
			if opErr != nil && (model != StatefulDataflow || errors.Is(opErr, ErrOverloaded)) {
				aud.Discard(auditID)
				return
			}
			var sample map[string][]byte
			if live != nil {
				for _, k := range live.LiveKeys(name, args) {
					if v, found := livePeek(cell, k); found {
						if sample == nil {
							sample = make(map[string][]byte, auditLiveKeyCap)
						}
						sample[k] = v
					}
				}
			}
			var seq int64
			if sh, ok := h.(interface{ Seq() int64 }); ok {
				// The deterministic core stamps results with their log
				// position: the verdict replays components in the cell's
				// actual commit order instead of searching for one.
				seq = sh.Seq()
			}
			aud.Observe(Commit{ReqID: auditID, Op: name, Args: args, Start: t0, End: time.Now(), Live: sample, Seq: seq})
		}()
		return nil
	})
	inflight.Wait()
	if err := cell.Settle(); err != nil {
		return ConcurrencyResult{}, err
	}
	elapsed := time.Since(start)
	out := ConcurrencyResult{
		Issued:        res.Issued,
		Rejected:      rejected.Load(),
		Shed:          shed.Load(),
		Elapsed:       elapsed,
		AcceptP50:     time.Duration(acceptHist.Snapshot().P50),
		ApplyP50:      time.Duration(applyHist.Snapshot().P50),
		AcceptP99:     acceptRes.P99(),
		ApplyP99:      applyRes.P99(),
		AcceptSamples: acceptRes.Samples(),
		ApplySamples:  applyRes.Samples(),
	}
	if ac, ok := cell.(*actorCell); ok {
		out.TxnExhausted = ac.sys.Metrics().Counter("actor.txn_exhausted").Value()
	}
	if aud != nil {
		anomalies, err := aud.Verify(cell)
		if err != nil {
			return ConcurrencyResult{}, err
		}
		stats := aud.Stats()
		out.Anomalies = anomalies
		out.Violations = stats.LiveViolations
		out.Reordered = stats.Reordered
		out.GraphCycles = stats.GraphCycles
		out.Audited = true
	}
	return out, nil
}

// MeasureCellCapacity estimates one (mix, model) cell's peak closed-loop
// throughput: 16 pipelined clients, auditing off, the deterministic cell
// on a real temp-dir log. The E23 sweep offers multiples of this number.
func MeasureCellCapacity(mix string, model ProgrammingModel, ops int) (float64, error) {
	r, err := RunConcurrencyCellOpts(mix, model, 16, ops, ConcurrencyOptions{LogDir: os.TempDir()})
	if err != nil {
		return 0, err
	}
	return r.Throughput(), nil
}

// OverloadOptions tunes one open-loop overload run.
type OverloadOptions struct {
	// Shed enables admission control: the cell runs with a tight bounded
	// queue (Options.MaxPending = 64) and rejects excess load with
	// ErrOverloaded. Off (false) disables the bounds (MaxPending = -1) —
	// the pre-admission-control behavior, where overload queues without
	// limit instead of shedding.
	Shed bool
	// Audit runs the mix's Auditor live during the overload run and the
	// final precedence-graph Verify — the conformance configuration: a
	// shed op must never surface as an anomaly or violation.
	Audit bool
	// LogDir backs the deterministic cell with a real durable log, as in
	// ConcurrencyOptions.
	LogDir string
	// Seed fixes the arrival schedule and op streams (zero means 1).
	Seed int64
}

// OverloadResult is one point on the E23 saturation frontier.
type OverloadResult struct {
	// Offered is the arrival rate the run targeted (ops/second).
	Offered float64
	// Issued counts arrivals; Shed those rejected with ErrOverloaded;
	// Failed those that were accepted but resolved with any other error.
	Issued, Shed, Failed int64
	// Elapsed spans the first arrival to the last handle resolution.
	Elapsed time.Duration
	// Accept latencies run from each arrival's *scheduled* time to the
	// cell's admission verdict, so queueing delay counts (open loop);
	// Apply latencies run from the same origin to handle resolution, for
	// accepted ops only.
	AcceptP50, AcceptP99, AcceptP999 time.Duration
	ApplyP99, ApplyP999              time.Duration
	// AcceptSamples and ApplySamples are the bounded reservoirs' retained
	// sample sets, exported so grid repeats can pool their tails.
	AcceptSamples, ApplySamples []time.Duration
	// Anomalies and Violations are the audit verdict when Audit was on.
	Anomalies  []string
	Violations int
	Audited    bool
}

// Completed returns how many arrivals were accepted and applied.
func (r OverloadResult) Completed() int64 { return r.Issued - r.Shed - r.Failed }

// Goodput returns completed (accepted and applied) ops per second —
// the number that stays flat past saturation with shedding on and
// collapses with it off.
func (r OverloadResult) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed()) / r.Elapsed.Seconds()
}

// ShedFraction returns the fraction of arrivals shed.
func (r OverloadResult) ShedFraction() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Issued)
}

// RunOverloadCell deploys the mix's App under model and offers it an
// open-loop stream of ops arrivals at the given rate (ops/second),
// submitted directly on the Cell — no Session retries, so the shed rate
// is the cell's own admission verdict. Arrivals keep coming regardless
// of how the cell keeps up: with shedding off and the rate past
// capacity, accept latency grows without bound (the legacy blocking
// queues) and goodput collapses; with shedding on the cell rejects the
// excess in ~constant time and goodput holds at the frontier. Latency is
// measured from each arrival's scheduled time (queueing delay counts)
// into bounded reservoirs.
func RunOverloadCell(mix string, model ProgrammingModel, rate float64, ops int, o OverloadOptions) (OverloadResult, error) {
	if rate <= 0 || ops <= 0 {
		return OverloadResult{}, fmt.Errorf("tca: overload run needs rate > 0 and ops > 0 (got %g, %d)", rate, ops)
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	env := NewEnv(1, 3)
	opts := Options{Clients: 16, Workers: 32, SequenceDelay: 80 * time.Microsecond}
	if o.Shed {
		// A tight explicit bound (not the roomy defaults) so the frontier
		// engages within an experiment-sized run on every cell.
		opts.MaxPending = 64
	} else {
		opts.MaxPending = -1
	}
	if o.LogDir != "" && model == Deterministic {
		dir, err := os.MkdirTemp(o.LogDir, "cell-")
		if err != nil {
			return OverloadResult{}, err
		}
		defer os.RemoveAll(dir)
		opts.LogDir = dir
	}
	app, err := mixApp(mix)
	if err != nil {
		return OverloadResult{}, err
	}
	cell, err := DeployWith(model, app, env, opts)
	if err != nil {
		return OverloadResult{}, err
	}
	defer cell.Close()

	var aud Auditor
	if o.Audit {
		aud = newMixAuditor(mix)
		defer aud.Close()
	}
	if err := seedMix(mix, cell, aud); err != nil {
		return OverloadResult{}, err
	}

	arrivals := workload.NewPoissonArrivals(seed, rate)
	stream := mixStream(mix, seed+1)

	accept := workload.NewLatencyReservoir(8192, seed)
	apply := workload.NewLatencyReservoir(8192, seed+1)
	var shed, failed atomic.Int64
	var wg sync.WaitGroup
	// finish drains one submission: classify the outcome, record apply
	// latency for ops that entered the pipeline, and keep the auditor's
	// intent set exact — a shed op is always Discarded.
	finish := func(h Handle, reqID, name string, args []byte, sched time.Time) {
		<-h.Done()
		_, opErr := h.Result()
		if opErr != nil {
			if errors.Is(opErr, ErrOverloaded) {
				shed.Add(1)
				if aud != nil {
					aud.Discard(reqID)
				}
				return
			}
			failed.Add(1)
		}
		apply.Record(time.Since(sched))
		if aud == nil {
			return
		}
		if opErr != nil && model != StatefulDataflow {
			aud.Discard(reqID)
			return
		}
		var seq int64
		if sh, ok := h.(interface{ Seq() int64 }); ok {
			seq = sh.Seq()
		}
		aud.Observe(Commit{ReqID: reqID, Op: name, Args: args, Start: sched, End: time.Now(), Seq: seq})
	}
	start := time.Now()
	next := start
	for i := 0; i < ops; i++ {
		next = next.Add(arrivals.Gap())
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		sched := next
		name, args := stream()
		reqID := fmt.Sprintf("ol/%d", i)
		if aud != nil {
			aud.Record(reqID, name, args)
		}
		wg.Add(1)
		if o.Shed && model != Deterministic {
			// Admission control makes Submit's verdict ~immediate (a token
			// or a shed), so the pacing loop submits inline — which is also
			// what lets a backlog actually accumulate against the bound
			// instead of being drained by the scheduler between arrivals —
			// and only the await runs concurrently. The deterministic cell
			// is the exception: its Submit return is the durable ack, whose
			// cost amortizes only across concurrent submitters (group
			// appends), while its admission verdict already fires at the
			// bounded batch queue before the ack wait parks — so it takes
			// the concurrent path below even with shedding on.
			h := cell.Submit(reqID, name, args, nil)
			accept.Record(time.Since(sched))
			go func() {
				defer wg.Done()
				finish(h, reqID, name, args, sched)
			}()
		} else {
			// Legacy queues block the submitter when full; the open loop
			// must keep offering regardless, so each arrival submits from
			// its own goroutine — the unbounded goroutine pile IS the
			// unbounded queue, and the blocked time lands in the accept
			// tail.
			go func() {
				defer wg.Done()
				h := cell.Submit(reqID, name, args, nil)
				accept.Record(time.Since(sched))
				finish(h, reqID, name, args, sched)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := cell.Settle(); err != nil {
		return OverloadResult{}, err
	}
	out := OverloadResult{
		Offered:       rate,
		Issued:        int64(ops),
		Shed:          shed.Load(),
		Failed:        failed.Load(),
		Elapsed:       elapsed,
		AcceptP50:     accept.P50(),
		AcceptP99:     accept.P99(),
		AcceptP999:    accept.P999(),
		ApplyP99:      apply.P99(),
		ApplyP999:     apply.P999(),
		AcceptSamples: accept.Samples(),
		ApplySamples:  apply.Samples(),
	}
	if aud != nil {
		anomalies, err := aud.Verify(cell)
		if err != nil {
			return OverloadResult{}, err
		}
		out.Anomalies = anomalies
		out.Violations = aud.Stats().LiveViolations
		out.Audited = true
	}
	return out, nil
}
