package tca

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tca/internal/core"
	"tca/internal/faas"
	"tca/internal/fabric"
	"tca/internal/grid"
	"tca/internal/mq"
	"tca/internal/workload"
)

// allModels is the five-cell sweep order of every matrix experiment.
var allModels = []ProgrammingModel{Microservices, Actors, CloudFunctions, StatefulDataflow, Deterministic}

// Experiment is one registered experiment: the one function that runs a
// row, the sweep its Benchmark* function and `tcabench -experiment` run,
// and, for the gated experiments, the rows ci/bench_baseline.json pins.
type Experiment struct {
	// ID is the experiment id every spec of the experiment carries.
	ID string
	// Sweep is the experiment's full grid. A sweep that is not one
	// cartesian product is a union of specs: E16 has no cross-partition
	// rows at one partition, E17 no remote rows at one warehouse, E24 no
	// WAN rows at one region, and E18's read-path A/B has its own axes.
	Sweep []grid.Spec
	// Gate holds the pinned regression-gate rows; nil when ungated.
	Gate []grid.Spec
	// Run executes one row of either list once under one seed.
	Run grid.RunFunc
}

// Experiments returns the registry in report order. ops is the per-row
// operation budget the specs carry; the gate's paced E23 and E24 rows
// take a fixed share of it so they stay experiment-sized at a fixed
// rate. The benchmark view hands Run its b.N instead. Each call builds
// fresh run functions, so what a run function keeps between rows (E23's
// capacity calibration) lives for one sweep.
func Experiments(ops int) []Experiment {
	models := make([]string, len(allModels))
	for i, m := range allModels {
		models[i] = m.String()
	}
	model := axis("model", models...)
	e10 := specs(grid.Spec{Experiment: "e10", BaseSeed: 1, Ops: ops, ThroughputKey: "ops_s", AcceptKey: "p99_us"},
		[]grid.Axis{axis("driver", "closed-4", "open-0.5x", "open-2x")})
	e16 := grid.Spec{Experiment: "e16", BaseSeed: 1, Ops: ops, ThroughputKey: "tx_s", AcceptKey: "accept_p99_us"}
	e23 := grid.Spec{Experiment: "e23", BaseSeed: 7, Ops: ops, ThroughputKey: "goodput_s",
		AcceptKey: "accept_p99_us", ApplyKey: "apply_p99_us"}
	e24 := grid.Spec{Experiment: "e24", BaseSeed: 7, Ops: ops, ThroughputKey: "tx_s",
		AcceptKey: "read_p99_us", ApplyKey: "write_p99_us"}
	// ops/4 arrivals at a fixed 2000/s: an experiment-sized run (~ops/8000
	// seconds) whose goodput sits at the offered rate on any host fast
	// enough to run the suite at all.
	e23Gate := e23
	e23Gate.BaseSeed, e23Gate.Ops = 1, ops/4
	// A 2-region async pass at a fixed sub-capacity rate: the WAN is
	// modeled (fabric trace), so the gated read p99 is the pipeline's
	// modeled latency, machine-independent by construction, and tx/s
	// tracks the offered rate.
	e24Gate := e24
	e24Gate.BaseSeed, e24Gate.Ops = 1, ops/8
	// E20 and E21 share the driver and its seed; E20 runs the core on a
	// real temp-dir log, E21 on the modeled append.
	concurrency := grid.Spec{BaseSeed: 7, Ops: ops, ThroughputKey: "tx_s",
		AcceptKey: "accept_p99_us", ApplyKey: "apply_p99_us"}
	clients := axis("clients", "1", "4", "16", "64")
	e20, e21 := concurrency, concurrency
	e20.Experiment, e21.Experiment = "e20", "e21"

	return []Experiment{
		{ID: "f1", Run: runF1, Sweep: specs(
			grid.Spec{Experiment: "f1", BaseSeed: 7, Ops: ops, ThroughputKey: "tx_s"},
			[]grid.Axis{model})},
		{ID: "e6", Run: runE6, Sweep: specs(
			grid.Spec{Experiment: "e6", BaseSeed: 1, Ops: ops, ThroughputKey: "ops_s"},
			[]grid.Axis{axis("policy", "always-warm", "evict-every-10", "evict-every-2")})},
		{ID: "e10", Run: runE10, Sweep: e10, Gate: e10},
		{ID: "e16", Run: runE16,
			Sweep: specs(e16,
				[]grid.Axis{axis("partitions", "1"), axis("cross", "0%")},
				[]grid.Axis{axis("partitions", "2", "4", "8"), axis("cross", "0%", "10%", "50%")}),
			Gate: specs(e16, []grid.Axis{axis("mode", "model"), axis("partitions", "1", "4")})},
		{ID: "e17", Run: runE17, Sweep: specs(
			grid.Spec{Experiment: "e17", BaseSeed: 11, Ops: ops, ThroughputKey: "tx_s"},
			[]grid.Axis{model, axis("wh", "1"), axis("remote", "0%"), axis("query", "0%", "20%")},
			[]grid.Axis{model, axis("wh", "4"), axis("remote", "0%", "10%", "50%"), axis("query", "0%", "20%")})},
		{ID: "e18", Run: runE18, Sweep: specs(
			grid.Spec{Experiment: "e18", BaseSeed: 5, Ops: ops, ThroughputKey: "tx_s"},
			[]grid.Axis{model, axis("zipf", "1.1", "4.0")},
			[]grid.Axis{axis("readpath", Actors.String(), Deterministic.String()), axis("ro", "on", "off")})},
		{ID: "e19", Run: runE19, Sweep: specs(
			grid.Spec{Experiment: "e19", BaseSeed: 9, Ops: ops, ThroughputKey: "tx_s"},
			[]grid.Axis{model, axis("fanout", "8", "24", "64", "128")})},
		{ID: "e20", Run: concurrencyRun(true), Sweep: specs(e20,
			[]grid.Axis{axis("mix", ConcurrencyMixes...), model, clients})},
		{ID: "e21", Run: concurrencyRun(false), Sweep: specs(e21,
			[]grid.Axis{axis("mix", AuditedMixes...), axis("model", Deterministic.String(), StatefulDataflow.String()),
				clients, axis("audit", "on", "off")})},
		{ID: "e22", Run: runE22, Sweep: specs(
			grid.Spec{Experiment: "e22", BaseSeed: 1, Ops: ops, ThroughputKey: "tx_s", AcceptKey: "accept_p99_us"},
			[]grid.Axis{axis("batch", "1", "8", "64", "256"), axis("fsync", "batch", "1ms", "none")})},
		{ID: "e23", Run: overloadRun(),
			Sweep: specs(e23, []grid.Axis{axis("mix", ConcurrencyMixes...), model, axis("shed", "on", "off"),
				axis("offered", "0.5x", "1x", "2x", "4x")}),
			Gate: specs(e23Gate, []grid.Axis{axis("mix", "tpcc"), axis("model", Microservices.String()),
				axis("shed", "on"), axis("rate", "2000")})},
		{ID: "e24", Run: runE24,
			Sweep: specs(e24,
				[]grid.Axis{axis("mode", "async", "sequenced"), axis("regions", "1"), axis("wan", "20ms"), axis("read", "local")},
				[]grid.Axis{axis("mode", "async", "sequenced"), axis("regions", "2", "3"), axis("wan", "20ms", "80ms"),
					axis("read", "local", "home")}),
			Gate: specs(e24Gate, []grid.Axis{axis("mode", "async"), axis("regions", "2"), axis("wan", "20ms"),
				axis("read", "local"), axis("rate", "500")})},
	}
}

func axis(name string, values ...string) grid.Axis { return grid.Axis{Name: name, Values: values} }

// specs returns one copy of base per axis list: the union of their
// cartesian products.
func specs(base grid.Spec, products ...[]grid.Axis) []grid.Spec {
	out := make([]grid.Spec, len(products))
	for i, axes := range products {
		out[i] = base
		out[i].Axes = axes
	}
	return out
}

// parseModel resolves a model's String() name back to the model.
func parseModel(name string) (ProgrammingModel, error) {
	for _, m := range allModels {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q", name)
}

// intKnob parses an integer knob, stripping a unit suffix ("10%").
func intKnob(row grid.Row, name, suffix string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSuffix(row.Knob(name), suffix))
	if err != nil {
		return 0, fmt.Errorf("%s: bad %s %q", row.Experiment, name, row.Knob(name))
	}
	return v, nil
}

// floatKnob parses a numeric knob, stripping a unit suffix ("2x").
func floatKnob(row grid.Row, name, suffix string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(row.Knob(name), suffix), 64)
	if err != nil {
		return 0, fmt.Errorf("%s: bad %s %q", row.Experiment, name, row.Knob(name))
	}
	return v, nil
}

// driveInvokes issues ops sequential Invokes on a deployed cell through
// invoke (op i, with a fresh trace) and returns the run rate, the final
// Settle included, and the mean modeled latency per op in µs. A
// positive settleEvery settles the dataflow cell that often, bounding
// its in-flight choreography so the final Settle stays within its
// timeout.
func driveInvokes(cell Cell, ops, settleEvery int, invoke func(i int, tr *fabric.Trace)) (rate, simUS float64, err error) {
	var sim time.Duration
	start := time.Now()
	for i := 0; i < ops; i++ {
		tr := fabric.NewTrace()
		invoke(i, tr)
		sim += tr.Total()
		if settleEvery > 0 && cell.Model() == StatefulDataflow && i%settleEvery == settleEvery-1 {
			if err := cell.Settle(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := cell.Settle(); err != nil {
		return 0, 0, err
	}
	return float64(ops) / time.Since(start).Seconds(), float64(sim) / float64(ops) / 1e3, nil
}

// runF1 is the taxonomy matrix: the same seeded bank-transfer stream
// under one programming model through the application layer (one
// BankApp, five Deploy targets), reporting the modeled latency and hop
// count per transfer.
func runF1(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	model, err := parseModel(row.Knob("model"))
	if err != nil {
		return grid.Sample{}, err
	}
	cell, err := Deploy(model, BankApp(), NewEnv(1, 3))
	if err != nil {
		return grid.Sample{}, err
	}
	defer cell.Close()
	const accounts = 64
	for a := 0; a < accounts; a++ {
		args, _ := json.Marshal(bankDepositArgs{Account: a, Amount: 1_000_000})
		if _, err := cell.Invoke(fmt.Sprintf("seed-%d", a), "deposit", args, nil); err != nil {
			return grid.Sample{}, err
		}
	}
	if err := cell.Settle(); err != nil {
		return grid.Sample{}, err
	}
	gen := workload.NewBank(seed, accounts, 0)
	var hops int
	rate, sim, err := driveInvokes(cell, ops, 0, func(i int, tr *fabric.Trace) {
		op := gen.Next()
		args, _ := json.Marshal(bankTransferArgs{From: op.From, To: op.To, Amount: op.Amount})
		// A rejected transfer (a 2PL abort) still costs its round trips:
		// the matrix prices attempts, not commits.
		cell.Invoke(fmt.Sprintf("f1-%d", i), "transfer", args, tr)
		hops += tr.Hops()
	})
	if err != nil {
		return grid.Sample{}, err
	}
	return grid.Sample{Throughput: rate, Extra: map[string]float64{
		"sim_us_op": sim,
		"hops_op":   float64(hops) / float64(ops),
	}}, nil
}

// runE6 invokes one FaaS function under an eviction policy and reports
// the modeled latency and cold-start count.
func runE6(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	evictEvery, ok := map[string]int{"always-warm": 0, "evict-every-10": 10, "evict-every-2": 2}[row.Knob("policy")]
	if !ok {
		return grid.Sample{}, fmt.Errorf("e6: unknown policy %q", row.Knob("policy"))
	}
	p := faas.NewPlatform(fabric.SingleNode(), faas.DefaultConfig())
	p.Register("fn", func(ctx *faas.Ctx, payload []byte) ([]byte, error) { return nil, nil })
	var sim time.Duration
	start := time.Now()
	for i := 0; i < ops; i++ {
		if evictEvery > 0 && i%evictEvery == 0 {
			p.EvictIdle("fn")
		}
		tr := fabric.NewTrace()
		if _, err := p.Invoke("fn", "k", nil, tr); err != nil {
			return grid.Sample{}, err
		}
		sim += tr.Total()
	}
	return grid.Sample{Throughput: float64(ops) / time.Since(start).Seconds(), Extra: map[string]float64{
		"sim_us_op":   float64(sim) / float64(ops) / 1e3,
		"cold_starts": float64(p.Metrics().Counter("faas.cold_starts").Value()),
	}}, nil
}

// runE10 measures one load model against a spin service of capacity
// 10k ops/s (one slot × 100µs). The closed driver has no arrival
// randomness; the open drivers seed their Poisson schedules.
func runE10(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	service := workload.SpinService(1, 100*time.Microsecond)
	var res workload.DriverResult
	switch d := row.Knob("driver"); d {
	case "closed-4":
		res = workload.ClosedLoop(4, max(ops/4, 1), 0, service)
	case "open-0.5x":
		res = workload.OpenLoop(seed, ops, 5000, service)
	case "open-2x":
		res = workload.OpenLoop(seed, ops, 20000, service)
	default:
		return grid.Sample{}, fmt.Errorf("e10: unknown driver %q", d)
	}
	return grid.Sample{Throughput: res.Throughput(), Accept: res.LatencySamples}, nil
}

// submitClients runs submissions 0..ops-1 from clients goroutines
// (client c takes every clients-th one), recording each submit's latency
// in accept, and returns the first submit error.
func submitClients(clients, ops int, accept *workload.LatencyReservoir, submit func(i int) error) error {
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < ops; i += clients {
				t0 := time.Now()
				if err := submit(i); err != nil {
					once.Do(func() { first = err })
					return
				}
				accept.Record(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	return first
}

// runE16 measures the deterministic core's partition scaling: 64 clients
// touch 256 accounts through `partitions` log partitions, pairing each
// account with a partition-mate except for the cross share of
// submissions, whose pair spans two partitions and takes one
// global-sequencer pass. Mode "model" charges the modeled 80µs append
// (no filesystem, the gate's machine-independent configuration);
// otherwise the cell runs on a real write-ahead log in a throwaway
// directory, whose per-record append+fsync is what sharding overlaps.
func runE16(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	parts, err := intKnob(row, "partitions", "")
	if err != nil {
		return grid.Sample{}, err
	}
	crossPct := 0
	if row.Knob("cross") != "" {
		if crossPct, err = intKnob(row, "cross", "%"); err != nil {
			return grid.Sample{}, err
		}
	}
	cfg := core.Config{Name: fmt.Sprintf("bench16-%d", parts), Workers: 16, Partitions: parts}
	switch m := row.Knob("mode"); m {
	case "model":
		cfg.SequenceDelay = 80 * time.Microsecond
	case "":
		dir, err := os.MkdirTemp("", "tca-e16-")
		if err != nil {
			return grid.Sample{}, err
		}
		defer os.RemoveAll(dir)
		cfg.LogDir = dir
	default:
		return grid.Sample{}, fmt.Errorf("e16: unknown mode %q", m)
	}
	rt := core.NewRuntime(mq.NewBroker(), cfg)
	rt.Register("touch", func(tx *core.Tx, args []byte) ([]byte, error) {
		key := string(args)
		raw, _, _ := tx.Get(key)
		return nil, tx.Put(key, append(raw[:len(raw):len(raw)], 'x'))
	})
	if err := rt.Start(); err != nil {
		return grid.Sample{}, err
	}
	defer rt.Stop()
	acct := func(a int) string { return fmt.Sprintf("acc/%d", a) }
	const accounts, clients = 256, 64
	byPart := make(map[int][]int)
	for a := 0; a < accounts; a++ {
		p := rt.PartitionOf(acct(a))
		byPart[p] = append(byPart[p], a)
	}
	var same, cross [][2]int
	groups := make([][]int, 0, len(byPart))
	for _, group := range byPart {
		for i := 0; i+1 < len(group); i += 2 {
			same = append(same, [2]int{group[i], group[i+1]})
		}
		groups = append(groups, group)
	}
	for i := 0; len(groups) > 1 && i < accounts/2; i++ {
		ga, gb := groups[i%len(groups)], groups[(i+1)%len(groups)]
		cross = append(cross, [2]int{ga[i%len(ga)], gb[i%len(gb)]})
	}
	accept := workload.NewLatencyReservoir(0, seed)
	start := time.Now()
	err = submitClients(clients, ops, accept, func(i int) error {
		pair := same[i%len(same)]
		if i%100 < crossPct && len(cross) > 0 {
			pair = cross[i%len(cross)]
		}
		keys := []string{acct(pair[0]), acct(pair[1])}
		_, err := rt.Submit(fmt.Sprintf("e16-%d-%d-%d", seed, parts, i), "touch", keys, []byte(keys[0]), nil)
		return err
	})
	elapsed := time.Since(start)
	if err != nil {
		return grid.Sample{}, fmt.Errorf("e16 submit: %w", err)
	}
	crossCommits := rt.Metrics().Counter("core.cross_commits").Value()
	return grid.Sample{
		Throughput: float64(ops) / elapsed.Seconds(),
		Accept:     accept.Samples(),
		Extra:      map[string]float64{"cross_pct": 100 * float64(crossCommits) / float64(ops)},
	}, nil
}

// runE17 runs the identical seeded TPC-C stream under one programming
// model via the application layer and audits the cell against the
// serial reference: stock never negative, warehouse YTD = sum of
// payments, district counters = NewOrder count.
func runE17(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	model, err := parseModel(row.Knob("model"))
	if err != nil {
		return grid.Sample{}, err
	}
	wh, err := intKnob(row, "wh", "")
	if err != nil {
		return grid.Sample{}, err
	}
	remote, err := intKnob(row, "remote", "%")
	if err != nil {
		return grid.Sample{}, err
	}
	query, err := intKnob(row, "query", "%")
	if err != nil {
		return grid.Sample{}, err
	}
	cfg := workload.DefaultTPCCConfig(wh)
	cfg.RemoteFrac = workload.RemoteFrac(float64(remote) / 100)
	cfg.QueryFrac = float64(query) / 100
	cell, err := Deploy(model, TPCCApp(), NewEnv(1, 3))
	if err != nil {
		return grid.Sample{}, err
	}
	defer cell.Close()
	gen := workload.NewTPCC(seed, cfg)
	audit := NewTPCCAuditor()
	var queries int
	rate, sim, err := driveInvokes(cell, ops, 256, func(i int, tr *fabric.Trace) {
		op := gen.Next()
		args, _ := json.Marshal(op)
		_, err := cell.Invoke(fmt.Sprintf("e17-%d", i), tpccOpName(op), args, tr)
		// The eventual cell's ops are recorded unconditionally: even when
		// Invoke surfaces a drop or timeout, the accepted op is
		// exactly-once in the ingress and applies regardless.
		if model == StatefulDataflow || err == nil {
			audit.RecordOp(op)
		}
		if op.Kind == workload.TPCCOrderStatus || op.Kind == workload.TPCCStockLevel {
			queries++
		}
	})
	if err != nil {
		return grid.Sample{}, err
	}
	anomalies, err := audit.Verify(cell)
	if err != nil {
		return grid.Sample{}, err
	}
	return grid.Sample{Throughput: rate, Extra: map[string]float64{
		"sim_us_op": sim,
		"anomalies": float64(len(anomalies)),
		"query_pct": 100 * float64(queries) / float64(ops),
	}}, nil
}

// runE18 runs one marketplace row: the seeded mix (carts, checkouts,
// queries, price updates) under one model at a product-popularity skew,
// audited for the checkout/price write skew; or, on a readpath row, a
// pure query-product stream with the ReadOnly hint honored (ro=on) or
// stripped, the A/B that prices the write machinery a query skips.
func runE18(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	if rp := row.Knob("readpath"); rp != "" {
		return runE18ReadPath(rp, row.Knob("ro") == "on", ops)
	}
	model, err := parseModel(row.Knob("model"))
	if err != nil {
		return grid.Sample{}, err
	}
	zipf, err := floatKnob(row, "zipf", "")
	if err != nil {
		return grid.Sample{}, err
	}
	cfg := workload.DefaultMarketConfig()
	cfg.ZipfS = zipf
	cell, err := Deploy(model, MarketApp(), NewEnv(1, 3))
	if err != nil {
		return grid.Sample{}, err
	}
	defer cell.Close()
	gen := workload.NewMarket(seed, cfg)
	audit := NewMarketAuditor()
	var queries int
	rate, sim, err := driveInvokes(cell, ops, 256, func(i int, tr *fabric.Trace) {
		op := gen.Next()
		args, _ := json.Marshal(op)
		_, err := cell.Invoke(fmt.Sprintf("e18-%d", i), marketOpName(op), args, tr)
		// As in E17: the eventual cell's accepted ops apply even when
		// Invoke reports a drop or timeout; its in-flight ops reading
		// stale carts and prices is exactly the drift the audit reports.
		if model == StatefulDataflow || err == nil {
			audit.RecordOp(op)
		}
		if op.Kind == workload.MarketQueryProduct {
			queries++
		}
	})
	if err != nil {
		return grid.Sample{}, err
	}
	anomalies, err := audit.Verify(cell)
	if err != nil {
		return grid.Sample{}, err
	}
	return grid.Sample{Throughput: rate, Extra: map[string]float64{
		"sim_us_op": sim,
		"anomalies": float64(len(anomalies)),
		"query_pct": 100 * float64(queries) / float64(ops),
	}}, nil
}

func runE18ReadPath(modelName string, readOnly bool, ops int) (grid.Sample, error) {
	model, err := parseModel(modelName)
	if err != nil {
		return grid.Sample{}, err
	}
	queryName := workload.MarketQueryProduct.String()
	op, _ := MarketApp().Op(queryName)
	op.ReadOnly = readOnly
	cell, err := Deploy(model, NewApp("market-query").Register(op), NewEnv(1, 3))
	if err != nil {
		return grid.Sample{}, err
	}
	defer cell.Close()
	args, _ := json.Marshal(workload.MarketOp{Kind: workload.MarketQueryProduct, Product: 1})
	var invokeErr error
	rate, sim, err := driveInvokes(cell, ops, 0, func(i int, tr *fabric.Trace) {
		if _, err := cell.Invoke(fmt.Sprintf("rp-%d", i), queryName, args, tr); err != nil && invokeErr == nil {
			invokeErr = err
		}
	})
	if err == nil {
		err = invokeErr
	}
	if err != nil {
		return grid.Sample{}, err
	}
	return grid.Sample{Throughput: rate, Extra: map[string]float64{"sim_us_op": sim}}, nil
}

// runE19 runs the compose-post fan-out under one model: the declared key
// set is the author's follower-timeline list, one op in five is the
// read-only read-timeline, and 10% follow/unfollow churn mutates the
// graph between posts. The state model commutes, so every cell must
// audit clean (exact delivery and read-your-writes).
func runE19(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	model, err := parseModel(row.Knob("model"))
	if err != nil {
		return grid.Sample{}, err
	}
	fanout, err := intKnob(row, "fanout", "")
	if err != nil {
		return grid.Sample{}, err
	}
	// Enough users that even the celebrity tail can have `fanout`
	// distinct followers.
	users := max(64, 2*fanout)
	// Wide posts are hundreds of choreography messages each: settle the
	// eventual cell more often so its backlog stays bounded.
	settleEvery := 256
	if fanout >= 64 {
		settleEvery = 64
	}
	// Partitions shards the deterministic cell so wide posts exercise
	// cross-partition scheduling; other models ignore it.
	cell, err := DeployWith(model, SocialApp(), NewEnv(1, 3), Options{Partitions: 4})
	if err != nil {
		return grid.Sample{}, err
	}
	defer cell.Close()
	gen := workload.NewSocialChurn(seed, users, fanout, 0.10)
	audit := NewSocialAuditor()
	var fanoutSum, posts int
	rate, sim, err := driveInvokes(cell, ops, settleEvery, func(i int, tr *fabric.Trace) {
		if i%5 == 4 {
			// A query writes nothing, so the audit has nothing to record
			// whether or not it succeeds; its cost still counts.
			args, _ := json.Marshal(socialTimelineArgs{User: i % users})
			cell.Invoke(fmt.Sprintf("e19q-%d", i), SocialReadTimeline, args, tr)
			return
		}
		op := gen.Next()
		args, _ := json.Marshal(op)
		if _, err := cell.Invoke(fmt.Sprintf("e19-%d", i), SocialOpName(op), args, tr); err == nil || model == StatefulDataflow {
			audit.RecordOp(op)
		}
		if op.Kind == workload.SocialPost {
			fanoutSum += len(op.Followers)
			posts++
		}
	})
	if err != nil {
		return grid.Sample{}, err
	}
	anomalies, err := audit.Verify(cell)
	if err != nil {
		return grid.Sample{}, err
	}
	s := grid.Sample{Throughput: rate, Extra: map[string]float64{
		"sim_us_op": sim,
		"anomalies": float64(len(anomalies)),
	}}
	if posts > 0 {
		s.Extra["fanout_post"] = float64(fanoutSum) / float64(posts)
	}
	return s, nil
}

// concurrencyRun returns the E20/E21 run function: one (mix, model,
// clients) cell driven closed-loop through pipelined Sessions, audited
// live unless the row's audit knob is off. durable backs the
// deterministic cell with a real log (E20) instead of the modeled append
// (E21).
func concurrencyRun(durable bool) grid.RunFunc {
	return func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
		model, err := parseModel(row.Knob("model"))
		if err != nil {
			return grid.Sample{}, err
		}
		clients, err := intKnob(row, "clients", "")
		if err != nil {
			return grid.Sample{}, err
		}
		cell, done, err := deployMix(row.Knob("mix"), model, clients, 0, durable)
		if err != nil {
			return grid.Sample{}, err
		}
		defer done()
		res, err := drive(target{cell: cell}, row.Knob("mix"), row.Knob("audit") != "off",
			load{ops: ops, seed: seed, clients: clients})
		if err != nil {
			return grid.Sample{}, err
		}
		return res.sample(), nil
	}
}

// runE22 measures one durability-frontier point: the deterministic core
// on a real write-ahead log in a throwaway directory, 64 concurrent
// submitters sharing group appends capped at the batch knob, under one
// fsync policy. Larger caps divide each fsync across more transactions;
// fsync=none is the page-cache ceiling. The accept latency is the
// SubmitAsync time, what "acknowledged means on disk" costs the tail.
func runE22(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	batch, err := intKnob(row, "batch", "")
	if err != nil {
		return grid.Sample{}, err
	}
	policy, ok := map[string]core.FsyncPolicy{
		"batch": core.FsyncEveryBatch, "1ms": core.FsyncInterval, "none": core.FsyncNone,
	}[row.Knob("fsync")]
	if !ok {
		return grid.Sample{}, fmt.Errorf("e22: unknown fsync policy %q", row.Knob("fsync"))
	}
	dir, err := os.MkdirTemp("", "tca-e22-")
	if err != nil {
		return grid.Sample{}, err
	}
	defer os.RemoveAll(dir)
	rt := core.NewRuntime(mq.NewBroker(), core.Config{
		Name:           fmt.Sprintf("e22-%d-%s", batch, row.Knob("fsync")),
		Workers:        16,
		LogDir:         dir,
		Fsync:          policy,
		MaxGroupAppend: batch,
	})
	rt.Register("deposit", func(tx *core.Tx, args []byte) ([]byte, error) {
		key := string(args)
		var bal int64
		if raw, _, _ := tx.Get(key); raw != nil {
			json.Unmarshal(raw, &bal)
		}
		raw, _ := json.Marshal(bal + 1)
		return nil, tx.Put(key, raw)
	})
	if err := rt.Start(); err != nil {
		return grid.Sample{}, err
	}
	defer rt.Stop()
	// Enough concurrent submitters that the largest group cap can fill:
	// group size is bounded by what queues while the previous append's
	// fsync is in flight.
	const accounts, clients = 64, 64
	accept := workload.NewLatencyReservoir(0, seed)
	start := time.Now()
	if err := submitClients(clients, ops, accept, func(i int) error {
		key := fmt.Sprintf("acc/%d", i%accounts)
		_, err := rt.SubmitAsync(fmt.Sprintf("e22-%d", i), "deposit", []string{key}, []byte(key), nil)
		return err
	}); err != nil {
		return grid.Sample{}, fmt.Errorf("e22 submit: %w", err)
	}
	if err := rt.Quiesce(time.Minute); err != nil {
		return grid.Sample{}, err
	}
	elapsed := time.Since(start)
	s := grid.Sample{Throughput: float64(ops) / elapsed.Seconds(), Accept: accept.Samples()}
	if appends := rt.Metrics().Counter("core.wal_group_appends").Value(); appends > 0 {
		s.Extra = map[string]float64{"records_append": float64(ops) / float64(appends)}
	}
	return s, nil
}

// overloadRun returns the E23 run function: one overload-frontier point,
// open-loop Poisson arrivals straight to the cell, with a tight queue
// bound (shed=on, Options.MaxPending 64, so the frontier engages within
// an experiment-sized run) or none (shed=off, the pre-admission-control
// queues). A rate knob offers a fixed rate (the gate row); an offered
// knob offers a multiple of the cell's closed-loop capacity — 16
// pipelined clients, auditing off, measured once per (mix, model) and
// kept for the sweep so every row of a cell offers multiples of the same
// calibration. Rows run one at a time, so the calibration map needs no
// lock.
func overloadRun() grid.RunFunc {
	capacity := map[string]float64{}
	return func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
		mix := row.Knob("mix")
		model, err := parseModel(row.Knob("model"))
		if err != nil {
			return grid.Sample{}, err
		}
		var rate float64
		if row.Knob("rate") != "" {
			if rate, err = floatKnob(row, "rate", ""); err != nil {
				return grid.Sample{}, err
			}
		} else {
			mult, err := floatKnob(row, "offered", "x")
			if err != nil {
				return grid.Sample{}, err
			}
			key := mix + "/" + model.String()
			c, ok := capacity[key]
			if !ok {
				cell, done, err := deployMix(mix, model, 16, 0, true)
				if err != nil {
					return grid.Sample{}, err
				}
				res, err := drive(target{cell: cell}, mix, false, load{ops: 400, clients: 16})
				done()
				if err != nil {
					return grid.Sample{}, err
				}
				if c = res.throughput(); c <= 0 {
					return grid.Sample{}, fmt.Errorf("e23: measured non-positive capacity for %s", key)
				}
				capacity[key] = c
			}
			rate = c * mult
		}
		maxPending := -1
		if row.Knob("shed") == "on" {
			maxPending = 64
		}
		cell, done, err := deployMix(mix, model, 16, maxPending, true)
		if err != nil {
			return grid.Sample{}, err
		}
		defer done()
		res, err := drive(target{cell: cell}, mix, false,
			load{ops: ops, seed: seed, arrivals: workload.NewPoissonArrivals(seed, rate)})
		if err != nil {
			return grid.Sample{}, err
		}
		return res.sample(), nil
	}
}

// runE24 measures one geo-frontier point: the marketplace as a replica
// group — async on the dataflow cell, sequenced on the deterministic
// core — driven closed-loop by 4 pipelined clients per region, or paced
// open-loop when the row has a rate knob. Latencies are modeled (fabric
// trace) time. Sequenced mode audits for real: the sequencer's log order
// is the serialization, so the verdict must come back empty. Async mode
// is checked for exact convergence instead — its local interleavings are
// the drift E24 prices through the staleness probe. Either failure errors
// the row out.
func runE24(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	regions, err := intKnob(row, "regions", "")
	if err != nil {
		return grid.Sample{}, err
	}
	wan, err := time.ParseDuration(row.Knob("wan"))
	if err != nil {
		return grid.Sample{}, fmt.Errorf("e24: bad wan %q", row.Knob("wan"))
	}
	l := load{ops: ops, seed: seed, clients: 4}
	if row.Knob("rate") != "" {
		rate, err := floatKnob(row, "rate", "")
		if err != nil {
			return grid.Sample{}, err
		}
		l.clients, l.arrivals = 0, workload.NewPacedArrivals(rate)
	}
	var mode ReplicationMode
	model := StatefulDataflow
	switch row.Knob("mode") {
	case "async":
		mode = AsyncReplication
	case "sequenced":
		mode, model = SequencedReplication, Deterministic
	default:
		return grid.Sample{}, fmt.Errorf("e24: unknown mode %q", row.Knob("mode"))
	}
	var read ReadMode
	switch row.Knob("read") {
	case "local":
		read = ReadLocal
	case "home":
		read = ReadHome
	default:
		return grid.Sample{}, fmt.Errorf("e24: unknown read mode %q", row.Knob("read"))
	}
	g, err := DeployReplicated(model, mixTable[geoMix].app(), regions,
		GeoOptions{Mode: mode, WAN: wan, Seed: seed, Cell: harnessCell})
	if err != nil {
		return grid.Sample{}, err
	}
	defer g.Close()
	res, err := drive(target{group: g, read: read}, geoMix, mode == SequencedReplication, l)
	if err != nil {
		return grid.Sample{}, err
	}
	if n := len(res.anomalies); n > 0 {
		return grid.Sample{}, fmt.Errorf("e24: audited %d anomalies (first: %s)", n, res.anomalies[0])
	}
	if n := len(res.diverged); n > 0 {
		return grid.Sample{}, fmt.Errorf("e24: replicas diverged on %d keys (first: %s)", n, res.diverged[0])
	}
	return res.sample(), nil
}
