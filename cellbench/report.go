package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metric is one named number of a run. n is its sample count; a
// percentile is supported only when at least ten samples lie beyond it.
type metric struct {
	name, unit string
	value      float64
	n          int
	supported  bool
	perCycle   []float64 // the per-cycle values a cycle summary was taken over
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of samples (sorted in
// place) and whether at least minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	i := int(math.Ceil(p*float64(len(samples)))) - 1
	i = min(max(i, 0), len(samples)-1)
	return samples[i], len(samples)-1-i >= minBeyond
}

func pct(name, unit string, samples []float64, p, scale float64) metric {
	v, ok := percentile(samples, p)
	return metric{name: name, unit: unit, value: v * scale, n: len(samples), supported: ok}
}

func count(name, unit string, v float64, n int) metric {
	return metric{name: name, unit: unit, value: v, n: n, supported: true}
}

// ratio is num/den, or 0 when den is 0 (the layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// byCycle splits requests by the cycle that issued them.
func byCycle(recs []*opRec) [cycles][]*opRec {
	var out [cycles][]*opRec
	for _, rec := range recs {
		out[rec.cycle] = append(out[rec.cycle], rec)
	}
	return out
}

// commitSample is a request's scheduled-arrival-to-resolution time. A
// failed request misses any latency limit, so it sorts after every real
// latency: it counts as the open-loop window's length, which is what a
// percentile landing on failures reports.
func (r *runResult) commitSample(rec *opRec) float64 {
	if rec.out == failed {
		return float64(r.openNs)
	}
	return float64(rec.done - rec.sched)
}

func ackSample(rec *opRec) float64 { return float64(rec.ack - rec.sched) }

// sessionWait is the time a request spent in Session.Submit outside its
// first Cell.Submit.
func sessionWait(rec *opRec) float64 {
	return float64((rec.ack - rec.subIn) - (rec.cellOut - rec.cellIn))
}

func samples(recs []*opRec, sample func(*opRec) float64) []float64 {
	out := make([]float64, len(recs))
	for i, rec := range recs {
		out[i] = sample(rec)
	}
	return out
}

func (r *runResult) lateSamples() []float64 {
	out := make([]float64, len(r.late))
	for i, ns := range r.late {
		out[i] = float64(ns)
	}
	return out
}

// fastQuarter picks, over the cycles, the value a quarter of the way from
// the fastest: the lower quartile of a latency, the upper quartile of a
// throughput. Interference from other tenants of the host only ever
// slows a window down, and on a shared 2-CPU host it comes in stretches
// of several seconds; the fast quarter of the cycles moves with the
// program more than with the neighbours. A change that slows every window
// still moves it; one that slows only a few windows (a periodic stall)
// shows in the per-cycle values printed with the run, not here.
const fastQuarter = 0.25

// cyclePct is the fast-quarter value over the cycles of each cycle's
// p-quantile of sample over its open-loop requests. It is supported when
// every cycle's quantile is.
func (r *runResult) cyclePct(name string, p float64, sample func(*opRec) float64) metric {
	var per []float64
	supported := true
	for _, recs := range byCycle(r.open) {
		v, ok := percentile(samples(recs, sample), p)
		per = append(per, v)
		supported = supported && ok
	}
	for i := range per {
		per[i] /= 1e6
	}
	v, _ := percentile(append([]float64(nil), per...), fastQuarter)
	return metric{name: name, unit: "ms", value: v, n: len(r.open), supported: supported, perCycle: per}
}

// peakTPS is the fast-quarter value over the cycles of the closed loop's
// successful completions (commits and business aborts) per second within
// the cycle's window.
func (r *runResult) peakTPS() metric {
	per := make([]float64, cycles)
	ok := 0
	for i, recs := range byCycle(r.closed) {
		n := 0
		for _, rec := range recs {
			if rec.out != failed && rec.done <= r.closed1[i] {
				n++
			}
		}
		ok += n
		per[i] = ratio(float64(n), float64(r.closed1[i]-r.closed0[i])/1e9)
	}
	v, _ := percentile(append([]float64(nil), per...), 1-fastQuarter)
	m := count("peak_tps", "req/s", v, ok)
	m.perCycle = per
	return m
}

func (r *runResult) failedCount(recs []*opRec) int {
	n := 0
	for _, rec := range recs {
		if rec.out == failed {
			n++
		}
	}
	return n
}

// endToEnd are the end-to-end numbers steady enough on a shared 2-CPU
// host to carry a regression bound, measured with tracing off: set-up
// time, and what each request costs in CPU time and in allocation. The
// costs are taken over the closed-loop windows, where the cell is
// saturated: below saturation, idle polling and the scheduler's spinning
// add CPU time and allocation that depend on the host's speed, not on the
// requests.
func (r *runResult) endToEnd() []metric {
	setup := make([]float64, len(r.setupNs))
	for i, ns := range r.setupNs {
		setup[i] = float64(ns)
	}
	setupMedian, _ := percentile(setup, 0.5)
	var cpuNs, allocB float64
	for i := range r.cpuNs {
		cpuNs += float64(r.cpuNs[i])
		allocB += float64(r.allocB[i])
	}
	n := len(r.closed)
	return []metric{
		count("setup_s", "s", setupMedian/1e9, len(setup)),
		count("cpu_us_per_op", "us", ratio(cpuNs/1e3, float64(n)), n),
		count("alloc_kb_per_op", "KiB", ratio(allocB/1024, float64(n)), n),
	}
}

// throughputAndLatency are the closed-loop throughput and the open-loop
// latencies. They are printed with every run, but on a shared 2-CPU host
// their run-to-run spread is wider than any bound the benchmark may set:
// the host lends its CPUs and its disk to other tenants for minutes at a
// time, and the core's throughput and latency wait on fsync and on
// goroutine hand-offs, while its CPU time per request does not. So they
// are reported without a bound.
func (r *runResult) throughputAndLatency() []metric {
	return []metric{
		r.peakTPS(),
		r.cyclePct("ack_p50_ms", 0.50, ackSample),
		r.cyclePct("ack_p99_ms", 0.99, ackSample),
		r.cyclePct("commit_p50_ms", 0.50, r.commitSample),
		r.cyclePct("commit_p99_ms", 0.99, r.commitSample),
	}
}

// spanStats is the traced run's spans joined to the timed requests.
type spanStats struct {
	body, bodySelf, get, write []float64
	bodyRuns, calls            int
	firstBody, lastBody        map[int64]int64
}

func (r *runResult) joinSpans() spanStats {
	timed := make(map[int64]bool, len(r.open)+len(r.closed))
	for _, rec := range r.open {
		timed[rec.rid] = true
	}
	for _, rec := range r.closed {
		timed[rec.rid] = true
	}
	st := spanStats{firstBody: map[int64]int64{}, lastBody: map[int64]int64{}}
	childNs := map[int64]int64{}
	for _, sp := range r.spans {
		if !timed[sp.rid] {
			continue
		}
		d := float64(sp.end - sp.start)
		switch sp.kind {
		case spanGet:
			st.get = append(st.get, d)
		case spanWrite:
			st.write = append(st.write, d)
		}
		if sp.kind == spanGet || sp.kind == spanWrite {
			st.calls++
			childNs[sp.parent] += sp.end - sp.start
		}
	}
	for _, sp := range r.spans {
		if sp.kind != spanBody || !timed[sp.rid] {
			continue
		}
		st.bodyRuns++
		st.body = append(st.body, float64(sp.end-sp.start))
		st.bodySelf = append(st.bodySelf, float64(sp.end-sp.start-childNs[sp.id]))
		if first, ok := st.firstBody[sp.rid]; !ok || sp.start < first {
			st.firstBody[sp.rid] = sp.start
		}
		st.lastBody[sp.rid] = max(st.lastBody[sp.rid], sp.end)
	}
	return st
}

// layers are the per-layer numbers of a traced run, each named for the
// layer that produced it. Layers a workload does not use report 0.
func (r *runResult) layers() []metric {
	timedOps := float64(len(r.open) + len(r.closed))
	perOp := func(v float64) float64 { return ratio(v, timedOps) }
	perKop := func(v float64) float64 { return ratio(1000*v, timedOps) }
	delta := func(name string) float64 { return float64(r.core1[name] - r.core0[name]) }

	var pre, post []float64
	st := r.joinSpans()
	submit := samples(r.open, func(rec *opRec) float64 { return float64(rec.cellOut - rec.cellIn) })
	for _, rec := range r.open {
		if first, ok := st.firstBody[rec.rid]; ok {
			pre = append(pre, float64(first-rec.cellIn))
			post = append(post, float64(rec.done-st.lastBody[rec.rid]))
		}
	}
	var hops, modeledNs float64
	for _, recs := range [][]*opRec{r.open, r.closed} {
		for _, rec := range recs {
			hops += float64(rec.tr.Hops())
			modeledNs += float64(rec.tr.Total())
		}
	}
	gcCycles := float64(r.timedMem1.NumGC - r.timedMem0.NumGC)
	gcPauseNs := float64(r.timedMem1.PauseTotalNs - r.timedMem0.PauseTotalNs)
	n := int(timedOps)
	return []metric{
		count("session.retries_per_kop", "1/kop", perKop(float64(r.retries)), n),
		pct("cell.submit_p50_us", "us", submit, 0.50, 1e-3),
		pct("cell.submit_p99_us", "us", submit, 0.99, 1e-3),
		pct("cell.pre_body_p50_us", "us", pre, 0.50, 1e-3),
		pct("cell.pre_body_p99_us", "us", pre, 0.99, 1e-3),
		pct("cell.post_body_p50_us", "us", post, 0.50, 1e-3),
		pct("cell.post_body_p99_us", "us", post, 0.99, 1e-3),
		pct("app.body_p50_us", "us", st.body, 0.50, 1e-3),
		pct("app.body_p99_us", "us", st.body, 0.99, 1e-3),
		pct("app.body_self_p99_us", "us", st.bodySelf, 0.99, 1e-3),
		count("app.body_runs_per_op", "count", perOp(float64(st.bodyRuns)), n),
		pct("txn.get_p99_us", "us", st.get, 0.99, 1e-3),
		pct("txn.write_p99_us", "us", st.write, 0.99, 1e-3),
		count("txn.calls_per_op", "count", perOp(float64(st.calls)), n),
		count("core.txns_per_append", "count", ratio(delta("core.wal_records"), delta("core.wal_group_appends")), int(delta("core.wal_group_appends"))),
		count("core.readonly_frac", "fraction", perOp(delta("core.readonly")), n),
		count("core.aborts_per_kop", "1/kop", perKop(delta("core.aborts")), n),
		count("core.replayed_groups", "count", float64(r.replayedGroups), 1),
		count("core.poison", "count", float64(r.poison), 1),
		count("core.wal_torn_batches", "count", float64(r.torn), 1),
		count("wal.bytes_per_append", "B", ratio(float64(r.logBytes), float64(r.walAppends)), int(r.walAppends)),
		count("mq.records_per_op", "count", perOp(float64(r.broker1-r.broker0)), n),
		count("dataflow.lag_max", "count", float64(r.lagMax), 1),
		count("dataflow.sink_records_per_op", "count", perOp(float64(r.sink1-r.sink0)), n),
		count("fabric.hops_per_op", "count", perOp(hops), n),
		count("fabric.modeled_us_per_op", "us", perOp(modeledNs)/1e3, n),
		pct("audit.observe_p99_us", "us", r.audit.observeNs, 0.99, 1e-3),
		count("audit.verify_ms", "ms", float64(r.audit.verifyNs)/1e6, 1),
		count("audit.reordered", "count", float64(r.audit.stats.Reordered), 1),
		count("go.gc_cycles_per_kop", "1/kop", perKop(gcCycles), n),
		count("go.gc_pause_ms", "ms", gcPauseNs/1e6, int(gcCycles)),
	}
}

// unbounded are the end-to-end numbers that are 0 on some workload, so
// no bound can hold them, and the two harness checks every run prints.
func (r *runResult) unbounded() []metric {
	recoverS := float64(r.recoverNs) / 1e9
	return []metric{
		count("failed_frac", "fraction", ratio(float64(r.failedCount(r.open)), float64(len(r.open))), len(r.open)),
		count("recover_s", "s", recoverS, 1),
		count("log_bytes_per_txn", "B", ratio(float64(r.logBytes), float64(r.walRecords)), int(r.walRecords)),
		count("wal.replay_mb_s", "MB/s", ratio(float64(r.logBytes)/1e6, recoverS), 1),
		pct("gen.late_p99_ms", "ms", r.lateSamples(), 0.99, 1e-6),
		pct("session.wait_p99_us", "us", samples(r.open, sessionWait), 0.99, 1e-3),
	}
}

// validity says whether the harness, not the cell, limited the run. The
// generator was the bottleneck when its median lateness exceeds the mean
// gap between arrivals: it was typically more than one arrival behind its
// schedule. The session was, when it reached its in-flight cap or when the
// time spent in Session.Submit outside Cell.Submit is a tenth of the
// acknowledgment latency at the 99th percentile. An invalid run is
// reported as such, not as a slow one.
func (r *runResult) validity() string {
	lateP50, _ := percentile(r.lateSamples(), 0.50)
	gap := 1e9 / r.w.rate
	waitP99, _ := percentile(samples(r.open, sessionWait), 0.99)
	ackP99, _ := percentile(samples(r.open, ackSample), 0.99)
	var problems []string
	if lateP50 > gap {
		problems = append(problems, fmt.Sprintf("generator median lateness %.3f ms exceeds the mean arrival gap %.3f ms", lateP50/1e6, gap/1e6))
	}
	if r.maxInflight >= sessionCap {
		problems = append(problems, fmt.Sprintf("a session reached its in-flight cap of %d", sessionCap))
	}
	if waitP99 > 0.1*ackP99 {
		problems = append(problems, fmt.Sprintf("session wait p99 %.1f us is over a tenth of ack p99 %.1f us", waitP99/1e3, ackP99/1e3))
	}
	if len(problems) == 0 {
		return fmt.Sprintf("ok (generator median lateness %.3f ms, session peak in flight %d of %d)", lateP50/1e6, r.maxInflight, sessionCap)
	}
	return fmt.Sprintf("INVALID: %s", strings.Join(problems, "; "))
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		note := ""
		if !m.supported {
			note = "  (too few samples beyond this percentile)"
		}
		if m.perCycle != nil {
			note += fmt.Sprintf("  per cycle %.4g", m.perCycle)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-9s n=%d%s\n", m.name, m.value, m.unit, m.n, note)
	}
}

func printOverhead(w io.Writer, plain, traced []metric) {
	fmt.Fprintf(w, "tracing overhead (traced minus untraced)\n")
	for i, m := range plain {
		t := traced[i]
		fmt.Fprintf(w, "  %-30s %14.4f %14.4f %+14.4f %s\n", m.name, m.value, t.value, t.value-m.value, m.unit)
	}
}

func describe(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "requests: open %d (failed %d), closed %d (failed %d); audit observed %d, verify %.1f ms, reordered %d\n",
		len(r.open), r.failedCount(r.open), len(r.closed), r.failedCount(r.closed),
		r.audit.observed, float64(r.audit.verifyNs)/1e6, r.audit.stats.Reordered)
	if f := r.firstFailure(); f != nil {
		fmt.Fprintf(w, "first failure: %v\n", f)
	}
	fmt.Fprintf(w, "validity: %s\n", r.validity())
}

func (r *runResult) firstFailure() error {
	for _, recs := range [][]*opRec{r.open, r.closed} {
		for _, rec := range recs {
			if rec.out == failed {
				return rec.err
			}
		}
	}
	return nil
}

// perLayer is what a traced run reports: the unbounded end-to-end numbers
// and every layer's.
func (r *runResult) perLayer() []metric {
	out := append(r.throughputAndLatency(), r.unbounded()...)
	return append(out, r.layers()...)
}
