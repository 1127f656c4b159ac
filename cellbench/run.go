package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"tca"
	"tca/internal/workload"
)

// runResult is everything one run measured, before it becomes metrics.
type runResult struct {
	w      spec
	traced bool

	setupNs []int64
	open    []*opRec
	closed  []*opRec
	late    []int64
	// openNs is one cycle's open-loop window; closed0[i] and closed1[i]
	// bound cycle i's closed-loop window.
	openNs               int64
	closed0, closed1     []int64
	timedMem0, timedMem1 runtime.MemStats
	// cpuNs[i] and allocB[i] are the process's CPU time and bytes
	// allocated over cycle i's closed-loop window.
	cpuNs                  []int64
	allocB                 []uint64
	retries                int64
	core0, core1           map[string]int64
	broker0, broker1       int64
	sink0, sink1           int64
	lagMax                 int64
	recoverNs              int64
	logBytes               int64
	walRecords, walAppends int64
	replayedGroups         int64
	poison, torn           int64
	audit                  auditResult
	spans                  []span
	maxInflight            int
}

var coreCounters = []string{"core.wal_records", "core.wal_group_appends", "core.readonly", "core.aborts", "core.poison", "core.wal_torn_batches"}

func snapCore(c tca.Cell) map[string]int64 {
	out := make(map[string]int64, len(coreCounters))
	for _, name := range coreCounters {
		out[name] = coreCounter(c, name)
	}
	return out
}

func sinkRecords(c tca.Cell) int64 {
	if sf := tca.StatefunRuntime(c); sf != nil {
		return sf.Job().Metrics().Counter("dataflow.sink_records").Value()
	}
	return 0
}

func sessionRetries(d *deployment) int64 {
	var n int64
	for _, s := range d.sessions {
		n += s.Retries()
	}
	return n
}

// runWorkload performs one run: set-up (several times; the last one is
// kept), the open loop at the workload's rate, the closed loop, settle,
// restart/recover and the off-clock audit. It fails when a correctness
// check fails.
func runWorkload(w spec, seed int64, seconds float64, traced bool, workdir string) (*runResult, error) {
	c := newClock()
	r := &runResult{w: w, traced: traced}
	var d *deployment
	for i := range setups {
		start := c.now()
		dep, err := deploy(w, seed, traced, workdir, c)
		if err != nil {
			return nil, err
		}
		r.setupNs = append(r.setupNs, c.now()-start)
		if i < setups-1 {
			dep.close()
		} else {
			d = dep
		}
	}
	defer d.close()
	runtime.GC() // leave the discarded set-ups' garbage out of the timed phases

	cycle := time.Duration(seconds * float64(time.Second) / cycles)
	openDur := time.Duration(openShare * float64(cycle))
	arrivals := workload.NewPoissonArrivals(seed+1, w.rate)

	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	if sf := tca.StatefunRuntime(d.cell); traced && sf != nil {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopLag:
					return
				case <-tick.C:
					r.lagMax = max(r.lagMax, sf.Job().Lag())
				}
			}
		}()
	}

	retries0 := sessionRetries(d)
	r.core0, r.broker0, r.sink0 = snapCore(d.cell), d.brokerRecords(), sinkRecords(d.cell)
	r.openNs = int64(openDur)
	r.timedMem0 = memSnap()
	for i := range cycles {
		r.late = append(r.late, d.openLoop(arrivals, openDur, i)...)
		alloc0, cpu0 := memSnap().TotalAlloc, cpuTime()
		cs, ce := d.closedLoop(phaseClosed, i, cycle-openDur, 0)
		r.cpuNs = append(r.cpuNs, cpuTime()-cpu0)
		r.allocB = append(r.allocB, memSnap().TotalAlloc-alloc0)
		r.closed0, r.closed1 = append(r.closed0, cs), append(r.closed1, ce)
	}
	r.timedMem1 = memSnap()
	r.core1, r.broker1, r.sink1 = snapCore(d.cell), d.brokerRecords(), sinkRecords(d.cell)
	r.retries = sessionRetries(d) - retries0
	close(stopLag)
	lagWG.Wait()

	recs := d.log.all()
	for _, rec := range recs {
		switch rec.phase {
		case phaseOpen:
			r.open = append(r.open, rec)
		case phaseClosed:
			r.closed = append(r.closed, rec)
		}
	}
	r.maxInflight = maxInflight(r.open)

	if err := d.cell.Settle(); err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	if d.dir != "" {
		n, err := dirBytes(d.dir)
		if err != nil {
			return nil, fmt.Errorf("log size: %w", err)
		}
		r.logBytes = n
	}
	r.walRecords = coreCounter(d.cell, "core.wal_records")
	r.walAppends = coreCounter(d.cell, "core.wal_group_appends")
	r.poison = coreCounter(d.cell, "core.poison")
	r.torn = coreCounter(d.cell, "core.wal_torn_batches")
	if d.spans != nil {
		r.spans = d.spans.all()
		for _, rec := range recs {
			r.spans = append(r.spans, span{id: rec.rid, rid: rec.rid, kind: spanRequest, start: rec.sched, end: rec.done})
		}
	}

	cell, took, err := d.recoverCell()
	if err != nil {
		return nil, err
	}
	r.recoverNs = took
	audit, err := auditLog(w, recs, c, cell)
	if err != nil {
		return nil, err
	}
	r.audit = audit
	r.replayedGroups = coreCounter(cell, "core.wal_replayed_groups")
	r.poison += coreCounter(cell, "core.poison")
	r.torn += coreCounter(cell, "core.wal_torn_batches")
	if err := audit.check(w); err != nil {
		return nil, err
	}
	if r.poison != 0 || r.torn != 0 {
		return nil, fmt.Errorf("%s: core.poison=%d core.wal_torn_batches=%d, want 0", w.name, r.poison, r.torn)
	}
	if traced {
		if err := writeSpans(filepath.Join(workdir, "spans-"+w.name+".tsv"), r.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return r, nil
}

// maxInflight is the most requests one session had outstanding at once.
func maxInflight(recs []*opRec) int {
	type event struct {
		t     int64
		delta int
	}
	peak := 0
	for sess := range sessions {
		var evs []event
		for _, rec := range recs {
			if rec.sess == sess {
				evs = append(evs, event{rec.subIn, 1}, event{rec.done, -1})
			}
		}
		// Ends sort before starts at the same instant.
		sort.Slice(evs, func(i, j int) bool {
			return evs[i].t < evs[j].t || (evs[i].t == evs[j].t && evs[i].delta < evs[j].delta)
		})
		cur := 0
		for _, e := range evs {
			cur += e.delta
			peak = max(peak, cur)
		}
	}
	return peak
}

// cpuTime is the process's user plus system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
