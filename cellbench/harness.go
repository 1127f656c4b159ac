package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tca"
	"tca/internal/fabric"
	"tca/internal/mq"
	"tca/internal/workload"
)

// Load shape. Two sessions carry all traffic; in the closed loop each
// keeps closedDepth requests in flight. sessionCap is far above anything
// the fixed open-loop rates reach, so the session never throttles the
// generator; reaching it marks the run invalid.
//
// The measured seconds are split into cycles of an open-loop window
// followed by a closed-loop window. A shared host's speed drifts over
// seconds; spreading both phases over the whole run keeps a slow stretch
// from landing on one phase only, and the throughput and latencies are
// summarised over the cycles (report.go).
const (
	sessions    = 2
	closedDepth = 32
	sessionCap  = 1 << 16
	setups      = 5   // set-ups per run; setup_s is their median
	warmupSecs  = 2   // the untimed warm-up issues this many seconds of arrivals, closed loop
	cycles      = 8   // open+closed cycles per run
	openShare   = 0.6 // share of each cycle spent in the open loop
)

type phase uint8

const (
	phaseInitial phase = iota // initial state (the bank's deposits)
	phaseWarmup
	phaseOpen
	phaseClosed
)

type outcome uint8

const (
	committed outcome = iota
	businessAbort
	failed
)

// businessErrors are the aborts an application asks for. The core
// reports them wrapped in a string ("core: transaction aborted: ..."),
// so they are matched by message as well as by identity.
var businessErrors = []error{tca.ErrEmptyCart, tca.ErrInsufficientFunds}

func classify(err error) outcome {
	if err == nil {
		return committed
	}
	for _, b := range businessErrors {
		if errors.Is(err, b) || strings.HasSuffix(err.Error(), ": "+b.Error()) {
			return businessAbort
		}
	}
	return failed
}

// opRec is one request in the benchmark's op log. Times are nanoseconds
// since the run's epoch: sched is when the request was due, subIn when
// Session.Submit was called, cellIn/cellOut bound its first Cell.Submit,
// ack is Session.Submit's return and done the handle's resolution.
type opRec struct {
	rid   int64
	phase phase
	cycle int
	sess  int
	op    string
	args  []byte
	tr    *fabric.Trace

	sched, subIn, cellIn, cellOut, ack, done int64

	seq int64
	out outcome
	err error
}

// opLog is the append-only log of every request of one deployment.
type opLog struct {
	mu   sync.Mutex
	recs []*opRec
}

func (l *opLog) add(rec *opRec) {
	l.mu.Lock()
	rec.rid = int64(len(l.recs) + 1)
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
}

func (l *opLog) all() []*opRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*opRec(nil), l.recs...)
}

// deployment is one set-up: a deployed cell, its sessions, its op
// stream and the log of everything submitted to it.
type deployment struct {
	w        spec
	seed     int64
	clock    clock
	dir      string // the core's LogDir; "" for the other cells
	env      *tca.Env
	cell     tca.Cell // as deployed
	probe    *probeCell
	sessions [sessions]*tca.Session
	spans    *spanStore
	log      opLog

	genMu sync.Mutex
	gen   func() genOp
}

func (w spec) options(dir string) tca.Options {
	if w.model != tca.Deterministic {
		return tca.Options{}
	}
	return tca.Options{Partitions: 1, Workers: 32, LogDir: dir, Fsync: tca.FsyncEveryBatch}
}

// deploy builds a deployment up to the first timed arrival: deploy, log
// open, initial state and the untimed warm-up.
func deploy(w spec, seed int64, traced bool, workdir string, c clock) (*deployment, error) {
	d := &deployment{w: w, seed: seed, clock: c, gen: w.stream(seed)}
	if w.durable {
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
	}
	d.env = tca.NewEnv(seed, 3)
	app := w.app()
	if traced {
		d.spans = newSpanStore(c)
		app = tracedApp(app, d.spans)
	}
	cell, err := tca.DeployWith(w.model, app, d.env, w.options(d.dir))
	if err != nil {
		d.close()
		return nil, fmt.Errorf("deploy %s: %w", w.name, err)
	}
	d.cell = cell
	d.probe = &probeCell{Cell: cell, clock: c, spans: d.spans}
	for i := range d.sessions {
		d.sessions[i] = tca.NewSession(d.probe, fmt.Sprintf("s%d", i), tca.SessionOptions{MaxInFlight: sessionCap})
	}
	if w.initial != nil {
		for _, op := range w.initial() {
			rec := d.newRec(phaseInitial, op)
			d.submit(d.sessions[0], rec)
			if rec.out != committed {
				d.close()
				return nil, fmt.Errorf("%s: initial %s failed: %v", w.name, op.name, rec.err)
			}
		}
	}
	d.closedLoop(phaseWarmup, 0, 0, int64(warmupSecs*w.rate))
	return d, nil
}

// close releases the cell and removes its log directory.
func (d *deployment) close() {
	if d.cell != nil {
		d.cell.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// newRec draws the next op (or takes op when given) and logs it.
func (d *deployment) newRec(ph phase, op genOp) *opRec {
	if op.name == "" {
		d.genMu.Lock()
		op = d.gen()
		d.genMu.Unlock()
	}
	rec := &opRec{phase: ph, op: op.name, args: op.args}
	d.log.add(rec)
	if d.spans != nil {
		rec.args = tagArgs(rec.rid, rec.args)
		rec.tr = fabric.NewTrace()
	}
	return rec
}

// submit runs one request to completion through sess. The generator is
// never blocked by it: open-loop arrivals each run it on their own
// goroutine.
func (d *deployment) submit(sess *tca.Session, rec *opRec) {
	d.probe.track(rec)
	rec.subIn = d.clock.now()
	if rec.sched == 0 {
		rec.sched = rec.subIn
	}
	h := sess.Submit(rec.op, rec.args, rec.tr)
	rec.ack = d.clock.now()
	d.probe.untrack(rec)
	<-h.Done()
	rec.done = d.clock.now()
	_, rec.err = h.Result()
	rec.out = classify(rec.err)
	if s, ok := h.(interface{ Seq() int64 }); ok {
		rec.seq = s.Seq()
	}
}

// openLoop offers the arrivals for dur, round-robin over the sessions,
// and waits for every request to resolve. It returns each arrival's
// lateness: how long after its scheduled time the generator handed it off.
func (d *deployment) openLoop(arrivals workload.ArrivalProcess, dur time.Duration, cycle int) []int64 {
	var wg sync.WaitGroup
	var late []int64
	start := d.clock.now()
	end := start + int64(dur)
	for i, next := 0, start; ; i++ {
		next += int64(arrivals.Gap())
		if next >= end {
			break
		}
		pace(d.clock, next)
		late = append(late, d.clock.now()-next)
		rec := d.newRec(phaseOpen, genOp{})
		rec.sched = next
		rec.cycle = cycle
		rec.sess = i % sessions
		sess := d.sessions[rec.sess]
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.submit(sess, rec)
		}()
	}
	wg.Wait()
	return late
}

// closedLoop keeps closedDepth requests in flight per session until dur
// has passed (dur > 0) or maxOps requests were issued (maxOps > 0), then
// waits for them all. It returns the window's start and end.
func (d *deployment) closedLoop(ph phase, cycle int, dur time.Duration, maxOps int64) (int64, int64) {
	var stop atomic.Bool
	var issued atomic.Int64
	var wg sync.WaitGroup
	start := d.clock.now()
	for _, sess := range d.sessions {
		for range closedDepth {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() && (maxOps == 0 || issued.Add(1) <= maxOps) {
					rec := d.newRec(ph, genOp{})
					rec.cycle = cycle
					d.submit(sess, rec)
				}
			}()
		}
	}
	end := start
	if dur > 0 {
		time.Sleep(dur)
		stop.Store(true)
		end = d.clock.now()
	}
	wg.Wait()
	if dur <= 0 {
		end = d.clock.now()
	}
	return start, end
}

// brokerRecords sums the high-water marks of the cell's topics.
func (d *deployment) brokerRecords() int64 {
	prefix := "cell-" + d.cell.App().Name()
	var total int64
	for _, topic := range []string{prefix + "-txlog", prefix + "-ingress", prefix + "-internal"} {
		n, err := d.env.Broker.Partitions(topic)
		if err != nil {
			continue // the cell does not use this topic
		}
		for p := range n {
			hw, err := d.env.Broker.HighWater(mq.TopicPartition{Topic: topic, Partition: p})
			if err == nil {
				total += hw
			}
		}
	}
	return total
}

// coreCounter reads a counter of the deterministic runtime, 0 elsewhere.
func coreCounter(c tca.Cell, name string) int64 {
	if rt := tca.CoreRuntime(c); rt != nil {
		return rt.Metrics().Counter(name).Value()
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// recoverCell restarts the cell from what it persisted and returns the
// cell that serves afterwards and how long the restart took. The core is
// closed and redeployed on the same LogDir with a fresh Env (a whole-WAL
// replay with Merkle verification, until Start returns). The dataflow
// cell crashes and recovers with no checkpoint taken, so its whole log
// replays, and settles. The actor cell keeps its state in the store and
// has no restart path; it returns itself and 0.
func (d *deployment) recoverCell() (tca.Cell, int64, error) {
	switch d.w.model {
	case tca.Deterministic:
		d.cell.Close()
		d.cell = nil
		start := d.clock.now()
		cell, err := tca.DeployWith(d.w.model, d.w.app(), tca.NewEnv(d.seed, 3), d.w.options(d.dir))
		took := d.clock.now() - start
		if err != nil {
			return nil, 0, fmt.Errorf("redeploy on the log: %w", err)
		}
		d.cell = cell
		return cell, took, nil
	case tca.StatefulDataflow:
		sf := tca.StatefunRuntime(d.cell)
		start := d.clock.now()
		sf.Crash()
		if err := sf.Recover(); err != nil {
			return nil, 0, fmt.Errorf("statefun recover: %w", err)
		}
		// Settle gives up after a fixed wait; a whole-log replay can take
		// longer, so wait in rounds for a bounded total.
		for round := 1; ; round++ {
			err := d.cell.Settle()
			if err == nil {
				break
			}
			if round == replaySettleRounds {
				return nil, 0, fmt.Errorf("settle after recovery: %w", err)
			}
		}
		return d.cell, d.clock.now() - start, nil
	default:
		return d.cell, 0, nil
	}
}

// replaySettleRounds bounds the wait for the dataflow cell's replay.
const replaySettleRounds = 6

// memSnap reads the Go runtime's allocation and GC counters.
func memSnap() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// pace waits until the clock reads due. It sleeps in the kernel rather
// than on a runtime timer: the runtime's idle poller waits in whole
// milliseconds, longer than the gap between arrivals at these rates, while
// nanosleep wakes within the kernel's timer slack.
func pace(c clock, due int64) {
	// A signal can end the sleep early (EINTR); sleep again for the rest.
	for wait := due - c.now(); wait > 0; wait = due - c.now() {
		ts := syscall.NsecToTimespec(wait)
		syscall.Nanosleep(&ts, nil)
	}
}
