package workload

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/metrics"
)

// Op is the unit of work a driver executes.
type Op func() error

// DriverResult summarizes one load run.
type DriverResult struct {
	// Issued and Errors count operations.
	Issued, Errors int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Latency is the response-time distribution. Under the open-loop
	// driver it includes queueing delay from the request's scheduled
	// arrival time — the number that explodes at saturation (ref [56]).
	Latency metrics.Snapshot
	// P99 is the tail of the same distribution, from a bounded reservoir
	// (LatencyReservoir) — the column the experiment tables report.
	P99 time.Duration
	// LatencySamples is the reservoir's retained sample set, exported so
	// grid repeats can pool their tails (grid.PooledQuantile).
	LatencySamples []time.Duration
}

// Throughput returns completed operations per second.
func (r DriverResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Issued-r.Errors) / r.Elapsed.Seconds()
}

// ClosedLoop runs n client goroutines, each issuing ops back to back with
// the given think time, for the given number of operations per client.
// Closed systems self-throttle: when the server slows down, the arrival
// rate drops with it, hiding saturation from the latency distribution.
func ClosedLoop(clients, opsPerClient int, think time.Duration, op Op) DriverResult {
	hist := metrics.NewHistogram()
	res := NewLatencyReservoir(0, 1)
	var errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				t0 := time.Now()
				err := op()
				d := time.Since(t0)
				hist.RecordDuration(d)
				res.Record(d)
				if err != nil {
					errs.Add(1)
				}
				if think > 0 {
					time.Sleep(think)
				}
			}
		}()
	}
	wg.Wait()
	return DriverResult{
		Issued:         int64(clients * opsPerClient),
		Errors:         errs.Load(),
		Elapsed:        time.Since(start),
		Latency:        hist.Snapshot(),
		P99:            res.P99(),
		LatencySamples: res.Samples(),
	}
}

// ArrivalProcess generates the inter-arrival gaps of an open-loop load
// stream. Implementations are deterministic per seed: the same seed
// produces the identical arrival schedule, which is what makes open-loop
// runs comparable across configurations.
type ArrivalProcess interface {
	// Gap returns the time until the next arrival.
	Gap() time.Duration
	// Rate returns the mean arrival rate in ops/second.
	Rate() float64
}

// poissonArrivals draws exponential inter-arrival gaps — the memoryless
// arrival process of the M/M/1 model.
type poissonArrivals struct {
	rng  *rand.Rand
	rate float64
}

// NewPoissonArrivals returns Poisson arrivals at rate ops/second.
// Non-positive rates are invalid; callers should validate (OpenLoop does).
func NewPoissonArrivals(seed int64, rate float64) ArrivalProcess {
	return &poissonArrivals{rng: rand.New(rand.NewSource(seed)), rate: rate}
}

func (p *poissonArrivals) Gap() time.Duration {
	return time.Duration(p.rng.ExpFloat64() / p.rate * float64(time.Second))
}

func (p *poissonArrivals) Rate() float64 { return p.rate }

// pacedArrivals spaces arrivals exactly 1/rate apart — an open loop with
// no arrival randomness, for rows whose offered rate must be pinned.
type pacedArrivals struct{ rate float64 }

// NewPacedArrivals returns evenly spaced arrivals at rate ops/second.
func NewPacedArrivals(rate float64) ArrivalProcess { return pacedArrivals{rate: rate} }

func (p pacedArrivals) Gap() time.Duration { return time.Duration(float64(time.Second) / p.rate) }

func (p pacedArrivals) Rate() float64 { return p.rate }

// OpenLoop issues n operations with Poisson arrivals at the given rate
// (ops/second), regardless of how the server keeps up. Latency is measured
// from the *scheduled arrival time*, so queueing delay counts: when the
// offered rate exceeds capacity, latency grows without bound — the
// open-vs-closed contrast of ref [56]. A non-positive rate or n is invalid
// and returns an empty result immediately instead of spinning.
func OpenLoop(seed int64, n int, rate float64, op Op) DriverResult {
	if rate <= 0 || n <= 0 {
		return DriverResult{}
	}
	arrivals := NewPoissonArrivals(seed, rate)
	hist := metrics.NewHistogram()
	res := NewLatencyReservoir(0, 1)
	var errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	next := start
	for i := 0; i < n; i++ {
		next = next.Add(arrivals.Gap())
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		scheduled := next
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := op()
			d := time.Since(scheduled)
			hist.RecordDuration(d)
			res.Record(d)
			if err != nil {
				errs.Add(1)
			}
		}()
	}
	wg.Wait()
	return DriverResult{
		Issued:         int64(n),
		Errors:         errs.Load(),
		Elapsed:        time.Since(start),
		Latency:        hist.Snapshot(),
		P99:            res.P99(),
		LatencySamples: res.Samples(),
	}
}

// SpinService returns an Op that busy-spins for d with at most c
// concurrent executions — a stand-in server with capacity c/d ops/sec,
// used by the load-model experiments. The spin yields the processor each
// turn so a fleet of driver goroutines parked here cannot starve the cell
// goroutines (executors, choreographies) they share the runtime with.
func SpinService(c int, d time.Duration) Op {
	slots := make(chan struct{}, c)
	return func() error {
		slots <- struct{}{}
		end := time.Now().Add(d)
		for time.Now().Before(end) {
			runtime.Gosched()
		}
		<-slots
		return nil
	}
}

// TheoreticalMM1Latency returns the M/M/1 expected response time for
// offered load rho = lambda/mu and service time s — the analytic check the
// open-loop experiment compares against.
func TheoreticalMM1Latency(rho float64, s time.Duration) time.Duration {
	if rho >= 1 {
		return time.Duration(math.Inf(1))
	}
	return time.Duration(float64(s) / (1 - rho))
}
