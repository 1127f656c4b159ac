package workload

import (
	"sync/atomic"
	"testing"
	"time"
)

// gaps draws n inter-arrival gaps from an arrival process.
func gaps(a ArrivalProcess, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = a.Gap()
	}
	return out
}

// TestArrivalsSeedStable pins the reproducibility contract: the same seed
// must produce the identical arrival schedule (that is what makes an
// open-loop sweep comparable between shed=on and shed=off), and a
// different seed must produce a different one.
func TestArrivalsSeedStable(t *testing.T) {
	t.Run("poisson", func(t *testing.T) {
		const n = 512
		a, b := gaps(NewPoissonArrivals(7, 5000), n), gaps(NewPoissonArrivals(7, 5000), n)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("gap %d diverged under the same seed: %v vs %v", i, a[i], b[i])
			}
		}
		c := gaps(NewPoissonArrivals(8, 5000), n)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == n {
			t.Fatal("different seeds produced the identical schedule")
		}
	})
}

// TestOpenLoopRejectsInvalidRate pins the validation: a non-positive rate
// or count returns an empty result immediately — the op never runs and
// the driver never spins on a zero gap.
func TestOpenLoopRejectsInvalidRate(t *testing.T) {
	var calls atomic.Int64
	op := func() error { calls.Add(1); return nil }
	for _, tc := range []struct {
		rate float64
		n    int
	}{{0, 10}, {-5, 10}, {100, 0}, {100, -1}} {
		res := OpenLoop(1, tc.n, tc.rate, op)
		if res.Issued != 0 || res.Errors != 0 || res.Elapsed != 0 {
			t.Fatalf("OpenLoop(rate=%g, n=%d) = %+v, want zero result", tc.rate, tc.n, res)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("invalid open-loop configs ran the op %d times", calls.Load())
	}
}

func TestLatencyReservoirExactWhenUnderCap(t *testing.T) {
	r := NewLatencyReservoir(1000, 1)
	for i := 1; i <= 1000; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	if got := r.Count(); got != 1000 {
		t.Fatalf("Count = %d, want 1000", got)
	}
	if got := r.Max(); got != 1000*time.Microsecond {
		t.Fatalf("Max = %v, want 1ms", got)
	}
	if got := r.P50(); got != 501*time.Microsecond {
		t.Fatalf("P50 = %v, want 501µs", got)
	}
	if got := r.P99(); got != 991*time.Microsecond {
		t.Fatalf("P99 = %v, want 991µs", got)
	}
	if got := r.Quantile(1); got != 1000*time.Microsecond {
		t.Fatalf("Quantile(1) = %v, want the exact max", got)
	}
}

// TestLatencyReservoirBoundedMemory pins the whole point: far more
// observations than capacity, fixed retention, quantiles still drawn from
// a uniform sample of the stream, and the exact max never sampled away.
func TestLatencyReservoirBoundedMemory(t *testing.T) {
	r := NewLatencyReservoir(64, 2)
	const n = 100000
	for i := 1; i <= n; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	if got := r.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	if got := len(r.samples); got != 64 {
		t.Fatalf("retained %d samples, want 64", got)
	}
	if got := r.Max(); got != n*time.Microsecond {
		t.Fatalf("Max = %v, want %v (exact max must survive sampling)", got, n*time.Microsecond)
	}
	// The median of a uniform sample of 1..n concentrates near n/2; a
	// reservoir that kept only early (or late) observations would sit at
	// an extreme.
	p50 := r.P50()
	if p50 < n/10*time.Microsecond || p50 > 9*n/10*time.Microsecond {
		t.Fatalf("P50 = %v, not plausibly a uniform sample of 1..%dµs", p50, n)
	}
	if r.Quantile(0.999) > r.Max() {
		t.Fatal("quantile exceeded the exact max")
	}
}

func TestLatencyReservoirEmpty(t *testing.T) {
	r := NewLatencyReservoir(0, 1)
	if r.P50() != 0 || r.P99() != 0 || r.P999() != 0 || r.Max() != 0 || r.Count() != 0 {
		t.Fatal("empty reservoir must report zeros")
	}
}
