package tca

import (
	"slices"
	"testing"
	"time"

	"tca/internal/workload"
)

// driveMix deploys mix under model on the modeled append (deployMix with
// that worker pool and queue bound) and drives it with l, audited.
func driveMix(t *testing.T, mix string, model ProgrammingModel, pool, maxPending int, l load) driveResult {
	t.Helper()
	cell, done, err := deployMix(mix, model, pool, maxPending, false)
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	res, err := drive(target{cell: cell}, mix, true, l)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// driveGeo deploys E24's marketplace as a 2-region replica group in mode
// and drives it with l under local reads, audited in sequenced mode as
// E24 is.
func driveGeo(t *testing.T, mode ReplicationMode, wan time.Duration, l load) driveResult {
	t.Helper()
	model := StatefulDataflow
	if mode == SequencedReplication {
		model = Deterministic
	}
	g, err := DeployReplicated(model, mixTable[geoMix].app(), 2,
		GeoOptions{Mode: mode, WAN: wan, Seed: 1, Cell: harnessCell})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	res, err := drive(target{group: g, read: ReadLocal}, geoMix, mode == SequencedReplication, l)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMixTable pins the mix table: every swept mix name resolves to an
// App, an Auditor and a stream whose ops the App registers, the geo mix
// carries its convergence key universe, and an unknown name is an error
// everywhere a mix is named — never a silent fallback to another mix.
func TestMixTable(t *testing.T) {
	for _, name := range slices.Concat(AuditedMixes, ConcurrencyMixes, []string{geoMix}) {
		m, err := lookupMix(name)
		if err != nil {
			t.Fatal(err)
		}
		app := m.app()
		if aud := m.auditor(); aud == nil {
			t.Errorf("%s: nil auditor", name)
		} else {
			aud.Close()
		}
		next := m.stream(1)
		for i := 0; i < 64; i++ {
			if op, _ := next(); !slices.Contains(app.Ops(), op) {
				t.Fatalf("%s: stream op %q is not registered in app %q", name, op, app.Name())
			}
		}
	}
	if len(mixTable[geoMix].keys) != 2*geoMarket.Users+2*geoMarket.Products {
		t.Errorf("geo mix key universe has %d keys", len(mixTable[geoMix].keys))
	}
	if _, err := lookupMix("nope"); err == nil {
		t.Error("lookupMix accepted an unknown mix")
	}
	if _, _, err := deployMix("nope", Microservices, 1, 0, false); err == nil {
		t.Error("deployMix accepted an unknown mix")
	}
	if _, err := drive(target{}, "nope", false, load{ops: 1, clients: 1}); err == nil {
		t.Error("drive accepted an unknown mix")
	}
}

// TestDriveValidatesLoad pins the driver's validation: a load needs a
// positive op budget, exactly one of a closed loop (clients) and an open
// loop (arrivals), and a positive arrival rate. None of these reach the
// target.
func TestDriveValidatesLoad(t *testing.T) {
	poisson := workload.NewPoissonArrivals(1, 100)
	for name, l := range map[string]load{
		"zero ops":       {ops: 0, clients: 1},
		"negative ops":   {ops: -1, arrivals: poisson},
		"both loops":     {ops: 10, clients: 1, arrivals: poisson},
		"neither loop":   {ops: 10},
		"zero rate":      {ops: 10, arrivals: workload.NewPoissonArrivals(1, 0)},
		"negative rate":  {ops: 10, arrivals: workload.NewPacedArrivals(-5)},
		"negative count": {ops: 10, clients: -2},
	} {
		if _, err := drive(target{}, "social", false, l); err == nil {
			t.Errorf("%s: drive accepted %+v", name, l)
		}
	}
}

// TestDriveIssuesExactlyOps pins the op budget on both loops and both
// target kinds: a run issues exactly ops submissions — also when ops does
// not divide among the sessions — and every one resolves exactly once
// into one of the four outcomes.
func TestDriveIssuesExactlyOps(t *testing.T) {
	const ops = 37
	loads := map[string]func() load{
		"closed": func() load { return load{ops: ops, seed: 1, clients: 3} },
		"open":   func() load { return load{ops: ops, seed: 1, arrivals: workload.NewPacedArrivals(4000)} },
	}
	for name, mk := range loads {
		t.Run(name+"/cell", func(t *testing.T) {
			checkOutcomes(t, ops, driveMix(t, "market", Microservices, 4, 0, mk()))
		})
		t.Run(name+"/group", func(t *testing.T) {
			res := driveGeo(t, AsyncReplication, 5*time.Millisecond, mk())
			checkOutcomes(t, ops, res)
			if n := res.read.Count() + res.write.Count(); n != res.apply.Count() {
				t.Errorf("modeled latencies for %d ops, wall-clock for %d", n, res.apply.Count())
			}
			if len(res.diverged) > 0 {
				t.Errorf("replicas diverged: %v", res.diverged[0])
			}
		})
	}
}

// checkOutcomes asserts the run issued exactly ops submissions and
// resolved each of them exactly once.
func checkOutcomes(t *testing.T, ops int, res driveResult) {
	t.Helper()
	if res.issued != int64(ops) {
		t.Errorf("issued = %d, want %d", res.issued, ops)
	}
	if n := res.accept.Count(); n != res.issued {
		t.Errorf("%d submissions timed, %d issued", n, res.issued)
	}
	if n := res.apply.Count() + res.shed; n != res.issued {
		t.Errorf("%d handles resolved (%d applied + %d shed), %d issued", n, res.apply.Count(), res.shed, res.issued)
	}
	if c := res.completed(); c < 0 || c+res.rejected+res.shed+res.failed != res.issued {
		t.Errorf("outcomes %d completed + %d rejected + %d shed + %d failed != %d issued",
			c, res.rejected, res.shed, res.failed, res.issued)
	}
}
