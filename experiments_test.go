package tca

import (
	"slices"
	"sort"
	"testing"

	"tca/internal/grid"
)

// TestExperimentRegistryPinsGate pins the registry against the gate
// without running a row: sweep rows and gate rows are each unique across
// the registry (a duplicate would shadow its twin in a summary), every
// spec carries its experiment's id, and the gate rows' keys are exactly
// those of ci/bench_baseline.json, so a refactor cannot silently drop or
// rename a gated row that only a full `-compare` run would catch.
func TestExperimentRegistryPinsGate(t *testing.T) {
	baseline, err := grid.ReadSummary("ci/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range baseline.Rows {
		want = append(want, r.Key())
	}
	sweep, gate := map[string]bool{}, map[string]bool{}
	var got []string
	for _, e := range Experiments(1) {
		for _, list := range []struct {
			specs []grid.Spec
			seen  map[string]bool
		}{{e.Sweep, sweep}, {e.Gate, gate}} {
			for _, spec := range list.specs {
				if spec.Experiment != e.ID {
					t.Errorf("experiment %s carries a spec for %q", e.ID, spec.Experiment)
				}
				for _, row := range spec.Rows() {
					key := grid.BenchRow{Experiment: row.Experiment, Row: row.Name()}.Key()
					if list.seen[key] {
						t.Errorf("row %s is registered twice", key)
					}
					list.seen[key] = true
				}
			}
		}
	}
	for key := range gate {
		got = append(got, key)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("gate rows %v, baseline rows %v", got, want)
	}
}
