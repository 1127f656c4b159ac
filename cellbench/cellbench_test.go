package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// A short run of every workload, untraced and traced, prints every metric
// BENCHMARK.json names, with its unit, and nothing else in its JSON line.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, wl := range b.Workloads {
		if _, ok := specByName(wl.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", wl.Name)
		}
	}
	for _, w := range specs {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			var out bytes.Buffer
			if err := runOne(&out, w.name, 7, 1.6, traced, t.TempDir()); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var s summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
				t.Fatalf("%s traced=%v: last line is not the JSON summary: %v", w.name, traced, err)
			}
			if !s.Correct || s.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w.name, traced, s.Correct, s.Attempted)
			}
			for _, m := range want {
				got, ok := s.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s traced=%v: %s is not in the printed table", w.name, traced, m.Name)
				}
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the JSON line, BENCHMARK.json names %d", w.name, traced, len(s.Metrics), len(want))
			}
		}
	}
}

// The audit passes on the full op log of a run and fails when one
// committed write is missing from it.
func TestAuditCatchesDroppedCommit(t *testing.T) {
	for _, w := range specs {
		c := newClock()
		d, err := deploy(w, 11, false, t.TempDir(), c)
		if err != nil {
			t.Fatal(err)
		}
		d.closedLoop(phaseClosed, 0, 0, 400)
		if err := d.cell.Settle(); err != nil {
			t.Fatal(err)
		}
		recs := d.log.all()
		full, err := auditLog(w, recs, c, d.cell)
		if err != nil {
			t.Fatal(err)
		}
		if err := full.check(w); err != nil {
			t.Errorf("%s: audit of the full log: %v", w.name, err)
		}
		drop := -1
		for i, rec := range recs {
			op, _ := w.app().Op(rec.op)
			if rec.phase == phaseClosed && rec.out == committed && !op.ReadOnly {
				drop = i
				break
			}
		}
		if drop < 0 {
			t.Fatalf("%s: no committed write in the log", w.name)
		}
		short := append(append([]*opRec(nil), recs[:drop]...), recs[drop+1:]...)
		res, err := auditLog(w, short, c, d.cell)
		if err != nil {
			t.Fatal(err)
		}
		if res.check(w) == nil {
			t.Errorf("%s: audit passed with committed request %d (%s) dropped from the log", w.name, recs[drop].rid, recs[drop].op)
		}
		d.close()
	}
}

func TestTagArgsRoundTrip(t *testing.T) {
	for _, args := range []string{`{"From":1}`, `{}`} {
		tagged := tagArgs(42, []byte(args))
		if got := ridOf(tagged); got != 42 {
			t.Errorf("ridOf(%s) = %d, want 42", tagged, got)
		}
		var v map[string]any
		if err := json.Unmarshal(tagged, &v); err != nil {
			t.Errorf("tagged %s is not JSON: %v", tagged, err)
		}
	}
	if got := ridOf([]byte(`{"From":1}`)); got != 0 {
		t.Errorf("ridOf of untagged args = %d, want 0", got)
	}
}
