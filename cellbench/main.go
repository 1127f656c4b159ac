// Command cellbench is the repository's end-to-end benchmark. It drives
// one cell through the public surface only (DeployWith, NewSession,
// Session.Submit and the Handle), audits every outcome with the
// workload's Auditor, and prints each metric by name with its unit and
// sample count. The last line of standard output is one JSON object.
//
//	cellbench --workload core-tpcc --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 is a separate traced run that reports the per-layer metrics.
// --workload all runs every workload untraced and traced and prints the
// tracing overhead next to each end-to-end metric. A run whose outputs
// fail a correctness check exits non-zero and prints no numbers.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (s *summary) add(prefix string, ms []metric) {
	for _, m := range ms {
		s.Metrics[prefix+m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
}

func (s *summary) count(r *runResult) {
	s.Attempted += len(r.open) + len(r.closed)
	s.Failed += r.failedCount(r.open) + r.failedCount(r.closed)
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run (open plus closed loop)")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for write-ahead logs and span dumps")
	flag.Parse()
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "cellbench:", err)
		os.Exit(1)
	}
	// Output is held until every check has passed: a failed run prints
	// no numbers.
	var out bytes.Buffer
	var err error
	if *name == "all" {
		err = runAll(&out, *seed, *seconds, *workdir)
	} else {
		err = runOne(&out, *name, *seed, *seconds, *trace == 1, *workdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cellbench:", err)
		os.Exit(1)
	}
	os.Stdout.Write(out.Bytes())
}

func runOne(out io.Writer, name string, seed int64, seconds float64, traced bool, workdir string) error {
	w, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := runWorkload(w, seed, seconds, traced, workdir)
	if err != nil {
		return err
	}
	header(out, w, seed, seconds, traced)
	printRun(out, r)
	s := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	s.count(r)
	if traced {
		printMetrics(out, "per layer", r.layers())
		s.add("", r.perLayer())
	} else {
		s.add("", r.endToEnd())
	}
	return writeJSON(out, s)
}

// runAll runs every workload untraced and then traced.
func runAll(out io.Writer, seed int64, seconds float64, workdir string) error {
	s := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range specs {
		plain, err := runWorkload(w, seed, seconds, false, workdir)
		if err != nil {
			return err
		}
		traced, err := runWorkload(w, seed, seconds, true, workdir)
		if err != nil {
			return err
		}
		header(out, w, seed, seconds, false)
		printRun(out, plain)
		printMetrics(out, "per layer (traced run)", traced.layers())
		printOverhead(out, append(plain.endToEnd(), plain.throughputAndLatency()...), append(traced.endToEnd(), traced.throughputAndLatency()...))
		fmt.Fprintln(out)
		s.count(plain)
		s.add(w.name+".", plain.endToEnd())
		s.add(w.name+".", plain.throughputAndLatency())
		s.add(w.name+".", plain.unbounded())
		s.add(w.name+".", traced.layers())
	}
	return writeJSON(out, s)
}

// printRun prints what every run reports: the end-to-end numbers, the
// harness checks, the request counts and the run's validity.
func printRun(out io.Writer, r *runResult) {
	printMetrics(out, "end to end", r.endToEnd())
	printMetrics(out, "end to end, unbounded", r.throughputAndLatency())
	printMetrics(out, "end to end, unbounded, and harness checks", r.unbounded())
	describe(out, r)
}

func header(out io.Writer, w spec, seed int64, seconds float64, traced bool) {
	fmt.Fprintf(out, "== %s: %s cell, open loop %.0f/s then closed loop %d x %d in flight, seed %d, %.0f s, traced %v\n",
		w.name, w.model, w.rate, sessions, closedDepth, seed, seconds, traced)
}

func writeJSON(out io.Writer, s summary) error {
	raw, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", raw)
	return err
}
