// Command tcabench runs the repository's registered experiments
// (tca.Experiments) without the testing harness and prints one table per
// experiment, a line per grid row, the metrics under their summary keys. Use
// `go test -bench .` for the same rows as Benchmark* sub-benchmarks.
//
// Each row runs -repeats times, repeat r under seed base+r, where the
// base is -seed or, by default, the experiment's own seed (the one its
// Benchmark* uses). -json replaces the tables with a grid summary on
// stdout, which `make bench-json` writes to BENCH_latest.json. -grid
// runs the pinned gate rows instead of the sweeps and always emits the
// summary, which `make bench-gate` diffs against ci/bench_baseline.json.
//
// `tcabench -compare old.json new.json` diffs two summaries and flags
// throughput regressions beyond -threshold (default ±20%). When both
// sides carry repeat spreads the gate is std-aware: a delta inside
// 2× the pooled std is reported as noise, not failed. Rows present in
// old but missing from new fail the comparison outright.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"tca"
	"tca/internal/grid"
)

func main() {
	ops := flag.Int("ops", 500, "operations per row")
	experiment := flag.String("experiment", "all",
		"comma-separated experiments to run: f1,e6,e10,e16,e17,e18,e19,e20,e21,e22,e23,e24 (or all)")
	jsonOut := flag.Bool("json", false,
		"emit a machine-readable JSON summary on stdout instead of tables")
	compare := flag.Bool("compare", false,
		"compare two -json summaries instead of running: tcabench -compare old.json new.json")
	threshold := flag.Float64("threshold", 20,
		"with -compare, flag throughput deltas beyond this percentage")
	gridRun := flag.Bool("grid", false,
		"run the pinned gate rows instead of the sweeps; JSON summary on stdout")
	repeats := flag.Int("repeats", 1, "seeded repeats per row")
	seed := flag.Int64("seed", 0,
		"base seed (repeat r uses seed base+r); 0 keeps each experiment's own seed")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "tcabench: -compare needs exactly two summary files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold))
	}

	exps := tca.Experiments(*ops)
	selected := map[string]bool{}
	for _, name := range strings.Split(strings.ToLower(*experiment), ",") {
		name = strings.TrimSpace(name)
		valid := name == "all"
		for _, e := range exps {
			valid = valid || name == e.ID
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "tcabench: unknown experiment %q (use f1,e6,e10,e16,e17,e18,e19,e20,e21,e22,e23,e24 or all)\n", name)
			os.Exit(2)
		}
		selected[name] = true
	}
	sum := grid.Summary{OpsPerCell: *ops, Repeats: *repeats, BaseSeed: *seed}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, e := range exps {
		if !selected["all"] && !selected[e.ID] {
			continue
		}
		specs := e.Sweep
		if *gridRun {
			specs = e.Gate
		}
		var rows []grid.BenchRow
		for _, spec := range specs {
			spec.Repeats = *repeats
			if *seed != 0 {
				spec.BaseSeed = *seed
			}
			results, err := grid.RunObserved(spec, e.Run, func(row grid.Row, r int) {
				fmt.Fprintf(os.Stderr, "%s %s repeat %d/%d\n", spec.Experiment, row.Name(), r+1, spec.Repeats)
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcabench: %v\n", err)
				os.Exit(1)
			}
			for _, res := range results {
				rows = append(rows, res.BenchRow(spec))
			}
		}
		if *jsonOut || *gridRun {
			sum.Rows = append(sum.Rows, rows...)
		} else if len(rows) > 0 {
			printTable(w, e.ID, *repeats, rows)
		}
	}
	w.Flush()
	if *jsonOut || *gridRun {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintf(os.Stderr, "tcabench: %v\n", err)
			os.Exit(1)
		}
	}
}

// printTable prints one experiment's rows: the row name, then every
// metric the rows carry in key order. The range companions are left to
// the JSON summary, as is the std of a single repeat.
func printTable(w *tabwriter.Writer, id string, repeats int, rows []grid.BenchRow) {
	seen := map[string]bool{}
	var keys []string
	for _, r := range rows {
		for k := range r.Metrics {
			skip := k == "repeats" || strings.HasSuffix(k, "_min") || strings.HasSuffix(k, "_max") ||
				(repeats < 2 && strings.HasSuffix(k, "_std"))
			if !skip && !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s\t%s\n", id, strings.Join(keys, "\t"))
	for _, r := range rows {
		fmt.Fprint(w, r.Row)
		for _, k := range keys {
			if v, ok := r.Metrics[k]; ok {
				fmt.Fprintf(w, "\t%.1f", v)
			} else {
				fmt.Fprint(w, "\t-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// runCompare diffs two -json summaries through grid.Compare and prints
// every flagged delta. Throughput gating is std-aware when both sides
// carry repeat spreads: a delta beyond the percentage threshold but
// inside 2× the pooled std is reported as noise, not failed. Latency
// swings are informational. Returns the process exit code: 1 when any
// throughput metric regressed or any old row is missing from new, 0
// otherwise.
func runCompare(oldPath, newPath string, threshold float64) int {
	oldSum, err := grid.ReadSummary(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcabench: %v\n", err)
		return 2
	}
	newSum, err := grid.ReadSummary(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcabench: %v\n", err)
		return 2
	}
	if oldSum.OpsPerCell != newSum.OpsPerCell {
		fmt.Printf("note: ops_per_cell differs (%d vs %d) — rates are not directly comparable\n",
			oldSum.OpsPerCell, newSum.OpsPerCell)
	}
	res := grid.Compare(oldSum, newSum, grid.CompareOptions{ThresholdPct: threshold})
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "row\tmetric\told\tnew\tdelta\tpooled-std\tverdict")
	for _, d := range res.Deltas {
		verdict := map[string]string{
			"regression":  "REGRESSED",
			"improvement": "improved",
			"noise":       "noise (within repeat spread)",
			"latency":     "latency (informational)",
		}[d.Kind]
		std := "-"
		if d.PooledStd > 0 {
			std = fmt.Sprintf("%.1f", d.PooledStd)
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%+.1f%%\t%s\t%s\n",
			d.RowKey, d.Metric, d.Old, d.New, d.Pct, std, verdict)
	}
	for _, key := range res.Added {
		fmt.Fprintf(w, "%s\t(new row)\t-\t-\t-\t-\t-\n", key)
	}
	for _, key := range res.Missing {
		fmt.Fprintf(w, "%s\t(MISSING from new)\t-\t-\t-\t-\tFAILED\n", key)
	}
	w.Flush()
	fmt.Printf("%d metrics compared: %d regressed, %d improved, %d noise-suppressed beyond %.0f%%; %d rows missing\n",
		res.Compared, res.Regressions, res.Improvements, res.Suppressed, threshold, len(res.Missing))
	if res.Failed() {
		return 1
	}
	return 0
}
