#!/usr/bin/env bash
# Benchmarks a base revision against the working tree with the paired
# protocol a performance claim needs (see cellbench/README.md): PAIRS
# alternating untraced runs of cellbench/run.sh on one workload, the base
# checked out in a git worktree under .bench_build/, flipping which side
# runs first on every pair. Pair i runs seed SEED+i on both sides. It
# prints every run as it finishes, then, per end-to-end metric of
# BENCHMARK.json, each side's median and quartiles (Python's
# statistics.quantiles(n=4)) and how many pairs the working tree won.
# Every run lasts BENCHMARK.json's run_seconds, as the benchmark's own do.
#
#   make bench-pairs BASE=<rev> WORKLOAD=<name> PAIRS=10 SEED=<first>
#   bash ci/bench_pairs.sh <rev> <workload> [pairs] [first seed]
#
# Run it from inside the repository, with nothing else running: the runs
# measure CPU time on a shared host.
set -euo pipefail

usage="usage: ci/bench_pairs.sh BASE WORKLOAD [PAIRS] [SEED]"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seed=${4:-1}

root="$(git rev-parse --show-toplevel)"
cd "$root"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
rev="$(git rev-parse --verify "$base^{commit}")"
mkdir -p .bench_build
tree="$root/.bench_build/base-${rev:0:12}"
git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --detach "$tree" "$rev" >/dev/null
results="$(mktemp "$root/.bench_build/pairs.XXXXXX")"
trap 'git worktree remove --force "$tree"; rm -f "$results"' EXIT

echo "bench-pairs: $workload, base $base (${rev:0:12}) vs working tree, $pairs pairs from seed $seed, $seconds s"
# run SIDE DIR SEED: one untraced run; its last output line is the JSON
# summary.
run() {
	local line
	line="$(bash "$2/cellbench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)"
	echo "$1 $3 $line" | tee -a "$results"
}
for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	if ((i % 2 == 0)); then
		run base "$tree" "$s"
		run change "$root" "$s"
	else
		run change "$root" "$s"
		run base "$tree" "$s"
	fi
done

python3 - "$results" BENCHMARK.json <<'EOF'
import json
import statistics
import sys

runs = {"base": {}, "change": {}}
for line in open(sys.argv[1]):
    side, seed, summary = line.split(" ", 2)
    runs[side][int(seed)] = json.loads(summary)
bench = json.load(open(sys.argv[2]))
seeds = sorted(runs["base"])

def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0]
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return q1, q3

for side in ("base", "change"):
    bad = [s for s in seeds if not runs[side][s]["correct"] or runs[side][s]["failed"]]
    failed = sum(runs[side][s]["failed"] for s in seeds)
    attempted = sum(runs[side][s]["attempted"] for s in seeds)
    print(f"{side}: failed {failed} of {attempted} requests; runs not correct or with failures: {bad or 'none'}")
print(f"{'metric':<16} {'side':<7} {'median':>10} {'Q1':>10} {'Q3':>10}   wins")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    vals = {side: [runs[side][s]["metrics"][name]["value"] for s in seeds] for side in runs}
    wins = sum((c < b) if lower else (c > b) for b, c in zip(vals["base"], vals["change"]))
    for side in ("base", "change"):
        q1, q3 = quartiles(vals[side])
        tail = f"{wins}/{len(seeds)}" if side == "change" else ""
        print(f"{name:<16} {side:<7} {statistics.median(vals[side]):>10.4g} {q1:>10.4g} {q3:>10.4g}   {tail}")
    base_med = statistics.median(vals["base"])
    change = statistics.median(vals["change"]) / base_med - 1 if base_med else float("nan")
    q1, q3 = quartiles(vals["base"])
    print(f"{'':<16} change in median {change:+.1%} ({m['better']} is better, bound {m['bound']:.0%}); base IQR {q3 - q1:.4g}")
EOF
