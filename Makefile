# verify is what CI runs (.github/workflows/ci.yml): formatting, vet,
# build, the full test suite under the race detector, and a one-iteration
# benchmark smoke pass so bench-only code paths can't rot unbuilt.
.PHONY: verify stress fmt test bench bench-smoke bench-json bench-gate bench-baseline

verify:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	go vet ./...
	go build ./...
	go test -race ./...
	$(MAKE) bench-smoke

# stress runs the concurrency tests under the race detector at GOMAXPROCS
# 1, 2, 4 and 8, STRESS_COUNT times each, so a retry loop that is only
# live on one core (or a race only two cores expose) fails here first:
# wound-wait restarts (actor transfers), store conflict retries, geo
# convergence on every cell, and pipelined submission on every cell.
STRESS_COUNT ?= 20
stress:
	@set -e; for p in 1 2 4 8; do \
		echo "== GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p go test -race -count $(STRESS_COUNT) \
			-run '^TestTxnConcurrentTransfersConserveMoney$$' ./internal/actor; \
		GOMAXPROCS=$$p go test -race -count $(STRESS_COUNT) \
			-run '^TestUpdateRetriesConflicts$$' ./internal/store; \
		GOMAXPROCS=$$p go test -race -count $(STRESS_COUNT) \
			-run '^(TestGeoAsyncConvergenceAllCells|TestConcurrentSubmitMatchesSerialReference)$$' .; \
	done

fmt:
	gofmt -w .

test:
	go test ./...

bench:
	go test -bench . -benchtime 1000x

# bench-smoke runs every benchmark exactly once (no tests): a fast
# compile-and-execute check for the bench-only code paths. The E21 pass
# through tcabench exercises one live-audited concurrency cell via the
# binary's own flag surface, so the incremental-auditor path can't rot;
# the E22 pass drives real-WAL core cells on throwaway temp-dir logs
# (removed when the run ends), so the durable-log path gets a real
# append+fsync+replay smoke on every verify; the E23 pass measures a
# capacity and sweeps offered load past it through the admission-control
# path (bounded queues, typed sheds, open-loop reservoirs) on every cell;
# the E24 pass deploys a 2-region async replica group and drives the
# geo-replication path end to end (shipping, convergence, staleness
# probe) plus the sequenced sweep through the same driver.
bench-smoke:
	go test -bench . -benchtime 1x -run '^$$'
	go run ./cmd/tcabench -experiment e21 -ops 24 > /dev/null
	go run ./cmd/tcabench -experiment e22 -ops 64 > /dev/null
	go run ./cmd/tcabench -experiment e23 -ops 16 > /dev/null
	go run ./cmd/tcabench -experiment e24 -ops 48 > /dev/null

# bench-json writes a machine-readable summary of the headline
# experiments to BENCH_latest.json so the perf trajectory can be tracked
# across PRs (compare the same row/metric between commits).
BENCH_OPS ?= 300
bench-json:
	go run ./cmd/tcabench -json -ops $(BENCH_OPS) > BENCH_latest.json
	@echo "wrote BENCH_latest.json"

# bench-gate is the pinned regression gate: run the statistical gate grid
# (tcabench -grid: E10's three load models, a model-mode E16 partition
# pair, one E23 shed-on overload point, one E24 2-region async geo point
# — each row GATE_REPEATS seeded repeats) and diff it against the
# checked-in baseline
# (ci/bench_baseline.json) with the std-aware compare: a throughput delta
# gates only when it exceeds ±20% AND 2× the pooled repeat std, and a row
# missing from the fresh run fails outright. The rows are pinned by
# construction, not the host: E10 drives workload.SpinService(1, 100µs)
# (capacity 10k ops/s), E16 runs the core on the modeled 80µs append (no
# filesystem), E23 offers a fixed 2000/s well below capacity so goodput
# tracks the offered rate, and E24 paces a 2-region async replica group
# at a fixed 500/s with modeled WAN latency (the gated read p99 is
# fabric-trace time). The grid JSON lands in BENCH_gate.json
# (CI uploads it as an artifact).
GATE_OPS ?= 8000
GATE_REPEATS ?= 3
bench-gate:
	go run ./cmd/tcabench -grid -ops $(GATE_OPS) -repeats $(GATE_REPEATS) -seed 1 > BENCH_gate.json
	go run ./cmd/tcabench -compare -threshold 20 ci/bench_baseline.json BENCH_gate.json

# bench-baseline regenerates the gate baseline in place — deliberately,
# with the same knobs as bench-gate, only when the harness or the gate
# grid itself changes.
bench-baseline:
	go run ./cmd/tcabench -grid -ops $(GATE_OPS) -repeats $(GATE_REPEATS) -seed 1 > ci/bench_baseline.json
	@echo "wrote ci/bench_baseline.json"
