# Build/test/benchmark entry points. The E8 set is the native-engine
# benchmark suite of DESIGN.md's per-experiment index: commit-pipeline
# ablation (clock strategies × timestamp extension), contention sweeps,
# and the transactional-container regressions.

GO ?= go

# PR names the committed perf-baseline label: bench-baseline writes
# BENCH_$(PR).json and bench-diff/bench-delta/bench-gate read it — the one
# place the baseline is named (CI calls bench-delta). Override per PR
# line (make bench-baseline PR=PR9) instead of hand-editing the recipes.
PR ?= PR41
BASELINE = BENCH_$(PR).json

# -cpu 4 pins the GOMAXPROCS≥4 regime the contention benchmarks target;
# -count 8 gives benchdiff's min-vs-min gate a usable per-cell minimum —
# on a shared host the per-run distribution is heavy-tailed upward (true
# spreads of 40%+ were measured on cells whose 5-run range looked like
# 15%), and the minimum of too few samples lands in the tail often enough
# to fail one arbitrary cell per gate run; 0.2s per benchmark keeps the
# full sweep under ten minutes. The set covers E8 (commit
# pipeline, containers), the native E9 scenarios (ordered-index scans,
# reservations), the native E10 read-mostly serving scenario plus the
# read-only fast-path acceptance pair (BenchmarkROFastPath), the native
# E11 long-scan/HTAP scenario (stm vs stm/mvstm), the native E12
# hostile-tenant scenario (baseline/unmetered/metered cells), and the
# native STAMP-shaped trio — E13 graph routing (write-set promotion),
# E14 clustering (contended point RMWs), E15 pipeline (stm.Queue
# blocking handoff); benchdiff ignores names absent from an older
# baseline. The two router cells (BenchmarkRouterBatch, BenchmarkRouterScan
# in internal/server) enter the serving tier below the codec: a 16-op
# cross-shard transfer batch and a 100-entry scan page, on both engines.
# The four handler cells (BenchmarkHandlerGet/Put/Batch/Scan) enter it one
# layer up, at Server.Handler().ServeHTTP with no socket, so a handler
# cell minus the router cell below it is the codec and the middlewares.
# BenchmarkMVTransfer (stm/mvstm) is the multi-version engine's smallest
# update transaction, the cell that holds its write path at 0 allocs/op.
E8_BENCH = BenchmarkE8|BenchmarkE9Native|BenchmarkE10Native|BenchmarkE11Native|BenchmarkE12Hostile|BenchmarkE13GraphRouting|BenchmarkE14Clustering|BenchmarkE15Pipeline|BenchmarkROFastPath|BenchmarkVarContended|BenchmarkContentionSweep|BenchmarkMapDisjointPut|BenchmarkMapMixed|BenchmarkOrderedMap|BenchmarkRouter|BenchmarkHandler|BenchmarkMVTransfer
# -benchmem records B/op and allocs/op in every baseline — the input the
# bench-gate zero-allocation assertion reads.
E8_FLAGS = -run '^$$' -bench '$(E8_BENCH)' -benchtime 0.2s -count 8 -cpu 4 -benchmem -timeout 30m
E8_PKGS = . ./stm ./stm/mvstm ./internal/server

# ZEROALLOC names the steady-state cells that must never allocate: the
# mvstm snapshot cells of the E11 HTAP scan (pooled version chains), both
# read-only fast-path cells, a GET /get from the handler down (pooled
# codec, a one-read read-only transaction), and the mvstm two-Var
# transfer (typed chains: a committed Set writes into a pooled chain
# build). bench-gate fails if any of them reports a nonzero allocs/op.
# The writers=4 mvstm cells run five pinned goroutines on four Ps at
# -cpu 4, so one is often descheduled mid-pin and freezes the epoch floor
# for a scheduler quantum; the retired lists' version budget rides that
# out and pools every chain once it ends (see "Pooled version chains" in
# DESIGN.md), so those cells are gated like the rest.
ZEROALLOC = E11NativeScan/.*/engine=mvstm|BenchmarkROFastPath|BenchmarkHandlerGet|BenchmarkMVTransfer

.PHONY: test race loc server-test bench-smoke bench-e8 bench-baseline bench-diff bench-delta bench-gate bench-scaling fuzz-smoke overhead-smoke docs-check

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# loc prints the figure ROADMAP.md tracks as "non-test Go lines": every
# tracked .go file that is neither a test nor part of bench/ (the
# benchmark harness is its own module and is not what the north star asks
# to shrink).
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs cat | wc -l

# server-test is the serving-tier gate the CI server job runs: the
# internal/server integration suite (including the Prometheus exposition
# golden test), the observability packages, and the tmserve/tmstat wiring
# under -race, then a tmload smoke sweep against in-process servers.
server-test:
	$(GO) test -race -count=1 ./internal/server ./internal/loghist ./internal/telemetry \
	  ./cmd/tmserve ./cmd/tmload ./cmd/tmstat
	$(GO) run ./cmd/tmload -smoke
	$(GO) run ./cmd/tmload -smoke -engine mvstm

# bench-smoke checks the repository benchmark's harness (bench/ is a
# module of its own, so the root module's build and tests do not see it):
# vet, its unit tests, and a tiny-sized run of all five workloads with
# every reply verified. It measures nothing; the measured run is
# `go run -C bench .` (see bench/README.md).
bench-smoke:
	$(GO) vet -C bench .
	$(GO) test -C bench .
	$(GO) run -C bench . -smoke

# bench-e8 runs the E8 suite once and leaves the raw output in
# bench_e8.txt (also the input format benchdiff accepts as -new).
bench-e8:
	$(GO) test $(E8_FLAGS) $(E8_PKGS) | tee bench_e8.txt

# bench-baseline records the committed perf baseline for this PR line:
# re-runs the E8 suite and regenerates BENCH_$(PR).json. Commit the
# result so later PRs have a trajectory to compare against.
bench-baseline:
	$(GO) test $(E8_FLAGS) $(E8_PKGS) | tee bench_e8.txt
	$(GO) run ./cmd/benchdiff -record -new bench_e8.txt -label $(PR) \
	  -command "go test $(E8_FLAGS) $(E8_PKGS)" -out $(BASELINE)

# bench-diff compares a fresh E8 run against the committed baseline;
# report-only (never fails on a regression).
bench-diff:
	$(GO) test $(E8_FLAGS) $(E8_PKGS) > bench_new.txt
	$(GO) run ./cmd/benchdiff -baseline $(BASELINE) -new bench_new.txt

# bench-delta is the CI job's report: an existing bench_e8.txt (from
# bench-e8) against the committed baseline, restricted to the units that
# mean the same on any machine — the baseline was recorded on different
# hardware, so ns/op is left out.
PORTABLE_UNITS = abort-ratio,allocs/op,B/key,objects/key,extensions/txn,ro-commit-fraction,read-aborts/op
bench-delta:
	$(GO) run ./cmd/benchdiff -baseline $(BASELINE) -new bench_e8.txt -units '$(PORTABLE_UNITS)'

# bench-gate is the enforcing variant: passing -threshold makes benchdiff
# exit non-zero when an ns/op regression survives its noise calibrations
# (min-vs-min comparison, suite-median era-shift normalization, per-cell
# spread tolerance — see cmd/benchdiff), and -zeroalloc fails the run if
# any steady-state cell allocates in every -count run. The 25% threshold
# is calibrated to the measured same-source residual ceiling on a shared
# host: repeated baseline-vs-gate pairs of IDENTICAL code left ~20%
# residuals on some cell nearly every run, so gating below that only
# measures the neighbors. Run it on hardware comparable to the committed
# baseline; the CI job deliberately stays report-only because shared
# runners make wall-clock deltas noise (the allocation assertion, by
# contrast, is hardware-free).
bench-gate:
	$(GO) test $(E8_FLAGS) $(E8_PKGS) > bench_new.txt
	$(GO) run ./cmd/benchdiff -baseline $(BASELINE) -new bench_new.txt \
	  -threshold 0.25 -zeroalloc '$(ZEROALLOC)'

# bench-scaling is the high-core commit-pipeline scaling row: the
# contended clock-strategy sweep and the E11 HTAP scan at -cpu 16 and 32,
# where the GV7 block allocator's fetch-add amortization separates from
# GV4's per-commit CAS. Report-only; compare the -16/-32 rows by eye or
# feed scaling.txt to benchstat.
bench-scaling:
	$(GO) test -run '^$$' -bench 'BenchmarkVarContended|BenchmarkE11NativeScan' \
	  -benchtime 0.2s -count 3 -cpu 16,32 -benchmem -timeout 30m . ./stm | tee scaling.txt

# fuzz-smoke runs each fuzz target briefly against the differential models
# (the same invocations as the CI fuzz job): the containers against plain
# maps, the mvstm engine against a model map with a pinned-snapshot
# reader racing writers and the GC, the metering layer against the
# unmetered engine (a refusal must change nothing, a commit everything),
# and the contention sketch against a sequential frequency model (the
# space-saving overestimate bound must hold on arbitrary id streams), and
# the serving tier's hand-written wire codec against encoding/json in both
# directions (accept/refuse and decoded ops; reply bytes).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzMap$$' -fuzztime 10s ./stm
	$(GO) test -run '^$$' -fuzz '^FuzzOrderedMap$$' -fuzztime 10s ./stm
	$(GO) test -run '^$$' -fuzz '^FuzzMVStm$$' -fuzztime 10s ./stm/mvstm
	$(GO) test -run '^$$' -fuzz '^FuzzBudget$$' -fuzztime 10s ./stm
	$(GO) test -run '^$$' -fuzz '^FuzzSketch$$' -fuzztime 10s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeOp$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeReply$$' -fuzztime 10s ./internal/server

# overhead-smoke is the telemetry A/B gate mirroring the PR 6 metering
# discipline: the uncontended transaction round-trip with telemetry off
# vs with a sketch installed and a sparse latency-sampling period, must
# differ by under 3% (interleaved min-of-N, see stm/overhead_test.go).
# Env-gated so `go test ./...` stays deterministic on loaded machines;
# run it on quiet hardware when touching the engines' begin/commit paths.
overhead-smoke:
	TM_OVERHEAD_SMOKE=1 $(GO) test -run '^TestTelemetryOffOverhead$$' -count=1 -v ./stm

# ONE_DEFINITION lists the cross-cutting engine pieces internal/enginekit
# owns (either capitalisation): docs-check fails if any is defined in more
# than one non-test file, so the per-engine copies cannot grow back.
ONE_DEFINITION = 'type [aA]bortReasons struct' 'func [rR]unAttempt[\[(]' \
  'type traceCollector struct' 'func (\(.*\) )?[sS]etSyncHook\(' '\) [cC]hargeSoft\('

# docs-check keeps the documentation executable: formatting, vet, and
# every Example function in the repository (the README quickstart mirrors
# ExampleAtomically, so a rotted example fails CI here) — and the
# one-definition rule above. It also fails when the index holds a path
# .gitignore ignores: a build product committed by accident.
docs-check:
	@ignored=$$(git ls-files -ci --exclude-standard); if [ -n "$$ignored" ]; then \
	  echo "tracked although .gitignore ignores them (git rm --cached):"; echo "$$ignored"; exit 1; fi
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
	  echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@for pat in $(ONE_DEFINITION); do \
	  files=$$(git ls-files '*.go' | grep -v '_test\.go$$' | xargs grep -lE "$$pat"); \
	  if [ $$(echo "$$files" | grep -c .) -gt 1 ]; then \
	    echo "defined more than once ($$pat):"; echo "$$files"; exit 1; fi; done
	$(GO) vet ./...
	$(GO) test -run Example ./...
