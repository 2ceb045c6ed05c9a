# Tier-1 checks for the symsim repository. `make check` is the gate every
# change must pass: a full build, go vet plus the self-hosted symsimvet
# suite, formatting, and the race-enabled test suite.

GO ?= go

.PHONY: check fmt vet symsimvet build test race lint bench benchmark-check chaos

check: build vet symsimvet fmt benchmark-check race

# gofmt -l prints offending files; fail when any are listed.
fmt:
	@out="$$(gofmt -l . 2>/dev/null | grep -v '^related/' || true)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The self-hosted static-analysis suite (SA000-SA006, see DESIGN.md §11).
symsimvet:
	$(GO) run ./cmd/symsimvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

race:
	$(GO) test -race -timeout 10m ./...

# benchmark/ is its own module (the PR driver's end-to-end benchmark), so
# ./... never compiles it: vet and test it here, or a vvp/core API change
# breaks the benchmark with no signal. Under 5 s.
benchmark-check:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# Chaos gate: the fault-injection torture matrix under the race detector.
# The crash-point sweep derives its matrix from a fault-free probe run
# (every store operation becomes a crash point) and the seeded sweep uses
# fixed seeds, so the job is fully deterministic and reproducible — a
# failure names either its crash point (crash@K) or its seed (seed=N),
# and `go test -run 'TestStoreCrashPointSweep/crash@K'` replays it.
chaos:
	$(GO) test -race -timeout 15m -count=1 ./internal/fault/
	$(GO) test -race -timeout 15m -count=1 \
		-run 'TestStoreCrashPointSweep|TestStoreSeededFaultSweep|TestCrashBetweenCreateTempAndRenameReapsOrphan|TestCorruptCache|TestSubmitRefusedWhileStoreDown|TestLease' \
		./internal/service/
	$(GO) test -race -timeout 5m -count=1 ./cmd/symsim/

# Structural lint over the three shipped processors.
lint:
	$(GO) run ./cmd/symsim lint -design all

# Performance trajectory: the Table-3/4 evaluation benchmarks plus the
# engine comparison, the steady-state allocation check (with the idle
# core's edge rows, kernel/idle/*, whose posedge holds the memory ports)
# and the scalar restore + snapshot
# turnover, recorded as BENCH_kernel.json (ns/cycle, allocs/cycle per CPU x
# benchmark) so future changes have numbers to diff against.
# BENCH_obs.json records the observability overhead comparison (tracing
# off vs on) the same way. BENCH_batch.json records the bit-parallel
# batched kernel: aggregate lane-steps/s of batch-N vs scalar-N, the cost
# of one lane turnover (retire + restore + snapshot) and the end-to-end
# kernel-vs-batch co-analysis comparison.
# The fleet is measured by benchmark/ alone (workload table4_fleet,
# cluster.fleet_speedup and cluster.rpcs_per_path; DESIGN.md §14).
# BENCHTIME trades accuracy for wall time; CI uses 1x. Every stanza runs
# its benchmarks five times and benchjson folds the five lines into a
# median with the minimum beside it: one 2-iteration line moves by tens of
# percent on a shared machine (DESIGN.md §13).
BENCHTIME ?= 2x
BENCH_PAT ?= BenchmarkTable3GateCounts|BenchmarkTable4Paths|BenchmarkEngineComparison|BenchmarkSettleSteadyState|BenchmarkNewSimulator|BenchmarkRestoreTurnover
BENCH_OBS_PAT ?= BenchmarkObsOverhead
BENCH_BATCH_PAT ?= BenchmarkBatchKernelSweep|BenchmarkBatchLaneTurnover|BenchmarkBatchAnalyze
# $(call bench-json,pattern,output.txt,BENCH_x.json)
define bench-json
	$(GO) test -run '^$$' -bench '$(1)' -benchmem -benchtime $(BENCHTIME) -count 5 -timeout 30m . \
		| tee $(2)
	$(GO) run ./cmd/benchjson -o $(3) $(2)
	@rm -f $(2)
	@echo "wrote $(3)"
endef
bench:
	$(call bench-json,$(BENCH_PAT),bench_output.txt,BENCH_kernel.json)
	$(call bench-json,$(BENCH_OBS_PAT),bench_obs_output.txt,BENCH_obs.json)
	$(call bench-json,$(BENCH_BATCH_PAT),bench_batch_output.txt,BENCH_batch.json)
