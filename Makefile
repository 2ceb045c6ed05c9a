# Tier-1 checks for the symsim repository. `make check` is the gate every
# change must pass: a full build, go vet plus the self-hosted symsimvet
# suite, formatting, and the race-enabled test suite.

GO ?= go

.PHONY: check fmt vet symsimvet build test race lint benchmark-check chaos

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

# benchmark/ is its own module and the repository's one performance record
# (go run -C benchmark .; benchmark/README.md), so ./... never compiles
# it: vet and test it here, or a vvp/core API change breaks the benchmark
# with no signal. Under 5 s.
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
		-run 'TestStoreCrashPointSweep|TestStoreSeededFaultSweep|TestCrashBetweenCreateTempAndRenameReapsOrphan|TestCorruptCache|TestSubmitRefusedWhileStoreDown' \
		./internal/service/
	$(GO) test -race -timeout 5m -count=1 ./cmd/symsim/

# Structural lint over the three shipped processors.
lint:
	$(GO) run ./cmd/symsim lint -design all
