GO ?= go

.PHONY: build test race lint lint-stats check chaos bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Only hvaclint, with per-analyzer counts and wall time: the fast
# pre-commit path. RULES=a,b restricts the run to named analyzers.
# The full gate (make check) still runs build/vet/gofmt/tests around it.
lint:
	$(GO) run ./cmd/hvaclint -stats $(if $(RULES),-rules $(RULES)) ./...

# Per-analyzer wall time without the findings stream: -stats writes to
# stderr, stdout is dropped. Keeps suite growth accountable — a new
# analyzer that doubles lint time shows up here, named.
lint-stats:
	@$(GO) run ./cmd/hvaclint -stats $(if $(RULES),-rules $(RULES)) ./... > /dev/null || true

# The full gate: what CI runs, and what a change must pass before review.
check:
	./scripts/check.sh

# The chaos tier: seeded fault schedules over real TCP clusters, under the
# race detector with shuffled test order (DESIGN.md §7). A local target:
# CI gets the matrix from check.sh, which runs it shuffled as its last step.
chaos:
	$(GO) test -race -shuffle=on -v -run Chaos ./internal/core
	$(GO) test -race -shuffle=on -v ./internal/faultnet ./internal/testutil
	$(GO) test -race -shuffle=on -v -run 'Retry|Call|TimedOut|Truncated' ./internal/transport

# The epoch benchmark, as BENCHMARK.json declares it: four workloads end
# to end, one JSON result line each (bench/README.md).
bench:
	sh bench/run.sh
