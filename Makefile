GO ?= go

.PHONY: build test race lint check chaos bench figures

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

# The full gate: what CI runs, and what a change must pass before review.
check:
	./scripts/check.sh

# The chaos tier: seeded fault schedules over real clusters, under the
# race detector with shuffled test order (DESIGN.md §9.2). The list lives
# in scripts/chaos.sh, which check.sh (what CI runs) also runs as its last
# step, so this target and the gate cannot drift apart.
chaos:
	./scripts/chaos.sh -v

# The epoch benchmark, as BENCHMARK.json declares it: four workloads end
# to end, one JSON result line each (bench/README.md).
bench:
	sh bench/run.sh

# The figure gate: regenerate every table and figure of the paper's
# evaluation (seed 42) and diff it against the committed
# results_scaled.txt. Seeded sim runs replay bit for bit, so any
# difference is a change in what the code reproduces; a change that means
# to move a digit regenerates the file in the same commit. About 15 min on
# a 2-core box, so CI runs it as its own job beside check.sh.
figures:
	$(GO) run ./cmd/hvacbench -experiment all -seed 42 -quiet > figures.out
	diff -u results_scaled.txt figures.out > figures.diff || { cat figures.diff; exit 1; }
	rm -f figures.out figures.diff
