#!/bin/sh
# check.sh — the full verification gate: build, each CLI's -h, vet,
# format, hvaclint, then the test suite under the race detector (the
# data-path packages at three core counts). CI runs exactly this; run it
# locally before sending a change.
set -eu

cd "$(dirname "$0")/.."

echo '--- go build ./...'
go build ./...

# The CLIs have no tests, and a flag set that panics at registration (a
# duplicate name, a bad default) is otherwise found at deploy time: -h
# registers every flag, prints the usage and must exit 0.
echo '--- cmd/*: -h'
for d in cmd/*/; do
	go run "./$d" -h >/dev/null 2>&1 || {
		echo "check: go run ./$d -h failed" >&2
		exit 1
	}
done

echo '--- go vet ./...'
go vet ./...

echo '--- gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# -stats prints per-analyzer finding counts and wall time, so a gate
# failure names the rule that tripped it and a slow gate names the
# analyzer that costs it.
echo '--- go run ./cmd/hvaclint -stats ./...'
go run ./cmd/hvaclint -stats ./...

# The data path runs at three core counts: its schedule-dependent bugs
# (a handle closed under a read, the cachestore residency window, the
# single-flight residency window) hid on single-vCPU boxes. The rest of ./... stays at the default so the gate's
# wall-clock does not triple.
echo '--- go test -race: data path at -cpu 1,2,4, the rest at the default'
go test -race -cpu 1,2,4 ./internal/core ./internal/cachestore ./internal/transport
go test -race $(go list ./... | grep -v -E '/internal/(core|cachestore|transport)$')

# Entries keep their cache files open up to half of RLIMIT_NOFILE; past
# that a lease opens its own descriptor, and an eviction has no descriptor
# to hand to the fill that caused it. A runner's limit is far above what
# the tests cache, so run the descriptor tests — budget, leases, the
# recycling churn and the store model — once more under a limit they
# outnumber.
echo "--- descriptor budget, recycle and model tests under ulimit -n 256"
(ulimit -n 256 && go test -count=1 -run 'Budget|Lease|Recycle|HandsOver|StoreModel' ./internal/cachestore ./internal/core)

echo '--- chaos tier (go test -race -shuffle=on)'
go test -race -shuffle=on -run Chaos ./internal/core
go test -race -shuffle=on ./internal/faultnet

echo 'check: OK'
