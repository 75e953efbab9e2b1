#!/bin/sh
# chaos.sh — the chaos tier: seeded fault schedules over real clusters
# (the core matrix and its failover tests), the fault injector and the
# test harness, and the transport's retry, deadline and truncation tests,
# its descriptor-plane and batch tests, its close-queue tests and its
# borrowed-payload (splice and file-payload) tests, and training through
# two servers while one stops (Fig. 14's claim), all under the race
# detector in shuffled order (DESIGN.md §9.2). The
# check gate runs it as its last step and `make chaos` runs it alone.
# Arguments are passed to every go test, e.g. `scripts/chaos.sh -v`.
set -eu

cd "$(dirname "$0")/.."

go test -race -shuffle=on "$@" -run Chaos ./internal/core
go test -race -shuffle=on "$@" ./internal/faultnet ./internal/testutil
go test -race -shuffle=on "$@" -run 'Retry|Call|TimedOut|Truncated|Pass|Batch|Close|Splice|FileResponse|FilePayload' ./internal/transport
go test -race -shuffle=on "$@" -run TestTrainingThroughHVACIsBitIdentical .
