#!/bin/sh
# check.sh — the full verification gate: build, each CLI's -h, vet,
# format, hvaclint, then the test suite under the race detector (the
# data-path packages at three core counts). CI runs exactly this; run it
# locally before sending a change.
set -eu

cd "$(dirname "$0")/.."

echo '--- go build ./...'
go build ./...

# The platform stubs (descriptor limit, sendfile, file mapping) compile on
# no Linux box: build for a unix without sendfile and for a non-unix.
echo '--- GOOS=darwin, GOOS=windows go build ./...'
GOOS=darwin go build ./...
GOOS=windows go build ./...

# 32-bit Linux narrows some syscall fields to int32, and 386 has no
# SYS_SENDMSG (the descriptor plane compiles its stub there). hvac/bench
# is left out: its statfs arithmetic does not build on arm yet.
echo '--- GOOS=linux GOARCH=386, GOARCH=arm go build (all but hvac/bench)'
pkgs=$(go list ./... | grep -v '^hvac/bench$')
GOOS=linux GOARCH=386 go build $pkgs
GOOS=linux GOARCH=arm go build $pkgs

# 386 binaries run on an amd64 runner, so the data path's tests run there
# too: with the descriptor plane stubbed there is no local socket either,
# and every "local" subtest skips while the TCP ones must pass as they do
# on 64 bits.
echo '--- GOOS=linux GOARCH=386 go test ./internal/transport ./internal/core'
GOOS=linux GOARCH=386 go test ./internal/transport ./internal/core

# hvacbench has no test of its own (make figures runs it, outside this
# gate), and a flag set that panics at registration (a duplicate name, a
# bad default) is otherwise found at deploy time: -h registers every flag,
# prints the usage and must exit 0. It costs little, so every CLI runs it.
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
# single-flight residency window) hid on single-vCPU boxes. Every sample
# buffer crosses the slab's one mutex, so the slab and the loader that
# puts buffers back run there too. The rest of ./... stays at the default so the gate's
# wall-clock does not triple. The analyzers and their driver start no
# goroutine, so the race detector has nothing to find there and only
# multiplies their run time several-fold: they run without it.
echo '--- go test -race: data path at -cpu 1,2,4, the rest at the default; analyzers without -race'
go test -race -cpu 1,2,4 ./internal/core ./internal/cachestore ./internal/transport ./internal/slab ./loader
go test -race $(go list ./... | grep -v -E '/internal/(core|cachestore|transport|slab)$|^hvac/loader$|/internal/analysis(/|$)|/cmd/hvaclint$')
go test ./internal/analysis/... ./cmd/hvaclint

# Entries keep their cache files open up to half of RLIMIT_NOFILE; past
# that a lease opens its own descriptor, and an eviction has no descriptor
# to hand to the fill that caused it. A runner's limit is far above what
# the tests cache, so run the descriptor tests — budget, leases, the
# recycling churn, the store model, a dirty cache dir and the sendfile
# lease hold — once more under a limit they outnumber.
echo "--- descriptor budget, recycle and model tests under ulimit -n 256"
(ulimit -n 256 && go test -count=1 -run 'Budget|Lease|Recycle|HandsOver|StoreModel|DirtyDir|NextRequest' ./internal/cachestore ./internal/core ./internal/transport)

# A recycled cache file is overwritten in place, so a file whose pages a
# socket may still be sending must stay leased until the peer asks again.
# The churn below is the one dynamic check of that rule, and a single run
# can miss the interleaving that breaks it. A close is queued on its link
# and has no reply: it leaves in the write of the link's next request, or
# at Client.Close, and whether the server's buffered read takes the queued
# closes with the request behind them in one read is a matter of timing:
# the two deferral tests run as often.
echo '--- sendfile recycle churn and deferred closes, 20 runs'
go test -count=20 -run 'TestStressChurnRecyclesAroundSendfile|TestDeferredClosesReachServerByClientClose' ./internal/core
go test -count=20 -run TestDeferredCallRidesWithNextCall ./internal/transport

echo '--- chaos tier (scripts/chaos.sh: go test -race -shuffle=on)'
./scripts/chaos.sh

echo 'check: OK'
