#!/bin/sh
# run.sh is BENCHMARK.json's command: it builds ./bench from the checkout
# it is started in and runs it with the driver's arguments. The Go build
# cache, Go's temp files and the benchmark's fallback workdir all stay
# under .bench_build in the checkout; the dataset itself goes to /dev/shm
# when that is a tmpfs with room (see README.md) and is removed on exit.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -o "$build/hvac-bench" ./bench
exec "$build/hvac-bench" "$@"
