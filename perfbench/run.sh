#!/usr/bin/env bash
# Builds the benchmark and cmd/mdserver from the checkout this script
# sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload psa-atoms --seed 1 --seconds 20 --trace 0
#
# Every build product and the Go build cache live under .bench_build/
# at the checkout root, so a run reads and writes only inside the
# checkout. Without the repository around perfbench/ the build fails and
# the script exits non-zero before printing a result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" GOFLAGS=-mod=readonly
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local
cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/mdserver" mdtask/cmd/mdserver
cd "$root"
exec "$out/bin/perfbench" -mdserver "$out/bin/mdserver" -workdir "$out/run" "$@"
