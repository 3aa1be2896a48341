#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. The
# build cache, temporary files and the binary stay under .bench_build/ at the
# repository root, so nothing is written outside the checkout.
#
# From the repository root:
#   bash bench/run.sh --workload fig5-4k --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1 --out result.json     # every workload, as tables
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -buildvcs=false -o "$out/perfbench" ./perfbench)
exec "$out/perfbench" "$@"
