#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# flags, e.g. from the repository root:
#
#   bash atpgbench/run.sh --workload paper_tran --seed 1 --seconds 20 --trace 0
#
# The build, its Go cache and the run's working files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export CARGO_TARGET_DIR=$out
(cd "$root/atpgbench" && go build -o "$out/atpgbench" .)
exec "$out/atpgbench" "$@"
