#!/usr/bin/env bash
# Builds the salsad pipeline benchmark from the sources of the checkout it
# sits in, then runs it with the given flags, e.g.
#
#	bash pipebench/run.sh --workload fanin-mixed --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/xdg"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/xdg

(cd "$root/pipebench" && go build -o "$out/pipebench" .)
cd "$root"
exec "$out/pipebench" "$@"
