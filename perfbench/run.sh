#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-lan --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories) goes under $CARGO_TARGET_DIR, default .bench_build, inside the
# current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --workdir "$out" --commit "$commit" "$@"
