#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tori-k5 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Everything the build and the run write
# (Go build cache, binary, span files) goes under $CARGO_TARGET_DIR, by
# default .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/perfbench"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# The commit goes into the result stamp; the checkout need not be a git
# repository, so the build does not ask for VCS information itself.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
	commit=$commit+dirty
fi
export PERFBENCH_COMMIT=$commit

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
