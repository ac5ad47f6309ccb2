#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload fig8-sweep --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/perfbench"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p "$GOCACHE" "$GOPATH" "$XDG_CONFIG_HOME" "$TMPDIR"

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

go -C "$root/perfbench" build -buildvcs=false -o "$build/perfbench/perfbench" . >&2
exec "$build/perfbench/perfbench" -out "$build/perfbench" -commit "$commit" "$@"
