#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from and
# runs it with the given arguments:
#
#   bash _perfbench/run.sh --workload fork-testbed --seed 1 --seconds 55 --trace 0
#
# Every file the build writes (binary, Go build cache, temporary files)
# stays under the build directory: $CARGO_TARGET_DIR if set, else
# .bench_build, relative to the directory the command runs from.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
