#!/usr/bin/env bash
# Builds the repository benchmark from the sources in the current checkout
# and runs it with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload fig7-inproc --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. The Go build cache, the binary and the
# service's scratch cache all live under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/tmp" "$@"
