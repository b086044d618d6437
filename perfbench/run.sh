#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it with
# the given arguments, e.g.
#
#	bash perfbench/run.sh --workload paper --seed 42 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Every file the build and the run
# write (Go build cache, binary, temporary campaign directories) lands
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -C "$root/perfbench" -o "$out/perfbench" .

exec "$out/perfbench" "$@"
