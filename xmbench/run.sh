#!/usr/bin/env bash
# Builds xmorphd and the benchmark from this checkout, then runs one
# benchmark run; every argument is passed on (see xmbench -h).
#
#   bash xmbench/run.sh --workload query-cold --seed 1 --seconds 40 --trace 0
#
# Everything built or written stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d cmd/xmorphd ]]; then
	echo "run.sh: no xmorph sources (go.mod, cmd/xmorphd) in $PWD" >&2
	exit 1
fi
out=.bench_build
mkdir -p "$out/bin"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" GOPATH="$PWD/$out/gopath"
export XDG_CONFIG_HOME="$PWD/$out/config" # the go command's own config and telemetry files
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
# Any other go command may start a detached telemetry process that
# outlives this script; with telemetry off none is started.
go telemetry off
go build -o "$out/bin/xmorphd" ./cmd/xmorphd
(cd xmbench && go build -o "../$out/bin/xmbench" .)
exec "$out/bin/xmbench" "$@"
