#!/usr/bin/env bash
# Builds elevbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/elevbench/run.sh --workload live-chunked --seed 17 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the run's state.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
# The go command's configuration and telemetry live under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
# Stamp the commit into the binary only inside a git checkout.
vcs=false
if [ -e "$root/.git" ]; then
	vcs=auto
fi
(cd "$root/cmd/elevbench" && go build -buildvcs="$vcs" -o "$build/elevbench" .)
exec "$build/elevbench" "$@"
