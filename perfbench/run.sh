#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload mine --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory, the Go build cache and the go command's config
# included. Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command's config and telemetry live under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# VCS stamping feeds the provenance line; fall back without it when the
# checkout is not a usable repository.
if ! (cd "$here" && go build -o "$build/perfbench" . ) >&2 2>"$build/build.log"; then
	(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .) >&2
fi
exec "$build/perfbench" --out "$build" "$@"
