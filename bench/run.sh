#!/usr/bin/env bash
# Builds telcobench inside the checkout and runs it; every argument is
# passed through (see README.md). The Go build cache lives in the
# checkout too, so a run leaves nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/bin/telcobench .
exec .bench_build/bin/telcobench -root "$PWD" "$@"
