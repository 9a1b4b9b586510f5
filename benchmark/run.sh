#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind lands in benchmark/out/ (git-ignored), including Go's
# build cache, so a run never touches anything outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$PWD/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/hsbench" .
exec "$out/hsbench" -out "$out" "$@"
