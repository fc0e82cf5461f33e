#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given; BENCHMARK.json's command is this script. Everything the go tool
# writes (build cache, temporary files, the binaries) stays under
# bench/out, so a run reads and writes only inside its checkout. The first
# run in a fresh checkout compiles the standard library into that cache;
# later runs find everything up to date.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" "$@"
