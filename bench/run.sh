#!/usr/bin/env bash
# Builds qservd and the harness from this checkout and runs the harness.
# Every build product, cache and temp file stays under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root" && go build -o "$build/bin/qservd" ./cmd/qservd) >&2
(cd "$here" && go build -o "$build/bin/harness" .) >&2
exec "$build/bin/harness" -qservd "$build/bin/qservd" -root "$root" "$@"
