#!/usr/bin/env bash
# Builds the bench module into .bench_build/ at the repo root and runs it
# with the given arguments. The driver contract lets a run write only inside
# its checkout, so Go's build cache and its telemetry counters (which go
# under the user config dir) are pointed there too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
