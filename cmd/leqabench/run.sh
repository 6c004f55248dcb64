#!/usr/bin/env bash
# Builds leqabench from this checkout and runs it with the given flags.
# Run it from the repository root, e.g.
#
#   bash cmd/leqabench/run.sh --workload design-sweep --seed 1 --seconds 50 --trace 0
#   bash cmd/leqabench/run.sh --seed 1 --trace 1     # every workload
#
# The build cache, the binary, upload spools and span files all stay under
# .bench_build/ in the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
# Stamp the VCS revision into the report only where git can read it.
vcs=false
if git -C "$here" rev-parse --git-dir >/dev/null 2>&1; then
	vcs=auto
fi
(cd "$here" && go build -buildvcs="$vcs" -o "$out/leqabench" .)
exec "$out/leqabench" --out "$out" "$@"
