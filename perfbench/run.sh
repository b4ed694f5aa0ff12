#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload xsbench-tempo --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, scratch result caches) stays under .bench_build/ in the
# checkout, and no network access is attempted.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/home" "${out}/gopath"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOPATH="${out}/gopath" \
  GOMODCACHE="${out}/gopath/pkg/mod" HOME="${out}/home" XDG_CONFIG_HOME="${out}/home" \
  GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# Stamp the source revision when the checkout is itself a git work tree.
rev=unknown dirty=false
if top="$(git -C "${root}" rev-parse --show-toplevel 2>/dev/null)" && [ "${top}" = "${root}" ]; then
  rev="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
  if [ -n "$(git -C "${root}" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
    dirty=true
  fi
fi
(cd "${root}/perfbench" && go build -buildvcs=false \
  -ldflags "-X main.gitRevision=${rev} -X main.gitDirty=${dirty}" -o "${out}/perfbench" .)
cd "${root}"
exec "${out}/perfbench" -workdir "${out}/work" "$@"
