#!/usr/bin/env bash
# Builds biasmitd and the e2ebench harness from the checkout this script
# sits in, then runs the harness with the given arguments:
#
#   bash e2ebench/run.sh --workload qx-sync --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product and cache goes to
# .bench_build/ in that root, so the run writes nothing outside the
# checkout. The binaries are built here, before the harness starts,
# so the build never counts towards the measured set-up time.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/biasmitd" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (needs go.mod, cmd/biasmitd and e2ebench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
# The go command's telemetry and env file live under the user config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/biasmitd" ./cmd/biasmitd >&2
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2

exec "$out/bin/e2ebench" -daemon "$out/bin/biasmitd" "$@"
