#!/usr/bin/env bash
# Builds fleetbench from this checkout's sources and runs it; every argument
# is passed through (--workload, --seed, --seconds, --trace). Run it from the
# repository root. Everything the build and the run write stays under
# .bench_build/: the Go build cache, the go command's own state and the
# span files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
(
	cd "$root/fleetbench"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
	export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off
	go build -o "$out/fleetbench" .
)
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$out/fleetbench" -commit "$commit" -out "$out/fleetbench-spans" "$@"
