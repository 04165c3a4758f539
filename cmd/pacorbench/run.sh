#!/usr/bin/env bash
# Builds pacorbench from the sources in the current directory, which must be
# the repository root, and runs it with the given flags. The binary and every
# Go cache, config and telemetry file stay under .bench_build, so a run reads
# and writes nothing outside the checkout and needs no network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C cmd/pacorbench -o "$out/pacorbench" .
exec "$out/pacorbench" "$@"
