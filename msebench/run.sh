#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it:
#   bash msebench/run.sh --workload serve-miss --seed 1 --seconds 10 --trace 0
# Run from the repository root.  Build outputs go to .bench_build, run
# outputs to .bench_out; nothing is read or written outside the checkout
# but the Go toolchain itself.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME keeps the go command's local telemetry in the checkout too.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The build runs in the background so that an interrupt stops it too.
go build -C msebench -o "$build/msebench" . &
pid=$!
trap 'kill $pid 2>/dev/null; wait $pid 2>/dev/null || true; exit 130' INT TERM
wait $pid
trap - INT TERM
exec "$build/msebench" "$@"
