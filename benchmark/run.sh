#!/usr/bin/env bash
# Builds pxfbench (release, offline, from this checkout's sources) and runs
# it with the arguments given:
#
#   benchmark/run.sh run --all --seed 42          every workload, end to end
#   benchmark/run.sh layers --all --seed 42       every workload, traced
#   benchmark/run.sh --workload nitf-1k-sat --seed 7 --seconds 20 --trace 0
#
# The last form is what BENCHMARK.json's command expands to. Works from
# any directory; build output goes where cargo puts it (CARGO_TARGET_DIR
# if set).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
