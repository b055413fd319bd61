#!/usr/bin/env bash
# Substrate wall-clock regression gate: builds the Release preset, runs
# bench_wallclock (which exits non-zero when one of its declared gates
# fails), then checks its artifact with `gryphon_report --check-bench`
# against the committed BENCH_substrate.json: each workload's
# sim_events_per_wall_sec must reach (1 - 0.15) x the committed post_pr (else
# run) value. Every committed BENCH_*.json then gets the same schema and gate
# check, without a baseline.
#
# Usage: tools/run_bench.sh [reps]
#
# The fresh numbers land in BENCH_substrate.json.new; after an intentional
# perf change, re-record with
#   ./build-release/bench/bench_wallclock --out BENCH_substrate.json
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${1:-3}"

cmake --preset release
cmake --build --preset release -j "$(nproc)" \
  --target bench_wallclock bench_scale_1m gryphon_report
CHECK=./build-release/tools/gryphon_report

./build-release/bench/bench_wallclock --out BENCH_substrate.json.new --reps "${REPS}"
"${CHECK}" --check-bench BENCH_substrate.json.new --baseline BENCH_substrate.json

# Million-subscriber scale gates (DESIGN.md §4.8): the smoke tier declares
# covering compression, sublinear match cost and shard parity.
./build-release/bench/bench_scale_1m --smoke --out BENCH_scale_1m.json.new
"${CHECK}" --check-bench BENCH_scale_1m.json.new
rm -f BENCH_scale_1m.json.new

# Every committed artifact must still carry passing gates and its required
# blocks — catches a re-recorded file that silently shipped a failing gate.
for artifact in BENCH_*.json; do
  "${CHECK}" --check-bench "${artifact}"
done
