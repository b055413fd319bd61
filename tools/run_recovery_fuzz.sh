#!/usr/bin/env bash
# Crash-point recovery fuzz gate: builds the Release preset and runs
# bench_recovery_fuzz — seeded broker crashes whose WAL tails are torn at
# seeded byte offsets, each followed by a recovery-from-bytes and an
# exactly-once verification against the DeliveryOracle.
#
# Usage: tools/run_recovery_fuzz.sh [num_seeds] [first_seed] [--wal-dir DIR]
#
# Defaults to 100 seeds x 2 crash points = 200 seeded crash points, plus a
# codec-mode leg (max(3, seeds/4) seeds) that reruns the same crash schedule
# over the byte-codec transport with seeded frame-corruption windows armed
# around every crash — the crash × frame-fault cross product. The run fails
# on any oracle violation, when no crash point produced a torn-tail
# truncation (the fuzzer must keep reaching mid-frame tears —
# wal.recovery_truncated_bytes > 0 in the written snapshot is the evidence),
# and when the codec leg never rejected a corrupted frame; gryphon_report
# --check-bench then re-checks those gates in the written artifact.
# Pass --wal-dir to run every WAL on real files (FileBackend) instead of the
# default in-memory backend. Rerun one violating seed exactly with
#   bench_recovery_fuzz 1 <seed>
set -euo pipefail
cd "$(dirname "$0")/.."

NUM_SEEDS="${1:-100}"
FIRST_SEED="${2:-1}"
shift $(( $# > 2 ? 2 : $# )) || true
EXTRA_ARGS=("$@")

cmake --preset release
cmake --build --preset release -j "$(nproc)" --target bench_recovery_fuzz gryphon_report

./build-release/bench/bench_recovery_fuzz "${NUM_SEEDS}" "${FIRST_SEED}" \
  --out BENCH_recovery_fuzz.json "${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"}"
./build-release/tools/gryphon_report --check-bench BENCH_recovery_fuzz.json

echo "ok: ${NUM_SEEDS} seeds survived; snapshot in BENCH_recovery_fuzz.json"
