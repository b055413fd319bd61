#!/usr/bin/env bash
# Chaos soak under ASan+UBSan: builds the sanitizer preset and runs N seeded
# fault schedules plus the chaos test suite. Any invariant violation prints
# the offending seed and its decoded fault timeline; rerun with
#   bench_chaos_soak 1 <seed>
# (or ChaosConfig{.seed = <seed>} in a test) to replay it exactly.
#
# Usage: tools/run_chaos.sh [num_seeds] [first_seed] [horizon_s]
set -euo pipefail
cd "$(dirname "$0")/.."

NUM_SEEDS="${1:-10}"
FIRST_SEED="${2:-1}"
HORIZON_S="${3:-10}"

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)" --target test_chaos test_net test_storage test_matching test_wire test_core_units test_failures test_pfs test_pfs_imprecise gryphon_broker_cli bench_chaos_soak bench_wallclock bench_recovery_fuzz bench_churn_storm bench_scale_1m gryphon_report

echo "== chaos test suite (asan-ubsan) =="
./build-asan/tests/test_chaos

# The runtime's deferred socket flush captures the Connection it flushes,
# FileBackend owns a long-lived WAL fd, the matcher's range tier is a
# pointer-linked tree, the wire suite encodes every message kind into
# pooled arenas and decodes every torn prefix and flipped byte of each
# sample frame, the core-unit and failure suites take the brokers'
# child links through crash, restart and child-filter reload, and the PFS
# suites hold node pointers into each shard's chain-head map across sync
# captures: run their suites where the sanitizers can see misuse.
echo "== socket, storage, matching, wire, core, failure and PFS suites (asan-ubsan) =="
GRYPHON_BROKER_BIN=./build-asan/tools/gryphon_broker ./build-asan/tests/test_net
./build-asan/tests/test_storage
./build-asan/tests/test_matching
./build-asan/tests/test_wire
./build-asan/tests/test_core_units
./build-asan/tests/test_failures
./build-asan/tests/test_pfs
./build-asan/tests/test_pfs_imprecise

echo "== substrate smoke (asan-ubsan): bench_wallclock 1 seed =="
./build-asan/bench/bench_wallclock --smoke

echo "== recovery fuzz smoke (asan-ubsan): seeded crash points =="
./build-asan/bench/bench_recovery_fuzz --smoke

echo "== churn storm smoke (asan-ubsan): reconnect herd under admission control =="
./build-asan/bench/bench_churn_storm --smoke

echo "== scale smoke (asan-ubsan): covering index + sharded PFS gates =="
SCALE_SMOKE_JSON="$(mktemp)"
./build-asan/bench/bench_scale_1m --smoke --out "${SCALE_SMOKE_JSON}"
./build-asan/tools/gryphon_report --check-bench "${SCALE_SMOKE_JSON}"
rm -f "${SCALE_SMOKE_JSON}"

echo "== flight recorder negative test: injected violation must dump =="
# A fabricated exactly-once violation must (a) fail the run and (b) produce
# the merged flight-recorder dump with a milestone checklist focused on the
# offending (pubend, tick). A "passing" injected run means the recorder is
# broken, so this asserts the failure.
INJECT_LOG="$(mktemp)"
if ./build-asan/bench/bench_chaos_soak 1 "${FIRST_SEED}" 5 --inject-violation \
    >"${INJECT_LOG}" 2>&1; then
  echo "ERROR: injected violation did not fail the run" >&2
  cat "${INJECT_LOG}" >&2
  rm -f "${INJECT_LOG}"
  exit 1
fi
for marker in "=== flight recorder: merged tick trace" \
              "--- milestone checklist for pubend" \
              "violation focus:"; do
  if ! grep -qF -e "${marker}" "${INJECT_LOG}"; then
    echo "ERROR: flight-recorder dump missing marker: ${marker}" >&2
    cat "${INJECT_LOG}" >&2
    rm -f "${INJECT_LOG}"
    exit 1
  fi
done
rm -f "${INJECT_LOG}"
echo "ok: injected violation produced the focused flight-recorder dump"

echo "== chaos trace export: fault windows on a Perfetto-loadable track =="
# One seeded schedule exported as a Chrome trace-event JSON, then validated:
# well-formed JSON, monotonically non-decreasing timestamps, and at least one
# chaos fault window on the dedicated "faults" track.
CHAOS_TRACE="$(mktemp --suffix=.trace.json)"
./build-asan/bench/bench_chaos_soak 1 "${FIRST_SEED}" 5 \
    --trace-out="${CHAOS_TRACE}"
./build-asan/tools/gryphon_report --validate-trace "${CHAOS_TRACE}" \
    --expect-fault-track
rm -f "${CHAOS_TRACE}"

echo "== chaos soak: ${NUM_SEEDS} seeds from ${FIRST_SEED}, ${HORIZON_S}s horizon =="
./build-asan/bench/bench_chaos_soak "${NUM_SEEDS}" "${FIRST_SEED}" "${HORIZON_S}"

echo "== codec chaos soak: byte transport + seeded frame corruption =="
# Same fault schedules, but every link runs through the wire codec (encode on
# send, CRC-checked decode on delivery) and frame-corruption windows flip or
# truncate bytes in flight. The receiving transport must reject every mangled
# frame as a drop — under ASan this also shakes out any decoder that reads
# past a truncated buffer. --wire-verify=always disables the 1-in-N sampling
# of the canonical re-encode check so every accepted decode is round-trip
# verified while the sanitizers watch.
./build-asan/bench/bench_chaos_soak "${NUM_SEEDS}" "${FIRST_SEED}" "${HORIZON_S}" \
    --wire=codec --frame-faults --wire-verify=always
