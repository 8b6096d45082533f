#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): standard build + full ctest, then the
# runtime message-path tests again under ThreadSanitizer (the mailbox drain /
# response pipelining code is exactly the kind of lock-free code TSan exists
# for), and the reclamation seam under ASan+LSan (a reclamation bug is either
# a use-after-free or a leak — exactly what that pair detects).
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

skip_tsan=0
skip_asan=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && skip_tsan=1
  [[ "$arg" == "--skip-asan" ]] && skip_asan=1
done

echo "== tier-1: standard build + ctest =="
cmake -B build -S . > /dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# The checker-driven tests again under a 1 GB address-space cap: the queue
# checker's memory is O(history), so a regression that makes it grow with
# the search fails here fast with bad_alloc instead of being OOM-killed.
(
  ulimit -v 1000000
  for t in test_linearizability test_queue_protocol test_checker_mutation \
           test_schedule_explore; do
    "./build/tests/$t" > /dev/null
  done
)

# Opt-in: a longer schedule-exploration sweep of the segment hand-off and
# migration protocols (docs/TESTING.md Section 5). CI's schedule-explore job
# runs the full 1000-seed version.
if [[ "${PIMDS_SCHEDULE_EXPLORE:-0}" == 1 ]]; then
  echo "== tier-1: schedule-exploration sweep (PIMDS_SCHEDULE_EXPLORE=1) =="
  PIMDS_EXPLORE_SEEDS="${PIMDS_EXPLORE_SEEDS:-200}" \
    ./build/tests/test_schedule_explore
fi

echo "== tier-1: telemetry smoke (Zipf hot vault through the sampler) =="
# A skewed table2 run with the sampler on: validate the JSONL stream, the
# flight-recorder dump, and the bench JSON's telemetry section, then assert
# the acceptance criterion — the theta=0.99 run must surface vault 0 as hot
# in the windowed per-vault counters.
telemetry_dir="$(mktemp -d)"
PIMDS_FLIGHT_DUMP="$telemetry_dir/flight.json" ./build/bench/table2_skiplists \
  --skew 0.99 --json "$telemetry_dir/table2.json" \
  --telemetry "$telemetry_dir/table2.telemetry.jsonl" \
  --telemetry-interval-ms 25 > /dev/null
python3 scripts/telemetry_report.py "$telemetry_dir/table2.telemetry.jsonl" \
  --assert-hot-vault --expect-vault 0
python3 scripts/telemetry_report.py "$telemetry_dir/flight.json"
python3 scripts/trace_report.py --check-bench "$telemetry_dir/table2.json"
rm -rf "$telemetry_dir"
echo "telemetry-smoke: OK"

echo "== tier-1: active-rebalance smoke (closed loop must settle) =="
# The INVERTED assertion: the real-thread ablation with --active lets the
# AutoRebalancer drive migrations itself; the telemetry stream must show
# the Zipf hot spot early (peak imbalance >= 2.5 on served ops), at least
# one triggered migration, and a settled final third (every eligible
# window < 2.0). The --family filter judges skiplist.vault<k>.ops — the
# runtime message counters also carry migration streams and fat batches.
active_dir="$(mktemp -d)"
./build/bench/ablation_rebalance --active \
  --json "$active_dir/active.json" \
  --telemetry "$active_dir/active.telemetry.jsonl" \
  --telemetry-interval-ms 100 > /dev/null
python3 scripts/telemetry_report.py "$active_dir/active.telemetry.jsonl" \
  --assert-rebalance-settles --family skiplist \
  --threshold 2.5 --settle-threshold 2.0 --min-window-ops 200
python3 scripts/trace_report.py --check-bench "$active_dir/active.json"
rm -rf "$active_dir"
echo "active-rebalance-smoke: OK"

echo "== tier-1: latency-smoke (open-loop sweep, CO-free recorder, M/D/1) =="
# Open-loop tail-latency acceptance: two full queue sweeps at the baseline
# configuration (best-of-2, same shape perf_gate expects), then
#   * telemetry_report --assert-latency: every window's interpolated
#     percentile ladder must be monotone and enough windows must carry the
#     end-to-end sojourn family;
#   * trace_report --check-bench: the pimds.bench.v2 latency blocks and
#     conformance.latency rows must validate;
#   * perf_gate --only openloop_latency: the virtual-time sim rows must sit
#     inside the M/D/1 divergence bands, the below-knee gated p99s must not
#     regress past the committed baseline's band, and the 1.1x row must
#     still show the saturation signature.
latency_dir="$(mktemp -d)"
mkdir -p "$latency_dir/run1" "$latency_dir/run2"
for run in run1 run2; do
  ./build/bench/openloop_latency --structure queue \
    --json "$latency_dir/$run/BENCH_openloop_latency.json" \
    --telemetry "$latency_dir/$run/openloop.telemetry.jsonl" \
    --telemetry-interval-ms 50 > /dev/null
done
python3 scripts/telemetry_report.py \
  "$latency_dir/run1/openloop.telemetry.jsonl" \
  --assert-latency --latency-family total_ns --min-window-count 50
python3 scripts/trace_report.py --check-bench \
  "$latency_dir/run1/BENCH_openloop_latency.json"
python3 scripts/perf_gate.py --baseline-dir . \
  --fresh-dir "$latency_dir/run1" --fresh-dir "$latency_dir/run2" \
  --only openloop_latency
rm -rf "$latency_dir"
echo "latency-smoke: OK"

echo "== tier-1: -DPIMDS_OBS=OFF configuration =="
# Compiling test_obs in this configuration checks the layout static
# asserts (FatEntry must drop to 32 bytes and Message to 112 with the
# per-op trace context compiled out); the filtered run plus a bench smoke
# checks the disabled mode end to end. The full test_obs suite is NOT expected to
# pass here — most of it tests the very layer this build removes.
cmake -B build-noobs -S . -DPIMDS_OBS=OFF > /dev/null
cmake --build build-noobs -j --target test_obs ablation_batch_drain
./build-noobs/tests/test_obs --gtest_filter='Message.*:DisabledMode.*'
./build-noobs/bench/ablation_batch_drain --threads 4 --ops 40 > /dev/null
echo "obs-off: OK"

if [[ "$skip_tsan" == 0 ]]; then
  echo "== tier-1: runtime tests under ThreadSanitizer =="
  cmake --preset tsan > /dev/null
  cmake --build build-tsan -j --target \
    test_runtime test_mailbox_batch test_spsc_ring test_obs test_telemetry \
    test_sentinel_refresh test_extensions test_queue_protocol \
    test_migration_protocol
  # No suppressions: the runtime message path must be genuinely race-free.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_runtime
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_mailbox_batch
  # The combiner's lock-first fast path racing queued losers, and the
  # one-line ResponseSlot reused across thousands of hand-offs: repeated so
  # TSan sees many interleavings of the publish/await and lock/flush pairs.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_mailbox_batch \
    --gtest_filter='CombinerFastPath.*:ResponseSlotBatch.TwoThreadReuse*' \
    --gtest_repeat=5
  # The per-sender SPSC lanes and the multi-lane drain sweep are new
  # lock-free code; MultiLaneDrainStress is the dedicated TSan target.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_spsc_ring
  # The metrics/trace layer is all relaxed atomics + sharding; it must be
  # race-free too (counter sharding test hammers it from 8 threads).
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_obs
  # Telemetry plane: snapshot-merge vs external-registration churn, the
  # sampler thread, and the LoadMap's single-writer sketch under readers.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_telemetry
  # Live migration races: client threads vs the Section 4.2.1 hand-over,
  # including the ACTIVE AutoRebalancer choosing splits itself, and the
  # adaptive-combining flips racing the send path.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_sentinel_refresh
  # Each op counted once, where it executes, while one-key migration steps
  # ping-pong a range under three clients: repeated for more interleavings
  # of the per-vault counters and the LoadMap against the hand-over.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_sentinel_refresh \
    --gtest_filter='SentinelRefresh.EachOpIsCountedOnceWhereItExecutes' \
    --gtest_repeat=5
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_extensions
  # The shared Section 4.2.1 protocol and rebalance decision through the
  # recording fake port (the runtime and the simulator both run this code).
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_migration_protocol \
    --gtest_repeat=5
  # The shared queue protocol on real threads, faults included: the
  # self-addressed hand-off list and the per-vault counters CPUs read racily.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_queue_protocol
  # Reclamation seam: the protect/retire race and the policy-parameterized
  # baseline matrix are the TSan targets for the HP publish/scan fences.
  cmake --build build-tsan -j --target test_reclaim test_baselines \
    test_mpmc_ebr soak_reclamation
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_reclaim
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_baselines
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_mpmc_ebr
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/soak_reclamation --seconds 2 --policy both
fi

if [[ "$skip_asan" == 0 ]]; then
  echo "== tier-1: reclamation seam under ASan + LSan =="
  cmake --preset asan > /dev/null
  cmake --build build-asan -j --target test_reclaim test_baselines \
    test_mpmc_ebr soak_reclamation
  # LSan runs at exit by default under ASan: any node a policy drops on the
  # floor (or frees twice) fails here even if no test assertion notices.
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_reclaim
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_baselines
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/test_mpmc_ebr
  # Cap the malloc quarantine: its default (256 MB) parks freed churn nodes
  # in RSS and would trip the soak's leak ceiling without any actual leak.
  ASAN_OPTIONS="halt_on_error=1:quarantine_size_mb=32" \
    ./build-asan/tests/soak_reclamation --seconds 2 --policy both
fi

echo "tier-1: OK"
