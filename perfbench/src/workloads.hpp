// The benchmark's workloads and layer probes.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "harness.hpp"

namespace perfbench {

/// 2 vaults and 2 closed-loop clients: with the vault cores, one thread per
/// core of a 4-core host.
inline constexpr std::size_t kVaults = 2;
inline constexpr std::size_t kClients = 2;

/// Runtime workloads (core::PimFifoQueue / core::PimSkipList on the
/// uninjected runtime). Without --trace they report the end-to-end metrics;
/// with --trace, the per-layer ones.
Result run_queue(ClientPool& pool, const Options& opts);
/// `contains_share` of the calls are contains; the rest split evenly
/// between add and remove.
Result run_skiplist(ClientPool& pool, const Options& opts,
                    double contains_share);

/// The deterministic simulator: the Section 5.2 PIM queue and the Fig. 4
/// partitioned skip list.
Result run_sim(const Options& opts);

/// Simulated throughput (virtual ops/s) of the runtime workloads' own
/// configuration: 2 CPUs, 2 vaults, the same sizes and mix.
double queue_twin_virtual_ops_s(std::uint64_t seed);
double skiplist_twin_virtual_ops_s(std::uint64_t seed, double contains_share);

/// Layer probes every traced run reports, timed from outside through
/// public functions only: the raw Mailbox -> drain -> ResponseSlot round
/// trip, and single-threaded LocalSkipList operations on one vault's share
/// of the skip-list keys. Failed probe checks are added to `r`.
void run_layer_probes(const Options& opts, Result& r);

/// Per-layer metrics a workload does not exercise are reported as 0.
void mark_not_exercised(Metrics& m, std::initializer_list<const char*> names);

}  // namespace perfbench
