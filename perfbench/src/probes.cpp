// Layer probes, timed from outside through public functions only.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/spinwait.hpp"
#include "core/local_skiplist.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/vault.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pimds;

constexpr int kBatches = 5;

/// Raw Mailbox::send -> drain -> ResponseSlot::publish -> await round trip
/// between this thread and one receiver thread; median of batch means.
double pingpong_rtt_ns(std::uint64_t& failed) {
  constexpr std::uint64_t kTrips = 40'000;
  runtime::Mailbox box;
  runtime::ResponseSlot<std::uint64_t> slot;
  std::atomic<bool> stop{false};
  std::thread receiver([&] {
    std::vector<runtime::Message> batch;
    SpinWait idle;
    while (!stop.load(std::memory_order_acquire)) {
      batch.clear();
      if (box.drain(batch, 64) == 0) {
        idle.wait();
        continue;
      }
      idle.reset();
      for (const runtime::Message& m : batch) {
        static_cast<runtime::ResponseSlot<std::uint64_t>*>(m.slot)->publish(
            m.key + 1);
      }
    }
  });
  std::vector<double> means;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kTrips; ++i) {
      runtime::Message m;
      m.key = i;
      m.slot = &slot;
      box.send(m);
      failed += slot.await() != i + 1;
    }
    means.push_back(static_cast<double>(now_ns() - t0) /
                    static_cast<double>(kTrips));
  }
  stop.store(true, std::memory_order_release);
  receiver.join();
  return Summary::of(means).p50;
}

struct LocalTimes {
  double contains_ns;
  double add_ns;
  double remove_ns;
};

/// Single-threaded LocalSkipList operations on a standalone vault holding
/// one vault's share of the skip-list workloads' keys (2^18 keys of a 2^19
/// key range). Adds insert absent keys and removes take the same keys out
/// again, so the list ends as it started.
LocalTimes time_local_skiplist(std::uint64_t seed, std::uint64_t& failed) {
  constexpr std::uint64_t kRange = std::uint64_t{1} << 19;
  constexpr std::size_t kKeys = std::size_t{1} << 18;
  constexpr std::size_t kOps = 40'000;
  runtime::Vault vault(0, std::size_t{64} << 20);
  core::LocalSkipList list(vault, 0, seed);
  Xoshiro256 rng(seed ^ 0x5bd1e995u);
  while (list.size() < kKeys) list.add(rng.next_in(1, kRange));
  std::vector<double> contains, add, remove;
  std::vector<std::uint64_t> keys(kOps);
  std::uint64_t hits = 0;
  for (int b = 0; b < kBatches; ++b) {
    for (auto& k : keys) k = rng.next_in(1, kRange);
    std::uint64_t t0 = now_ns();
    for (const auto k : keys) hits += list.contains(k);
    contains.push_back(static_cast<double>(now_ns() - t0) / kOps);

    for (auto& k : keys) {
      do {
        k = rng.next_in(1, kRange);
      } while (list.contains(k));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::shuffle(keys.begin(), keys.end(), rng);
    const auto n = static_cast<double>(keys.size());
    std::uint64_t ok = 0;
    t0 = now_ns();
    for (const auto k : keys) ok += list.add(k);
    add.push_back(static_cast<double>(now_ns() - t0) / n);
    t0 = now_ns();
    for (const auto k : keys) ok += list.remove(k);
    remove.push_back(static_cast<double>(now_ns() - t0) / n);
    failed += 2 * keys.size() - ok;
    keys.resize(kOps);
  }
  if (list.size() != kKeys) ++failed;
  std::printf("local skiplist probe: %zu keys, %llu contains hits\n",
              list.size(), static_cast<unsigned long long>(hits));
  return {Summary::of(contains).p50, Summary::of(add).p50,
          Summary::of(remove).p50};
}

/// Units of the per-layer metrics a workload may leave unexercised.
const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = {
      {"runtime.messages_per_op", "msg/op"},
      {"runtime.drain_batch_mean", "msg"},
      {"runtime.vault_busy_share", "share"},
      {"runtime.send_full_spins_per_op", "spins/op"},
      {"phase.issue_ns", "ns"},
      {"phase.combiner_wait_ns", "ns"},
      {"phase.request_flight_ns", "ns"},
      {"phase.mailbox_queue_ns", "ns"},
      {"phase.vault_service_ns", "ns"},
      {"phase.response_flight_ns", "ns"},
      {"phase.cpu_receive_ns", "ns"},
      {"phase.coverage_pct", "%"},
      {"core.queue.rejections_per_op", "rej/op"},
      {"core.queue.segment_handoffs_per_kop", "1/kop"},
      {"core.queue.empty_dequeue_share", "share"},
      {"core.skiplist.vault_imbalance", "ratio"},
      {"baselines.native_ops_s", "1/s"},
      {"baselines.pim_over_native", "ratio"},
      {"sim.host_ns_per_op", "ns"},
      {"sim.queue.rejections", "count"},
      {"sim.queue.segments_created", "count"},
      {"sim.queue.enq_batches", "count"},
      {"model.queue.err_pct", "%"},
      {"model.skiplist.err_pct", "%"},
  };
  return units;
}

}  // namespace

void run_layer_probes(const Options& opts, Result& r) {
  std::uint64_t failed = 0;
  const double rtt = pingpong_rtt_ns(failed);
  const LocalTimes local = time_local_skiplist(opts.seed, failed);
  r.attempted += 2;
  r.failed += failed;
  r.metrics.set("runtime.pingpong_rtt_ns", rtt, "ns");
  r.metrics.set("core.local_skiplist.contains_ns", local.contains_ns, "ns");
  r.metrics.set("core.local_skiplist.add_ns", local.add_ns, "ns");
  r.metrics.set("core.local_skiplist.remove_ns", local.remove_ns, "ns");
  std::printf("probes: ping-pong %.0f ns; local skiplist contains %.0f ns, "
              "add %.0f ns, remove %.0f ns\n",
              rtt, local.contains_ns, local.add_ns, local.remove_ns);
}

void mark_not_exercised(Metrics& m, std::initializer_list<const char*> names) {
  for (const char* name : names) m.set(name, 0.0, layer_units().at(name));
}

}  // namespace perfbench
