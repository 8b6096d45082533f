// Runtime workloads: core::PimFifoQueue and core::PimSkipList on the
// uninjected runtime, driven in a closed loop by two client threads, plus
// the same-process native baselines (baselines::MsQueue and
// baselines::LockFreeSkipList) under the same threads and mix.
#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/lockfree_skiplist.hpp"
#include "baselines/ms_queue.hpp"
#include "common/rng.hpp"
#include "common/thread_utils.hpp"
#include "core/pim_fifo_queue.hpp"
#include "core/pim_skiplist.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "runtime/system.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pimds;

/// Setup repetitions per run (setup_s is their median).
constexpr std::size_t kSetupReps = 5;
/// Untimed calls of the mix per client after prefill, part of setup. Enough
/// that a set-up is mostly calls, not thread start-up.
constexpr std::uint64_t kWarmupCalls = 100'000;
/// Time slices of the end-to-end leg. Figures are medians over slices, so
/// a burst of host interference moves only the slices it hits.
constexpr std::size_t kSlices = 40;
/// Rounds of the traced run; each round runs one metrics-on, one
/// metrics-off and one traced leg, so slow drift hits all three alike.
constexpr std::size_t kTraceRounds = 3;

std::uint64_t client_seed(std::uint64_t seed, std::size_t client,
                          std::uint64_t salt) {
  SplitMix64 sm(seed * 0x100000001b3ULL + client * 0x9e37 + salt);
  return sm.next();
}

/// Library defaults, with 2 vaults whose cores are pinned (vault v on CPU
/// v) when the host has a CPU to spare, as the repository's benches do.
runtime::PimSystem::Config system_config() {
  runtime::PimSystem::Config c;
  c.num_vaults = kVaults;
  c.pin_cores = hardware_threads() > kVaults;
  return c;
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

template <typename Op>
void warm_up(ClientPool& pool, Op&& op) {
  pool.run([&](std::size_t c) {
    for (std::uint64_t i = 0; i < kWarmupCalls; ++i) op(c);
  });
}

/// Leg length of the traced run's legs.
double trace_leg_seconds(const Options& opts) {
  return std::max(0.3, opts.seconds / (3.0 * kTraceRounds));
}

void report_e2e(const Options& opts, const LegResult& leg,
                const std::vector<double>& setup_s, double rss_mb,
                double virtual_ops_s, Result& r) {
  const double failed_share =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  const double ops_s = Summary::of(leg.slice_ops_s).p50;
  const double p50_us = Summary::of(leg.slice_p50_ns).p50 * 1e-3;
  const double p99_us = Summary::of(leg.slice_p99_ns).p50 * 1e-3;
  const double setup = Summary::of(setup_s).p50;
  Metrics& m = r.metrics;
  m.set("throughput_ops_s", ops_s, "1/s");
  m.set("latency_p50_us", p50_us, "us");
  m.set("latency_p99_us", p99_us, "us");
  m.set("latency_samples", static_cast<double>(leg.samples), "count");
  m.set("failed_ops_share", failed_share, "share");
  m.set("setup_s", setup, "s");
  m.set("peak_rss_mb", rss_mb, "MB");
  m.set("virtual_ops_s", virtual_ops_s, "1/s");
  std::printf("%s: %.0f ops/s over %.2f s, p50 %.3f us, p99 %.3f us "
              "(%llu samples), setup %.3f s (median of %zu)\n",
              opts.workload.c_str(), ops_s, leg.seconds, p50_us, p99_us,
              static_cast<unsigned long long>(leg.samples), setup,
              setup_s.size());
}

/// What the traced run's legs leave behind for the workload's own layer
/// metrics.
struct TracedRun {
  std::uint64_t calls = 0;     ///< calls made in every leg
  double on_ops_s = 0.0;       ///< median throughput of the metrics-on legs
  double ops_on = 1.0;         ///< calls made with metrics on
  double call_ns_on = 1.0;     ///< their summed duration, as callers saw it
  obs::MetricsSnapshot delta;  ///< registry change over the legs
};

/// Registry-derived runtime and phase metrics over a traced run's
/// metrics-on legs (`wall_s` is their wall time). Phase sums are per call
/// made, and coverage is their share of the calls' duration as the
/// benchmark timed it (the skip list records no `total` phase of its own).
void report_registry_layers(const TracedRun& t, double wall_s, Metrics& m) {
  const obs::MetricsSnapshot& d = t.delta;
  const obs::PhaseAttribution a = obs::attribution_report(d).runtime;
  const double ops = t.ops_on;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::Phase>(p);
    if (phase == obs::Phase::kTotal) continue;
    m.set(std::string("phase.") + obs::phase_name(phase) + "_ns",
          a.phase_ns[p] / ops, "ns");
  }
  m.set("phase.coverage_pct", 100.0 * a.phase_sum_ns / t.call_ns_on, "%");
  double messages = 0, busy_ns = 0, spins = 0, batch_sum = 0, batch_n = 0;
  for (std::size_t v = 0; v < kVaults; ++v) {
    const std::string prefix = "runtime.vault" + std::to_string(v);
    if (const auto* c = d.find_counter(prefix + ".messages")) {
      messages += static_cast<double>(c->value);
    }
    if (const auto* c = d.find_counter(prefix + ".busy_ns")) {
      busy_ns += static_cast<double>(c->value);
    }
    if (const auto* c = d.find_counter(prefix + ".mailbox.send_full_spins")) {
      spins += static_cast<double>(c->value);
    }
    if (const auto* h = d.find_histogram(prefix + ".mailbox.drain_batch")) {
      batch_sum += static_cast<double>(h->data.sum);
      batch_n += static_cast<double>(h->data.count);
    }
  }
  m.set("runtime.messages_per_op", messages / ops, "msg/op");
  m.set("runtime.drain_batch_mean", batch_n > 0 ? batch_sum / batch_n : 0.0,
        "msg");
  m.set("runtime.vault_busy_share",
        wall_s > 0 ? busy_ns * 1e-9 / (wall_s * kVaults) : 0.0, "share");
  m.set("runtime.send_full_spins_per_op", spins / ops, "spins/op");
}

/// The traced run's interleaved legs: per round, metrics on, metrics off,
/// then metrics on with benchmark spans. Reports the registry-derived
/// layer metrics, obs.off_over_on and trace.overhead_share, and writes the
/// spans.
template <typename Op>
TracedRun traced_legs(ClientPool& pool, const Options& opts,
                      std::vector<std::string> call_names, Result& r,
                      Op&& op) {
  SpanLog spans;
  spans.root_name = "workload:" + opts.workload;
  spans.names = std::move(call_names);
  spans.per_client.resize(pool.size());
  // Reserved up front (pages are touched only as spans land) so no
  // reallocation copy stalls a traced leg.
  for (auto& c : spans.per_client) c.spans.reserve(std::size_t{1} << 22);
  const double leg_s = trace_leg_seconds(opts);
  std::vector<double> on, off, traced;
  double on_wall_s = 0;
  std::uint64_t ops_on = 0, call_ns_on = 0;
  TracedRun t;
  const obs::MetricsSnapshot before = obs::Registry::instance().snapshot();
  spans.root_start_ns = now_ns();
  for (std::size_t round = 0; round < kTraceRounds; ++round) {
    const LegResult a = run_leg(pool, leg_s, 1, false, nullptr, op);
    obs::set_metrics_enabled(false);
    const LegResult b = run_leg(pool, leg_s, 1, false, nullptr, op);
    obs::set_metrics_enabled(true);
    const LegResult c = run_leg(pool, leg_s, 1, false, &spans, op);
    on.push_back(a.ops_s());
    off.push_back(b.ops_s());
    traced.push_back(c.ops_s());
    on_wall_s += a.seconds + c.seconds;
    t.calls += a.ops + b.ops + c.ops;
    ops_on += a.ops + c.ops;
    call_ns_on += a.call_ns + c.call_ns;
    r.failed += a.failed + b.failed + c.failed;
  }
  spans.root_end_ns = now_ns();
  t.delta = obs::diff_snapshots(before, obs::Registry::instance().snapshot());
  r.attempted += t.calls;
  t.ops_on = std::max<double>(1.0, static_cast<double>(ops_on));
  t.call_ns_on = std::max<double>(1.0, static_cast<double>(call_ns_on));
  report_registry_layers(t, on_wall_s, r.metrics);
  t.on_ops_s = Summary::of(on).p50;
  r.metrics.set("obs.off_over_on", Summary::of(off).p50 / t.on_ops_s,
                "ratio");
  r.metrics.set("trace.overhead_share",
                (t.on_ops_s - Summary::of(traced).p50) / t.on_ops_s, "share");
  const std::string stem = opts.out_dir + "/" + opts.workload;
  if (!spans.write(stem, fingerprint_json(opts.seed))) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s.spans.*\n",
                 stem.c_str());
  } else {
    std::printf("%s: spans written to %s.spans.{bin,json}\n",
                opts.workload.c_str(), stem.c_str());
  }
  return t;
}

/// Native baseline throughput and its ratio to the PIM structure's.
void report_native(const LegResult& native, const TracedRun& t, Result& r) {
  const double native_ops_s = Summary::of(native.slice_ops_s).p50;
  r.attempted += native.ops;
  r.failed += native.failed;
  r.metrics.set("baselines.native_ops_s", native_ops_s, "1/s");
  r.metrics.set("baselines.pim_over_native",
                native_ops_s > 0 ? t.on_ops_s / native_ops_s : 0.0, "ratio");
}

// ---------------------------------------------------------------- queue ---

constexpr std::uint64_t kQueuePrefill = 4096;
constexpr unsigned kProducerShift = 40;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kProducerShift) - 1;
enum QueueCall : std::uint32_t { kEnqueue = 0, kDequeue = 1 };

std::uint64_t tag(std::size_t producer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(producer) << kProducerShift) | seq;
}

/// Keyed 64-bit hash of a queue value: the check compares sums of these,
/// so a lost or duplicated value goes unnoticed with probability 2^-64.
std::uint64_t value_hash(std::uint64_t v) {
  return SplitMix64(v ^ 0x6a09e667f3bcc909ULL).next();
}

/// What one dequeuer saw, in constant memory: per producer the count and
/// hash sum of the values, and the last seq (FIFO order check).
struct DequeueLog {
  std::vector<std::uint64_t> count = std::vector<std::uint64_t>(kClients, 0);
  std::vector<std::uint64_t> hash_sum =
      std::vector<std::uint64_t>(kClients, 0);
  std::vector<std::uint64_t> last = std::vector<std::uint64_t>(kClients, 0);
  std::uint64_t first = 0;      ///< first value seen (0 = none yet)
  std::uint64_t reordered = 0;  ///< a producer's seq did not increase
  std::uint64_t unknown = 0;    ///< not a value any producer could make

  void observe(std::uint64_t v) {
    const std::uint64_t p = v >> kProducerShift;
    const std::uint64_t s = v & kSeqMask;
    if (p >= kClients || s == 0) {
      ++unknown;
      return;
    }
    if (first == 0) first = v;
    ++count[p];
    hash_sum[p] += value_hash(v);
    if (s <= last[p]) ++reordered;
    last[p] = s;
  }
};

struct alignas(64) QueueClient {
  Xoshiro256 rng{0};
  std::uint64_t enqueued = 0;  ///< seq of this producer's last value
  DequeueLog log;
  std::uint64_t dequeues = 0;
  std::uint64_t empty = 0;
};

struct QueueRig {
  runtime::PimSystem system{system_config()};
  core::PimFifoQueue queue{system};
  QueueRig() { system.start(); }
  ~QueueRig() { system.stop(); }
};

/// Violations of the queue's output contract: the values dequeued overall
/// (clients, then the final drain) are exactly the values each producer
/// enqueued (seq 1..produced[p]), each once, and each dequeuer sees each
/// producer's values in increasing seq.
struct QueueCheck {
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t unknown = 0;
  std::uint64_t total() const {
    return lost + duplicated + reordered + unknown;
  }
};

QueueCheck check_queue(const std::vector<std::uint64_t>& produced,
                       const std::vector<const DequeueLog*>& logs) {
  QueueCheck out;
  for (std::size_t p = 0; p < produced.size(); ++p) {
    std::uint64_t expect_hash = 0;
    for (std::uint64_t s = 1; s <= produced[p]; ++s) {
      expect_hash += value_hash(tag(p, s));
    }
    std::uint64_t count = 0, hash = 0;
    for (const DequeueLog* log : logs) {
      count += log->count[p];
      hash += log->hash_sum[p];
    }
    if (count < produced[p]) out.lost += produced[p] - count;
    if (count > produced[p]) out.duplicated += count - produced[p];
    if (count == produced[p] && hash != expect_hash) {
      // Same count, other values: at least one lost and one duplicated
      // (or unknown) value.
      ++out.lost;
      ++out.duplicated;
    }
  }
  for (const DequeueLog* log : logs) {
    out.reordered += log->reordered;
    out.unknown += log->unknown;
  }
  return out;
}

/// Fresh queue, prefilled from the clients and warmed up.
std::unique_ptr<QueueRig> setup_queue(ClientPool& pool, const Options& opts,
                                      std::vector<QueueClient>& clients) {
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients[c] = QueueClient{};
    clients[c].rng = Xoshiro256(client_seed(opts.seed, c, 1));
  }
  auto rig = std::make_unique<QueueRig>();
  pool.run([&](std::size_t c) {
    for (std::uint64_t i = 0; i < kQueuePrefill / pool.size(); ++i) {
      rig->queue.enqueue(tag(c, ++clients[c].enqueued));
    }
  });
  return rig;
}

}  // namespace

Result run_queue(ClientPool& pool, const Options& opts) {
  Result r;
  std::vector<QueueClient> clients(pool.size());
  std::unique_ptr<QueueRig> rig;
  const auto op = [&](std::size_t c) -> std::uint32_t {
    QueueClient& cl = clients[c];
    if (cl.rng.next_bool(0.5)) {
      rig->queue.enqueue(tag(c, ++cl.enqueued));
      return kEnqueue;
    }
    ++cl.dequeues;
    if (const auto v = rig->queue.dequeue()) {
      cl.log.observe(*v);
    } else {
      ++cl.empty;
    }
    return kDequeue;
  };

  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < (opts.trace ? 1 : kSetupReps); ++rep) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    rig = setup_queue(pool, opts, clients);
    warm_up(pool, op);
    setup_s.push_back(seconds_since(t0));
  }

  LegResult leg;
  TracedRun traced;
  const std::uint64_t rej0 = rig->queue.rejections();
  std::uint64_t deq0 = 0, empty0 = 0;
  for (const auto& cl : clients) {
    deq0 += cl.dequeues;
    empty0 += cl.empty;
  }
  if (opts.trace) {
    traced = traced_legs(pool, opts, {"enqueue", "dequeue"}, r, op);
  } else {
    leg = run_leg(pool, opts.seconds, kSlices, true, nullptr, op);
    r.attempted += leg.ops;
    r.failed += leg.failed;
  }
  const double rss_mb = peak_rss_mb();

  // Final drain from one client, then the output check.
  std::vector<std::uint64_t> drained;
  pool.run([&](std::size_t c) {
    if (c != 0) return;
    while (const auto v = rig->queue.dequeue()) drained.push_back(*v);
  });
  r.attempted += drained.size() + 1;
  if (rig->queue.approx_size() != 0) ++r.failed;
  // Self-test faults: the drain reports one value twice, or drops one.
  if (opts.fault == "duplicate") {
    const std::uint64_t v = clients[0].log.first;
    drained.push_back(v != 0 ? v : drained.front());
  } else if (opts.fault == "lose" && !drained.empty()) {
    drained.pop_back();
  }
  DequeueLog drain_log;
  for (const std::uint64_t v : drained) drain_log.observe(v);
  std::vector<std::uint64_t> produced;
  std::vector<const DequeueLog*> logs;
  std::uint64_t dequeues = 0, empty = 0;
  for (const auto& cl : clients) {
    produced.push_back(cl.enqueued);
    logs.push_back(&cl.log);
    dequeues += cl.dequeues;
    empty += cl.empty;
  }
  logs.push_back(&drain_log);
  const QueueCheck check = check_queue(produced, logs);
  r.failed += check.total();
  std::printf("queue check: %llu values produced; lost %llu, duplicated %llu, "
              "reordered %llu, unknown %llu\n",
              static_cast<unsigned long long>(std::accumulate(
                  produced.begin(), produced.end(), std::uint64_t{0})),
              static_cast<unsigned long long>(check.lost),
              static_cast<unsigned long long>(check.duplicated),
              static_cast<unsigned long long>(check.reordered),
              static_cast<unsigned long long>(check.unknown));

  if (!opts.trace) {
    report_e2e(opts, leg, setup_s, rss_mb,
               queue_twin_virtual_ops_s(opts.seed), r);
    rig.reset();
    return r;
  }

  Metrics& m = r.metrics;
  m.set("core.queue.rejections_per_op",
        static_cast<double>(rig->queue.rejections() - rej0) /
            static_cast<double>(std::max<std::uint64_t>(traced.calls, 1)),
        "rej/op");
  const auto* handoffs =
      traced.delta.find_counter("runtime.queue.segment_handoffs");
  m.set("core.queue.segment_handoffs_per_kop",
        handoffs != nullptr
            ? static_cast<double>(handoffs->value) * 1e3 / traced.ops_on
            : 0.0,
        "1/kop");
  m.set("core.queue.empty_dequeue_share",
        static_cast<double>(empty - empty0) /
            static_cast<double>(std::max<std::uint64_t>(dequeues - deq0, 1)),
        "share");
  rig.reset();
  clients.clear();

  // Native baseline: Michael-Scott queue, same clients and mix.
  {
    baselines::MsQueue ms;
    struct alignas(64) NativeClient {
      Xoshiro256 rng{0};
      std::uint64_t enqueued = 0;
      std::uint64_t dequeued = 0;
    };
    std::vector<NativeClient> native_clients(pool.size());
    for (std::size_t c = 0; c < pool.size(); ++c) {
      native_clients[c].rng = Xoshiro256(client_seed(opts.seed, c, 2));
    }
    for (std::uint64_t i = 0; i < kQueuePrefill; ++i) ms.enqueue(i);
    const LegResult native = run_leg(
        pool, 3 * trace_leg_seconds(opts), 3, false, nullptr,
        [&](std::size_t c) -> std::uint32_t {
          NativeClient& cl = native_clients[c];
          if (cl.rng.next_bool(0.5)) {
            ms.enqueue(c);
            ++cl.enqueued;
            return kEnqueue;
          }
          if (ms.dequeue()) ++cl.dequeued;
          return kDequeue;
        });
    // Count balance: prefill + enqueued == dequeued + left in the queue.
    std::uint64_t balance = kQueuePrefill;
    while (ms.dequeue()) --balance;
    for (const NativeClient& cl : native_clients) {
      balance += cl.enqueued - cl.dequeued;
    }
    if (balance != 0) ++r.failed;
    report_native(native, traced, r);
  }
  mark_not_exercised(m, {"core.skiplist.vault_imbalance"});
  return r;
}

// ------------------------------------------------------------- skip list ---

namespace {

constexpr std::uint64_t kKeyRange = std::uint64_t{1} << 20;
constexpr std::size_t kSkipPrefill = std::size_t{1} << 19;
enum SetCall : std::uint32_t { kContains = 0, kAdd = 1, kRemove = 2 };

struct alignas(64) SetClient {
  Xoshiro256 rng{0};
  std::uint64_t adds = 0;     ///< successful adds
  std::uint64_t removes = 0;  ///< successful removes
};

struct SkipRig {
  runtime::PimSystem system{system_config()};
  core::PimSkipList list;
  explicit SkipRig(std::uint64_t seed)
      : list(system, core::PimSkipList::Options{1, kKeyRange, seed, 32}) {
    system.start();
  }
  ~SkipRig() { system.stop(); }
};

/// kSkipPrefill distinct uniform keys of [1, kKeyRange], from the seed, in
/// the order they were drawn.
std::vector<std::uint32_t> prefill_keys(std::uint64_t seed) {
  std::vector<bool> taken(kKeyRange + 1);
  std::vector<std::uint32_t> keys;
  keys.reserve(kSkipPrefill);
  Xoshiro256 rng(client_seed(seed, 99, 3));
  while (keys.size() < kSkipPrefill) {
    const std::uint64_t k = rng.next_in(1, kKeyRange);
    if (taken[k]) continue;
    taken[k] = true;
    keys.push_back(static_cast<std::uint32_t>(k));
  }
  return keys;
}

/// One closed-loop call of the set mix on `set`.
template <typename Set>
std::uint32_t set_call(Set& set, SetClient& cl, double contains_share) {
  const double u = cl.rng.next_double();
  const std::uint64_t key = cl.rng.next_in(1, kKeyRange);
  if (u < contains_share) {
    set.contains(key);
    return kContains;
  }
  if (u < contains_share + 0.5 * (1.0 - contains_share)) {
    cl.adds += set.add(key);
    return kAdd;
  }
  cl.removes += set.remove(key);
  return kRemove;
}

/// Prefill `set` with `keys` from the clients; returns failed adds.
template <typename Set>
std::uint64_t prefill_set(ClientPool& pool, Set& set,
                          const std::vector<std::uint32_t>& keys) {
  std::atomic<std::uint64_t> failed{0};
  pool.run([&](std::size_t c) {
    std::uint64_t mine = 0;
    for (std::size_t i = c; i < keys.size(); i += pool.size()) {
      mine += !set.add(keys[i]);
    }
    failed += mine;
  });
  return failed.load();
}

/// Size check: prefill + successful adds - successful removes == size().
std::uint64_t check_size(const std::vector<SetClient>& clients,
                         std::size_t size, const char* what) {
  std::int64_t expect = static_cast<std::int64_t>(kSkipPrefill);
  for (const auto& cl : clients) {
    expect += static_cast<std::int64_t>(cl.adds) -
              static_cast<std::int64_t>(cl.removes);
  }
  std::printf("%s size check: expected %lld, size() %zu\n", what,
              static_cast<long long>(expect), size);
  return static_cast<std::int64_t>(size) == expect ? 0 : 1;
}

}  // namespace

Result run_skiplist(ClientPool& pool, const Options& opts,
                    double contains_share) {
  Result r;
  const std::vector<std::uint32_t> keys = prefill_keys(opts.seed);
  std::vector<SetClient> clients(pool.size());
  std::unique_ptr<SkipRig> rig;
  const auto op = [&](std::size_t c) -> std::uint32_t {
    return set_call(rig->list, clients[c], contains_share);
  };
  const auto reset_clients = [&](std::uint64_t salt) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      clients[c] = SetClient{};
      clients[c].rng = Xoshiro256(client_seed(opts.seed, c, salt));
    }
  };

  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < (opts.trace ? 1 : kSetupReps); ++rep) {
    rig.reset();
    reset_clients(4);
    const std::uint64_t t0 = now_ns();
    rig = std::make_unique<SkipRig>(opts.seed);
    r.failed += prefill_set(pool, rig->list, keys);
    warm_up(pool, op);
    setup_s.push_back(seconds_since(t0));
  }
  std::vector<std::uint64_t> requests0;
  for (const auto& s : rig->list.vault_stats()) requests0.push_back(s.requests);

  LegResult leg;
  TracedRun traced;
  if (opts.trace) {
    traced = traced_legs(pool, opts, {"contains", "add", "remove"}, r, op);
  } else {
    leg = run_leg(pool, opts.seconds, kSlices, true, nullptr, op);
    r.attempted += leg.ops;
    r.failed += leg.failed;
  }
  const double rss_mb = peak_rss_mb();
  r.failed += check_size(clients, rig->list.size(), "skiplist");
  r.attempted += 1;

  if (!opts.trace) {
    report_e2e(opts, leg, setup_s, rss_mb,
               skiplist_twin_virtual_ops_s(opts.seed, contains_share), r);
    rig.reset();
    return r;
  }

  Metrics& m = r.metrics;
  const auto stats = rig->list.vault_stats();
  double max_req = 0, sum_req = 0;
  for (std::size_t v = 0; v < stats.size(); ++v) {
    const auto req = static_cast<double>(stats[v].requests - requests0[v]);
    max_req = std::max(max_req, req);
    sum_req += req;
  }
  m.set("core.skiplist.vault_imbalance",
        sum_req > 0 ? max_req * static_cast<double>(stats.size()) / sum_req
                    : 0.0,
        "ratio");
  rig.reset();

  // Native baseline: lock-free skip list, same keys, clients and mix.
  {
    baselines::LockFreeSkipList lf;
    reset_clients(5);
    r.failed += prefill_set(pool, lf, keys);
    const LegResult native =
        run_leg(pool, 3 * trace_leg_seconds(opts), 3, false, nullptr,
                [&](std::size_t c) -> std::uint32_t {
                  return set_call(lf, clients[c], contains_share);
                });
    r.failed += check_size(clients, lf.size(), "native skiplist");
    r.attempted += 1;
    report_native(native, traced, r);
  }
  mark_not_exercised(m, {"core.queue.rejections_per_op",
                         "core.queue.segment_handoffs_per_kop",
                         "core.queue.empty_dequeue_share"});
  return r;
}

}  // namespace perfbench
