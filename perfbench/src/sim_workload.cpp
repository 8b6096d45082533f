// The simulator workload (sim::run_pim_queue, sim::run_pim_skiplist) and
// the simulated twins of the runtime workloads.
#include <cmath>
#include <ctime>
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_utils.hpp"
#include "model/queue_model.hpp"
#include "model/skiplist_model.hpp"
#include "obs/metrics.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pimds;

/// Virtual window of the reference runs that give virtual_ops_s and the
/// exact counts: long enough that the numbers are steady-state.
constexpr sim::Time kReferenceWindowNs = 20'000'000;
/// Virtual window of each timed call: short, so a 30 s run makes ~1500
/// rounds, ~150 in each of its 10 slices.
constexpr sim::Time kCallWindowNs = 1'000'000;
constexpr std::size_t kReferenceReps = 5;
/// Time slices of the timed leg: latency percentiles are medians over
/// slices, as on the runtime workloads, so a slow spell of the host moves
/// only the slices it hits.
constexpr std::size_t kSlices = 10;
constexpr std::size_t kSkipPartitions = 8;
constexpr std::size_t kSkipInitial = std::size_t{1} << 14;
/// Virtual window of the runtime workloads' twins.
constexpr sim::Time kTwinWindowNs = 5'000'000;
/// The skip-list twin's throughput depends on the seed's tower heights;
/// averaging a few derived seeds narrows that spread.
constexpr std::uint64_t kSkipTwinSeeds = 3;

/// Section 5.2 PIM queue: 8 enqueuers + 8 dequeuers, 4 vaults.
sim::PimQueueResult run_queue_sim(std::uint64_t seed, sim::Time window) {
  sim::QueueConfig cfg;
  cfg.seed = seed;
  cfg.enqueuers = 8;
  cfg.dequeuers = 8;
  cfg.duration_ns = window;
  sim::PimQueueOptions opts;
  opts.num_vaults = 4;
  return sim::run_pim_queue(cfg, opts);
}

/// Fig. 4 partitioned skip list: 16 CPUs, k = 8.
sim::RunResult run_skiplist_sim(std::uint64_t seed, sim::Time window) {
  sim::SkipListConfig cfg;
  cfg.seed = seed;
  cfg.num_cpus = 16;
  cfg.key_range = 1 << 15;
  cfg.initial_size = kSkipInitial;
  cfg.duration_ns = window;
  return sim::run_pim_skiplist(cfg, kSkipPartitions);
}

bool same(const sim::PimQueueResult& a, const sim::PimQueueResult& b) {
  return a.run.total_ops == b.run.total_ops &&
         a.run.virtual_ns == b.run.virtual_ns &&
         a.rejections == b.rejections &&
         a.segments_created == b.segments_created &&
         a.empty_dequeues == b.empty_dequeues && a.enq_ops == b.enq_ops &&
         a.deq_ops == b.deq_ops && a.enq_batches == b.enq_batches;
}

bool same(const sim::RunResult& a, const sim::RunResult& b) {
  return a.total_ops == b.total_ops && a.virtual_ns == b.virtual_ns;
}

std::uint64_t call_seed(std::uint64_t seed, std::uint64_t pair) {
  return SplitMix64(seed * 0x9e3779b97f4a7c15ULL + pair).next();
}

/// CPU time of the calling thread.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Timed sim calls. Round i runs the queue, then the skip list; rounds 2j
/// and 2j+1 share a seed and must agree exactly. A round is the unit of
/// latency, so every sample covers the same work. Its latency is the
/// thread's CPU time: the simulator is single-threaded and compute-bound,
/// and the wall-clock tail only counted how often the host preempted it.
struct SimLeg {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t sim_ops = 0;
  std::uint64_t mismatched = 0;
  std::vector<double> round_ns;  ///< CPU time of every round
  std::vector<std::size_t> round_slice;  ///< time slice each round ended in
  double ops_s() const {
    return seconds > 0 ? static_cast<double>(sim_ops) / seconds : 0.0;
  }
};

SimLeg run_sim_leg(std::uint64_t seed, double seconds, SpanLog* spans) {
  SimLeg leg;
  const auto dur = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t slice_ns = std::max<std::uint64_t>(dur / kSlices, 1);
  const std::uint64_t t0 = now_ns();
  std::uint64_t t = t0;
  sim::PimQueueResult prev_q;
  sim::RunResult prev_s;
  for (std::uint64_t round = 0; t - t0 < dur; ++round) {
    const std::uint64_t s = call_seed(seed, round / 2);
    const std::uint64_t start = t;
    const std::uint64_t cpu_start = thread_cpu_ns();
    const sim::PimQueueResult q = run_queue_sim(s, kCallWindowNs);
    const std::uint64_t mid = now_ns();
    const sim::RunResult sk = run_skiplist_sim(s, kCallWindowNs);
    t = now_ns();
    leg.round_ns.push_back(static_cast<double>(thread_cpu_ns() - cpu_start));
    leg.round_slice.push_back(
        std::min<std::size_t>((t - t0) / slice_ns, kSlices - 1));
    leg.calls += 2;
    leg.sim_ops += q.run.total_ops + sk.total_ops;
    if (spans != nullptr) {
      spans->per_client[0].spans.push_back(Span{start, mid, 0, 0});
      spans->per_client[0].spans.push_back(Span{mid, t, 1, 0});
    }
    if (round % 2 == 1) {
      leg.mismatched += !same(q, prev_q);
      leg.mismatched += !same(sk, prev_s);
    }
    prev_q = q;
    prev_s = sk;
  }
  leg.seconds = static_cast<double>(t - t0) * 1e-9;
  return leg;
}

/// Median over time slices of each slice's p50 (or p99) of round CPU time.
double slice_percentile(const SimLeg& leg, bool p99) {
  std::vector<std::vector<double>> by_slice(kSlices);
  for (std::size_t i = 0; i < leg.round_ns.size(); ++i) {
    by_slice[leg.round_slice[i]].push_back(leg.round_ns[i]);
  }
  std::vector<double> per_slice;
  for (auto& v : by_slice) {
    if (v.empty()) continue;
    const Summary sv = Summary::of(std::move(v));
    per_slice.push_back(p99 ? sv.p99 : sv.p50);
  }
  return Summary::of(per_slice).p50;
}

double err_pct(double measured, double predicted) {
  return predicted > 0 ? 100.0 * std::fabs(measured - predicted) / predicted
                       : 0.0;
}

Result run_sim_here(const Options& opts) {
  Result r;
  // Set-up: the reference runs, repeated; every repeat must match the first.
  std::vector<double> setup_s;
  sim::PimQueueResult ref_q;
  sim::RunResult ref_s;
  for (std::size_t rep = 0; rep < kReferenceReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    const sim::PimQueueResult q = run_queue_sim(opts.seed, kReferenceWindowNs);
    const sim::RunResult s = run_skiplist_sim(opts.seed, kReferenceWindowNs);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    r.attempted += 2;
    if (rep == 0) {
      ref_q = q;
      ref_s = s;
    } else {
      r.failed += !same(q, ref_q);
      r.failed += !same(s, ref_s);
    }
  }
  const double virtual_ops_s =
      static_cast<double>(ref_q.run.total_ops + ref_s.total_ops) /
      (static_cast<double>(ref_q.run.virtual_ns + ref_s.virtual_ns) * 1e-9);
  std::printf("sim reference (seed %llu): queue %llu ops / %llu virtual ns, "
              "skiplist %llu ops / %llu virtual ns; virtual_ops_s %.17g\n",
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(ref_q.run.total_ops),
              static_cast<unsigned long long>(ref_q.run.virtual_ns),
              static_cast<unsigned long long>(ref_s.total_ops),
              static_cast<unsigned long long>(ref_s.virtual_ns),
              virtual_ops_s);

  Metrics& m = r.metrics;
  if (!opts.trace) {
    const SimLeg leg = run_sim_leg(opts.seed, opts.seconds, nullptr);
    r.attempted += leg.calls;
    r.failed += leg.mismatched;
    // Throughput is the whole leg's mean; latencies are slice medians.
    m.set("throughput_ops_s", leg.ops_s(), "1/s");
    const double p50_ns = slice_percentile(leg, false);
    const double p99_ns = slice_percentile(leg, true);
    m.set("latency_p50_us", p50_ns * 1e-3, "us");
    m.set("latency_p99_us", p99_ns * 1e-3, "us");
    m.set("latency_samples", static_cast<double>(leg.round_ns.size()),
          "count");
    m.set("failed_ops_share",
          static_cast<double>(r.failed) / static_cast<double>(r.attempted),
          "share");
    m.set("setup_s", Summary::of(setup_s).p50, "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("virtual_ops_s", virtual_ops_s, "1/s");
    std::printf("sim: %.0f simulated ops/s over %.2f s host, %zu rounds, "
                "p50 %.1f us, p99 %.1f us CPU per round\n",
                leg.ops_s(), leg.seconds, leg.round_ns.size(),
                p50_ns * 1e-3, p99_ns * 1e-3);
    return r;
  }

  // Traced run: interleaved metrics-on / metrics-off / traced legs.
  SpanLog spans;
  spans.root_name = "workload:sim";
  spans.names = {"sim::run_pim_queue", "sim::run_pim_skiplist"};
  spans.per_client.resize(1);
  const double leg_s = std::max(0.3, opts.seconds / 9.0);
  std::vector<double> on, off, traced;
  spans.root_start_ns = now_ns();
  for (int round = 0; round < 3; ++round) {
    const SimLeg a = run_sim_leg(opts.seed, leg_s, nullptr);
    obs::set_metrics_enabled(false);
    const SimLeg b = run_sim_leg(opts.seed, leg_s, nullptr);
    obs::set_metrics_enabled(true);
    const SimLeg c = run_sim_leg(opts.seed, leg_s, &spans);
    for (const SimLeg* l : {&a, &b, &c}) {
      r.attempted += l->calls;
      r.failed += l->mismatched;
    }
    on.push_back(a.ops_s());
    off.push_back(b.ops_s());
    traced.push_back(c.ops_s());
  }
  spans.root_end_ns = now_ns();
  const std::string stem = opts.out_dir + "/" + opts.workload;
  if (spans.write(stem, fingerprint_json(opts.seed))) {
    std::printf("sim: spans written to %s.spans.{bin,json}\n", stem.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write spans to %s.spans.*\n",
                 stem.c_str());
  }
  const double on_ops_s = Summary::of(on).p50;
  m.set("sim.host_ns_per_op", 1e9 / on_ops_s, "ns");
  m.set("obs.off_over_on", Summary::of(off).p50 / on_ops_s, "ratio");
  m.set("trace.overhead_share",
        (on_ops_s - Summary::of(traced).p50) / on_ops_s, "share");
  m.set("sim.queue.rejections", static_cast<double>(ref_q.rejections),
        "count");
  m.set("sim.queue.segments_created",
        static_cast<double>(ref_q.segments_created), "count");
  m.set("sim.queue.enq_batches", static_cast<double>(ref_q.enq_batches),
        "count");
  const LatencyParams lp = LatencyParams::paper_defaults();
  // The per-side bound applies to enqueues and dequeues in parallel.
  m.set("model.queue.err_pct",
        err_pct(ref_q.run.ops_per_sec(), 2.0 * model::pim_queue_pipelined(lp)),
        "%");
  m.set("model.skiplist.err_pct",
        err_pct(ref_s.ops_per_sec(),
                model::pim_skiplist_partitioned(
                    lp, model::estimate_beta(kSkipInitial), kSkipPartitions)),
        "%");
  return r;
}

}  // namespace

Result run_sim(const Options& opts) {
  // The simulator is single-threaded: run it on a thread of its own pinned
  // to one CPU, so migrations (cold caches) do not vary from run to run.
  // The last CPU is the one least likely to field device interrupts.
  Result r;
  std::exception_ptr error;
  std::thread worker([&] {
    pin_to_cpu(hardware_threads() - 1);
    try {
      r = run_sim_here(opts);
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) std::rethrow_exception(error);
  return r;
}

double queue_twin_virtual_ops_s(std::uint64_t seed) {
  sim::QueueConfig cfg;
  cfg.seed = seed;
  cfg.enqueuers = 1;
  cfg.dequeuers = 1;
  cfg.initial_nodes = 4096;
  cfg.duration_ns = kTwinWindowNs;
  sim::PimQueueOptions opts;
  opts.num_vaults = kVaults;
  opts.enqueue_combining = true;
  return sim::run_pim_queue(cfg, opts).run.ops_per_sec();
}

double skiplist_twin_virtual_ops_s(std::uint64_t seed, double contains_share) {
  sim::SkipListConfig cfg;
  cfg.num_cpus = kClients;
  cfg.key_range = std::uint64_t{1} << 20;
  cfg.initial_size = std::size_t{1} << 19;
  cfg.mix = sim::SetOpMix{(1.0 - contains_share) / 2,
                          (1.0 - contains_share) / 2};
  cfg.duration_ns = kTwinWindowNs;
  std::uint64_t ops = 0, virtual_ns = 0;
  for (std::uint64_t i = 0; i < kSkipTwinSeeds; ++i) {
    cfg.seed = call_seed(seed, i);
    const sim::RunResult r = sim::run_pim_skiplist(cfg, kVaults);
    ops += r.total_ops;
    virtual_ns += r.virtual_ns;
  }
  return static_cast<double>(ops) / (static_cast<double>(virtual_ns) * 1e-9);
}

}  // namespace perfbench
