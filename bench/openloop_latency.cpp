// Open-loop tail-latency sweep over the runtime PIM structures
// (observability plane, part 4).
//
// Closed-loop benches measure throughput honestly but latency dishonestly:
// each worker only issues once its previous op completes, so a stall
// swallows exactly the samples that would have shown it (coordinated
// omission). This driver fixes the arrival process instead: dedicated
// injector threads issue on a schedule (Poisson or deterministic) at a
// configured fraction of the structure's own measured closed-loop capacity,
// and every op is charged from its INTENDED start to completion
// (obs::LatencyRecorder). A saturated server then yields an exploding
// backlog and growing percentiles instead of a flat, self-censored table.
//
// The queue sweep doubles as a model-conformance experiment. With a single
// segment (segment_threshold = 2^60), CPU-side combining off (one crossbar
// message per op) and enqueue combining off (constant service per op), one
// vault core is literally an M/D/1 server: Poisson arrivals, deterministic
// service s ~= Lpim per message. src/model/latency_model.hpp supplies the
// closed-form sojourn prediction; the constant client-side overhead (two
// Lmessage flight legs + scheduling) is calibrated once at the LOWEST rate
// point, and predicted-vs-measured mean and p99 land in the JSON's
// conformance.latency rows. Below the knee (rho <= 0.7) the mean should
// track M/D/1 within the gate tolerance; above it the model predicts an
// unstable queue and the measured backlog/lateness must grow monotonically
// — that, not a percentile band, is the sanity check past saturation.
//
// Scale note: Lpim is inflated to 10 us (like ablation_batch_drain) so the
// injected latencies dominate host scheduler noise and a 2-vault system
// has a ~100 Kops/s server — rates the injector clock (wait_until_ns) can
// hit within a microsecond.
//
// Flags (besides the common --json/--trace/--telemetry set):
//   --duration-ms <n>   per rate point measurement window   (default 400)
//   --capacity-ms <n>   closed-loop capacity leg            (default 300)
//   --injectors <n>     open-loop injector threads          (default 16)
//   --pim-ns <n>        inflated Lpim scale                 (default 10000)
//   --structure <s>     queue | skiplist | both             (default both)
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_utils.hpp"
#include "common/timing.hpp"
#include "core/pim_fifo_queue.hpp"
#include "core/pim_skiplist.hpp"
#include "model/latency_model.hpp"
#include "runtime/system.hpp"
#include "sim/ds/queues.hpp"

namespace {

using namespace pimds;
using namespace pimds::bench;

enum class Sched { kClosedLoop, kDeterministic, kPoisson };

const char* sched_name(Sched s) {
  switch (s) {
    case Sched::kClosedLoop: return "closed";
    case Sched::kDeterministic: return "deterministic";
    case Sched::kPoisson: return "poisson";
  }
  return "?";
}

struct LegConfig {
  Sched sched = Sched::kPoisson;
  double offered_ops_per_sec = 0.0;  ///< aggregate; unused for closed loop
  std::uint64_t duration_ns = 400'000'000;
  std::size_t injectors = 16;
  double pim_ns = 10'000.0;
  std::uint64_t seed = 0x5eedULL;
};

struct LegStats {
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  double completed_ops_per_sec = 0.0;
  /// How far the injector schedule ran past its nominal end: the last
  /// injector's finish minus (t0 + duration). Zero when the system kept up.
  double backlog_ns = 0.0;
  double lambda_per_ns = 0.0;  ///< busiest vault: served messages per ns
  double service_ns = 0.0;     ///< busiest vault: busy_ns per message
  double rho = 0.0;            ///< lambda * s at the busiest vault
  obs::LatencyRecorder::Summary lat;
  std::string phase_p99;  ///< per-phase p99 attribution (JSON object)
};

/// Run one measured leg: `injectors` threads driving `op` on the configured
/// arrival schedule against whatever structure the caller set up. Resets
/// the metrics registry at entry so phase/vault counters describe only this
/// leg. The caller's system must already be started.
LegStats run_leg(const LegConfig& leg, const char* family,
                 const std::function<void(std::size_t, Xoshiro256&)>& op) {
  obs::Registry::instance().reset();
  obs::LatencyRecorder recorder(family);
  const double period_ns =
      leg.sched == Sched::kClosedLoop
          ? 0.0
          : 1e9 * static_cast<double>(leg.injectors) / leg.offered_ops_per_sec;
  std::atomic<std::uint64_t> total_ops{0};
  std::atomic<std::uint64_t> last_finish{0};
  // Epoch far enough out that every injector is parked on it before the
  // first intended slot; absolute deadlines keep the schedule independent
  // of how long any op takes.
  const std::uint64_t t0 = now_ns() + 2'000'000;
  std::vector<std::thread> threads;
  threads.reserve(leg.injectors);
  for (std::size_t i = 0; i < leg.injectors; ++i) {
    threads.emplace_back([&, i] {
      Xoshiro256 rng(leg.seed + 0x9E3779B97F4A7C15ULL * (i + 1));
      std::uint64_t ops = 0;
      if (leg.sched == Sched::kClosedLoop) {
        wait_until_ns(t0);
        const std::uint64_t end = t0 + leg.duration_ns;
        while (now_ns() < end) {
          op(i, rng);
          ++ops;
        }
      } else {
        // Deterministic: evenly staggered fixed periods. Poisson: uniform
        // phase then exponential gaps — superposing independent Poisson
        // injectors is Poisson at the aggregate rate.
        double rel = leg.sched == Sched::kDeterministic
                         ? period_ns * (static_cast<double>(i) + 0.5) /
                               static_cast<double>(leg.injectors)
                         : rng.next_double() * period_ns;
        while (rel < static_cast<double>(leg.duration_ns)) {
          const std::uint64_t intended = t0 + static_cast<std::uint64_t>(rel);
          wait_until_ns(intended);
          const std::uint64_t start = now_ns();
          op(i, rng);
          recorder.record(intended, start, now_ns());
          ++ops;
          rel += leg.sched == Sched::kPoisson
                     ? -period_ns * std::log(1.0 - rng.next_double())
                     : period_ns;
        }
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
      std::uint64_t fin = now_ns();
      std::uint64_t cur = last_finish.load(std::memory_order_relaxed);
      while (fin > cur && !last_finish.compare_exchange_weak(
                              cur, fin, std::memory_order_relaxed)) {
      }
    });
  }
  for (auto& t : threads) t.join();

  LegStats s;
  s.ops = total_ops.load(std::memory_order_relaxed);
  const std::uint64_t wall_end = last_finish.load(std::memory_order_relaxed);
  s.wall_s = wall_end > t0 ? static_cast<double>(wall_end - t0) * 1e-9 : 0.0;
  s.completed_ops_per_sec =
      s.wall_s > 0.0 ? static_cast<double>(s.ops) / s.wall_s : 0.0;
  const std::uint64_t nominal_end = t0 + leg.duration_ns;
  s.backlog_ns = wall_end > nominal_end
                     ? static_cast<double>(wall_end - nominal_end)
                     : 0.0;
  // Busiest vault = the queueing server (the single-segment queue puts all
  // traffic on one vault; the skip list spreads it, so this is the hottest
  // partition).
  obs::Registry& reg = obs::Registry::instance();
  double best_msgs = 0.0;
  double best_busy = 0.0;
  for (int k = 0; k < 8; ++k) {
    const std::string prefix = "runtime.vault" + std::to_string(k);
    const double msgs =
        static_cast<double>(reg.counter(prefix + ".messages").value());
    if (msgs > best_msgs) {
      best_msgs = msgs;
      best_busy =
          static_cast<double>(reg.counter(prefix + ".busy_ns").value());
    }
  }
  if (best_msgs > 0.0 && s.wall_s > 0.0) {
    s.lambda_per_ns = best_msgs / (s.wall_s * 1e9);
    s.service_ns = best_busy / best_msgs;
    s.rho = s.lambda_per_ns * s.service_ns;
  }
  s.lat = recorder.summary();
  s.phase_p99 =
      obs::phase_tail_json(obs::phase_tail(obs::PhaseDomain::kRuntime, 0.99));
  return s;
}

runtime::PimSystem::Config system_config(double pim_ns) {
  runtime::PimSystem::Config cfg;
  cfg.num_vaults = 2;
  cfg.inject_latency = true;
  cfg.params = LatencyParams::paper_defaults();
  cfg.params.pim_ns = pim_ns;
  // The gather window parks the core waiting for imminently-due messages
  // BEFORE dispatch; that wait is not in busy_ns, so it would inflate
  // measured sojourn past anything M/D/1 can account for. 1 ns ~= off.
  cfg.drain_gather_window_ns = 1;
  cfg.pin_cores = hardware_threads() > cfg.num_vaults + 2;
  return cfg;
}

/// One queue rate point: fresh system + single-segment queue per leg so no
/// backlog leaks across points.
LegStats queue_leg(const LegConfig& leg) {
  runtime::PimSystem system(system_config(leg.pim_ns));
  core::PimFifoQueue::Options qopts;
  qopts.segment_threshold = std::uint64_t{1} << 60;  // single segment
  qopts.cpu_combining = false;     // one message per op: arrivals stay Poisson
  qopts.enqueue_combining = false;  // constant per-op service (the D in M/D/1)
  core::PimFifoQueue queue(system, qopts);
  system.start();
  for (std::uint64_t i = 0; i < 4096; ++i) queue.enqueue(i);  // deq never empty
  LegStats s =
      run_leg(leg, "openloop.queue", [&](std::size_t i, Xoshiro256& rng) {
        if ((i & 1) == 0) {
          queue.enqueue(rng.next());
        } else {
          (void)queue.dequeue();
        }
      });
  system.stop();
  return s;
}

LegStats skiplist_leg(const LegConfig& leg) {
  runtime::PimSystem system(system_config(leg.pim_ns));
  core::PimSkipList::Options sopts;
  sopts.key_max = std::uint64_t{1} << 16;
  core::PimSkipList list(system, sopts);
  system.start();
  Xoshiro256 pre(7);
  for (int i = 0; i < 8192; ++i) {
    list.add(1 + pre.next() % ((std::uint64_t{1} << 16) - 1));
  }
  LegStats s =
      run_leg(leg, "openloop.skiplist", [&](std::size_t i, Xoshiro256& rng) {
        const std::uint64_t key =
            1 + rng.next() % ((std::uint64_t{1} << 16) - 1);
        if ((i & 1) == 0) {
          (void)list.contains(key);
        } else if (rng.next() & 1) {
          (void)list.add(key);
        } else {
          (void)list.remove(key);
        }
      });
  system.stop();
  return s;
}

void add_field(std::string& out, const char* key, const std::string& value,
               bool quoted = false) {
  if (out.back() != '{') out += ", ";
  out += '"';
  out += key;
  out += "\": ";
  if (quoted) out += '"';
  out += value;
  if (quoted) out += '"';
}

void add_num(std::string& out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  add_field(out, key, buf);
}

/// The per-record "latency" object: full CO-free percentile ladder, the
/// closed-loop-equivalent service view, injector health (sched lag, late
/// share, backlog), raw model predictions, and per-phase p99 attribution.
std::string latency_json(Sched sched, double rate_frac, const LegStats& s,
                         bool gated) {
  std::string out = "{";
  add_field(out, "schedule", sched_name(sched), /*quoted=*/true);
  add_num(out, "rate_frac", rate_frac);
  add_num(out, "ops", static_cast<double>(s.lat.ops));
  add_num(out, "wall_s", s.wall_s);
  add_num(out, "rho", s.rho);
  add_num(out, "service_ns", s.service_ns);
  add_num(out, "mean_ns", s.lat.mean_ns);
  add_num(out, "p50_ns", s.lat.p50_ns);
  add_num(out, "p90_ns", s.lat.p90_ns);
  add_num(out, "p99_ns", s.lat.p99_ns);
  add_num(out, "p999_ns", s.lat.p999_ns);
  add_num(out, "max_ns", static_cast<double>(s.lat.max_ns));
  add_num(out, "service_mean_ns", s.lat.service_mean_ns);
  add_num(out, "service_p99_ns", s.lat.service_p99_ns);
  add_num(out, "sched_lag_p99_ns", s.lat.sched_lag_p99_ns);
  add_num(out, "late_share_pct", s.lat.late_share_pct());
  add_num(out, "backlog_ns", s.backlog_ns);
  add_field(out, "gated", gated ? "true" : "false");
  if (s.rho > 0.0 && s.service_ns > 0.0) {
    const model::LatencyPrediction md1 =
        model::mdl_sojourn(s.lambda_per_ns, s.service_ns);
    const model::LatencyPrediction mm1 =
        model::mm1_sojourn(s.lambda_per_ns, s.service_ns);
    add_field(out, "md1_stable", md1.stable ? "true" : "false");
    if (md1.stable) {
      add_num(out, "md1_mean_ns", md1.mean_ns);
      add_num(out, "md1_p99_ns", md1.p99_ns);
    }
    if (mm1.stable) add_num(out, "mm1_mean_ns", mm1.mean_ns);
  }
  add_field(out, "phase_p99", s.phase_p99.empty() ? "{}" : s.phase_p99);
  out += "}";
  return out;
}

struct SweepRow {
  double frac = 0.0;
  Sched sched = Sched::kPoisson;
  LegStats stats;
};

std::string frac_tag(double frac) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f", frac);
  return buf;
}

void print_row(const Table& table, const SweepRow& r) {
  char offered[32], done[32], rho[32], p50[32], p99[32], p999[32], mean[32],
      late[32], backlog[32];
  std::snprintf(offered, sizeof(offered), "%.1fK",
                r.stats.completed_ops_per_sec * 1e-3);
  std::snprintf(done, sizeof(done), "%llu",
                static_cast<unsigned long long>(r.stats.lat.ops));
  std::snprintf(rho, sizeof(rho), "%.2f", r.stats.rho);
  std::snprintf(p50, sizeof(p50), "%.0f", r.stats.lat.p50_ns * 1e-3);
  std::snprintf(p99, sizeof(p99), "%.0f", r.stats.lat.p99_ns * 1e-3);
  std::snprintf(p999, sizeof(p999), "%.0f", r.stats.lat.p999_ns * 1e-3);
  std::snprintf(mean, sizeof(mean), "%.0f", r.stats.lat.mean_ns * 1e-3);
  std::snprintf(late, sizeof(late), "%.1f%%", r.stats.lat.late_share_pct());
  std::snprintf(backlog, sizeof(backlog), "%.1f", r.stats.backlog_ns * 1e-6);
  table.print_row({frac_tag(r.frac), sched_name(r.sched), offered, done, rho,
                   p50, p99, p999, mean, late, backlog});
}

/// Sweep one structure: closed-loop capacity leg, then Poisson rate points
/// at `fracs` of capacity (+ one deterministic point for the queue). Emits
/// one record per point; for the queue also intercept-calibrated
/// conformance.latency rows against M/D/1.
void run_structure(JsonReporter& json, const char* structure,
                   const std::function<LegStats(const LegConfig&)>& leg_fn,
                   const LegConfig& base, std::uint64_t capacity_ns,
                   bool conformance) {
  banner((std::string("Open-loop latency sweep: ") + structure).c_str());

  LegConfig cap_leg = base;
  cap_leg.sched = Sched::kClosedLoop;
  cap_leg.duration_ns = capacity_ns;
  const LegStats cap = leg_fn(cap_leg);
  const double capacity = cap.completed_ops_per_sec;
  std::printf("closed-loop capacity: %.1f Kops/s (%zu injectors, "
              "Lpim = %.0f ns)\n\n",
              capacity * 1e-3, base.injectors, base.pim_ns);
  json.record(std::string(structure) + ".capacity",
              {{"structure", structure},
               {"schedule", "closed"},
               {"injectors", std::to_string(base.injectors)}},
              capacity);

  Table table({"rate", "schedule", "done/s", "ops", "rho", "p50us", "p99us",
               "p999us", "meanus", "late", "backlogms"},
              11);
  table.print_header();

  std::vector<SweepRow> rows;
  const double fracs[] = {0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1};
  for (const double frac : fracs) {
    LegConfig leg = base;
    leg.sched = Sched::kPoisson;
    leg.offered_ops_per_sec = frac * capacity;
    rows.push_back({frac, Sched::kPoisson, leg_fn(leg)});
    print_row(table, rows.back());
  }
  const bool is_queue = std::strcmp(structure, "queue") == 0;
  if (is_queue) {
    LegConfig leg = base;
    leg.sched = Sched::kDeterministic;
    leg.offered_ops_per_sec = 0.8 * capacity;
    rows.push_back({0.8, Sched::kDeterministic, leg_fn(leg)});
    print_row(table, rows.back());
  }

  // The knee: the last Poisson point the SYSTEM absorbed — completed rate
  // within 2% of offered AND the hot vault still in the M/D/1 regime
  // (rho <= 0.7). On a host with fewer cores than injectors the client
  // side saturates before the vault does; the delivery test catches that.
  double knee = 0.0;
  for (const SweepRow& r : rows) {
    if (r.sched != Sched::kPoisson || r.frac <= knee) continue;
    const double offered = r.frac * capacity;
    if (r.stats.completed_ops_per_sec >= 0.98 * offered &&
        r.stats.rho > 0.0 && r.stats.rho <= 0.7) {
      knee = r.frac;
    }
  }
  json.note(std::string(structure) + "_capacity_ops_per_sec", capacity);
  json.note(std::string(structure) + "_knee_rate_frac", knee);
  std::printf("\nknee (highest rate with rho <= 0.7): %.2fx capacity\n", knee);

  // Intercept calibration for conformance: the model predicts queueing
  // sojourn AT THE VAULT; the measured total also carries a constant
  // client-side overhead (two Lmessage flight legs, injector-to-core
  // scheduling). Fit that constant at the LOWEST rate point, where queueing
  // is negligible, then hold it fixed across the sweep — the model must
  // explain all GROWTH in mean and p99 on its own.
  double overhead_mean = 0.0, overhead_p99 = 0.0;
  bool calibrated = false;
  for (const SweepRow& r : rows) {
    if (r.sched != Sched::kPoisson) continue;
    // Gated points feed perf_gate.py's p99 band. Only the well-below-knee
    // queue points qualify: run-to-run p99 is stable there, while near
    // saturation host-scheduling noise swings the tail by 2x.
    const bool gated = is_queue && r.frac <= 0.65 && r.stats.rho > 0.0 &&
                       r.stats.rho <= 0.7;
    json.record_with_latency(
        std::string(structure) + ".rate" + frac_tag(r.frac),
        {{"structure", structure},
         {"schedule", sched_name(r.sched)},
         {"rate_frac", frac_tag(r.frac)},
         {"injectors", std::to_string(base.injectors)}},
        r.stats.completed_ops_per_sec,
        latency_json(r.sched, r.frac, r.stats, gated));
    if (!conformance || r.stats.rho <= 0.0 || r.stats.service_ns <= 0.0) {
      continue;
    }
    const model::LatencyPrediction md1 =
        model::mdl_sojourn(r.stats.lambda_per_ns, r.stats.service_ns);
    if (!md1.stable) continue;
    if (!calibrated) {
      overhead_mean = r.stats.lat.mean_ns - md1.mean_ns;
      overhead_p99 = r.stats.lat.p99_ns - md1.p99_ns;
      calibrated = true;
    }
    model::LatencyConformanceRow row;
    row.name = "openloop." + std::string(structure) + ".rate" +
               frac_tag(r.frac);
    row.rho = r.stats.rho;
    row.predicted_mean_ns = overhead_mean + md1.mean_ns;
    row.measured_mean_ns = r.stats.lat.mean_ns;
    row.predicted_p99_ns = overhead_p99 + md1.p99_ns;
    row.measured_p99_ns = r.stats.lat.p99_ns;
    json.conformance_latency(row);
  }
  // Deterministic row is recorded too (it is not conformance material: the
  // arrival process is D, not M).
  for (const SweepRow& r : rows) {
    if (r.sched != Sched::kDeterministic) continue;
    json.record_with_latency(
        std::string(structure) + ".det" + frac_tag(r.frac),
        {{"structure", structure},
         {"schedule", sched_name(r.sched)},
         {"rate_frac", frac_tag(r.frac)},
         {"injectors", std::to_string(base.injectors)}},
        r.stats.completed_ops_per_sec,
        latency_json(r.sched, r.frac, r.stats, /*gated=*/false));
  }
}

/// Deterministic M/D/1 validation in VIRTUAL time. The runtime sweep above
/// measures real threads on real silicon, so its divergence from the model
/// carries whatever the host scheduler adds (on a box with fewer cores than
/// injectors, a lot). This section removes the host entirely: the simulated
/// single-segment PIM queue (segment_threshold -> inf, combining off) is one
/// core serving every op at exactly Lpim — an M/D/1 server with Poisson
/// arrivals from the sim's client actors — and virtual time makes the
/// measurement exact and bit-identical across runs. These are the conformance.latency
/// rows perf_gate.py holds to the tight divergence bounds
/// ("openloop.sim.*"); the runtime rows ("openloop.queue.*") are reported
/// for the record but not divergence-gated.
void run_sim_conformance(JsonReporter& json) {
  banner("Simulator M/D/1 conformance (virtual time, single-segment queue)");
  const LatencyParams lp = LatencyParams::paper_defaults();
  const double s = lp.pim();
  std::printf(
      "one PIM core serves all ops, deterministic service Lpim = %.0f ns;\n"
      "48 Poisson actors; sojourn = 2 Lmessage + M/D/1 wait + service.\n"
      "Intercept (flights + injector lag) calibrated at the lowest rho.\n\n",
      s);
  Table table({"target_rho", "rho", "ops", "mean_ns", "pred_mean", "div%",
               "p99_ns", "pred_p99", "div%"},
              11);
  table.print_header();
  double overhead_mean = 0.0, overhead_p99 = 0.0;
  bool calibrated = false;
  for (const double target_rho : {0.2, 0.4, 0.6, 0.8}) {
    sim::QueueConfig cfg;
    cfg.enqueuers = 24;
    cfg.dequeuers = 24;
    cfg.duration_ns = 10'000'000;
    cfg.initial_nodes = 20'000;  // dequeues never observe empty
    cfg.arrival = sim::ArrivalSchedule::kPoisson;
    cfg.arrival_period_ns =
        static_cast<double>(cfg.enqueuers + cfg.dequeuers) * s / target_rho;
    std::vector<double> sink;
    cfg.latency_sink_ns = &sink;
    sim::PimQueueOptions opts;
    opts.segment_threshold = std::uint64_t{1} << 40;
    opts.enqueue_combining = false;
    const sim::PimQueueResult res = sim::run_pim_queue(cfg, opts);
    const double lambda_per_ns = static_cast<double>(res.run.total_ops) /
                                 static_cast<double>(cfg.duration_ns);
    const double rho = lambda_per_ns * s;
    const Summary m = Summary::of(std::move(sink));
    const model::LatencyPrediction md1 = model::mdl_sojourn(lambda_per_ns, s);
    const model::LatencyPrediction mm1 = model::mm1_sojourn(lambda_per_ns, s);
    if (!md1.stable) continue;
    if (!calibrated) {
      overhead_mean = m.mean - md1.mean_ns;
      overhead_p99 = m.p99 - md1.p99_ns;
      calibrated = true;
    }
    char tag[16];
    std::snprintf(tag, sizeof(tag), "%.1f", target_rho);
    model::LatencyConformanceRow row;
    row.name = std::string("openloop.sim.queue.rho") + tag;
    row.rho = rho;
    row.predicted_mean_ns = overhead_mean + md1.mean_ns;
    row.measured_mean_ns = m.mean;
    row.predicted_p99_ns = overhead_p99 + md1.p99_ns;
    row.measured_p99_ns = m.p99;
    json.conformance_latency(row);

    char c_rho[16], c_ops[24], c_mean[24], c_pm[24], c_dm[16], c_p99[24],
        c_pp[24], c_dp[16];
    std::snprintf(c_rho, sizeof(c_rho), "%.2f", rho);
    std::snprintf(c_ops, sizeof(c_ops), "%llu",
                  static_cast<unsigned long long>(res.run.total_ops));
    std::snprintf(c_mean, sizeof(c_mean), "%.0f", m.mean);
    std::snprintf(c_pm, sizeof(c_pm), "%.0f", row.predicted_mean_ns);
    std::snprintf(c_dm, sizeof(c_dm), "%+.1f%%", row.mean_divergence_pct());
    std::snprintf(c_p99, sizeof(c_p99), "%.0f", m.p99);
    std::snprintf(c_pp, sizeof(c_pp), "%.0f", row.predicted_p99_ns);
    std::snprintf(c_dp, sizeof(c_dp), "%+.1f%%", row.p99_divergence_pct());
    table.print_row(
        {tag, c_rho, c_ops, c_mean, c_pm, c_dm, c_p99, c_pp, c_dp});

    std::string lat = "{";
    add_field(lat, "schedule", "poisson", /*quoted=*/true);
    add_num(lat, "rate_frac", target_rho);
    add_num(lat, "ops", static_cast<double>(m.count));
    add_num(lat, "rho", rho);
    add_num(lat, "service_ns", s);
    add_num(lat, "mean_ns", m.mean);
    add_num(lat, "p50_ns", m.p50);
    add_num(lat, "p90_ns", m.p90);
    add_num(lat, "p99_ns", m.p99);
    add_num(lat, "p999_ns", m.p999);
    add_num(lat, "max_ns", m.max);
    add_num(lat, "md1_mean_ns", md1.mean_ns);
    add_num(lat, "md1_p99_ns", md1.p99_ns);
    if (mm1.stable) add_num(lat, "mm1_mean_ns", mm1.mean_ns);
    add_field(lat, "gated", "false");
    add_field(lat, "phase_p99", "{}");
    lat += "}";
    json.record_with_latency("sim.queue.rho" + std::string(tag),
                             {{"structure", "queue"},
                              {"schedule", "poisson"},
                              {"target_rho", tag},
                              {"domain", "sim"}},
                             res.run.ops_per_sec(), lat);
  }
  std::printf(
      "\n(virtual time: these rows are deterministic, so the divergence\n"
      "bounds in perf_gate.py hold exactly across hosts and runs)\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json(argc, argv, "openloop_latency");

  std::uint64_t duration_ms = 400;
  std::uint64_t capacity_ms = 300;
  std::size_t injectors = 16;
  double pim_ns = 10'000.0;
  std::string structure = "both";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--duration-ms" && i + 1 < argc) {
      duration_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--capacity-ms" && i + 1 < argc) {
      capacity_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--injectors" && i + 1 < argc) {
      injectors = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--pim-ns" && i + 1 < argc) {
      pim_ns = std::strtod(argv[++i], nullptr);
    } else if (arg == "--structure" && i + 1 < argc) {
      structure = argv[++i];
    }
  }

  banner("Open-loop tail latency: intended-start recording + M/D/1 gate");
  std::printf(
      "Open system: %zu injectors on a dedicated schedule (Poisson /\n"
      "deterministic), latency charged from INTENDED start to completion\n"
      "(coordinated-omission-free). Queue legs run single-segment with\n"
      "combining off so the hot vault is an M/D/1 server.\n",
      injectors);

  LegConfig base;
  base.duration_ns = duration_ms * 1'000'000;
  base.injectors = injectors;
  base.pim_ns = pim_ns;
  const std::uint64_t capacity_ns = capacity_ms * 1'000'000;

  if (structure == "both" || structure == "queue") {
    run_structure(json, "queue", queue_leg, base, capacity_ns,
                  /*conformance=*/true);
  }
  if (structure == "both" || structure == "skiplist") {
    run_structure(json, "skiplist", skiplist_leg, base, capacity_ns,
                  /*conformance=*/false);
  }
  run_sim_conformance(json);

  std::printf(
      "\nExpected shape: below the knee the CO-free mean tracks the\n"
      "intercept-calibrated M/D/1 sojourn and p50 < p99 < p999 separate\n"
      "cleanly; past rho ~= 1 the open-loop backlog and late share must\n"
      "grow monotonically (the closed-loop table could never show this —\n"
      "it would just issue slower).\n");
  return 0;
}
