// Simulated FIFO queue experiments (Section 5, Algorithm 1, Section 5.2).
//
// Three queues:
//   - F&A-based queue [41]: every enqueue/dequeue performs one F&A on a
//     shared cache line; k concurrent F&As serialize at Latomic each, so
//     per-side throughput is bounded by 1/Latomic.
//   - Flat-combining queue [25] with two combiner locks (one for enqueues,
//     one for dequeues, as in Section 5.2's setup): bounded by 1/(2 Lllc).
//   - PIM-managed queue (Algorithm 1): per-vault segments, distinct enqueue
//     and dequeue segments served by different PIM cores, segment hand-off
//     via newEnqSeg/newDeqSeg messages, CPU retry on rejection, and
//     response pipelining; per-side throughput approaches 1/Lpim. Its PIM
//     cores run the runtime's protocol code (core/queue_protocol.hpp).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/latency.hpp"
#include "core/queue_protocol.hpp"
#include "sim/workload.hpp"

namespace pimds::sim {

/// Arrival process for each client actor.
///
/// kClosedLoop (the default, and the paper's Section 5 setup) issues the
/// next operation the moment the previous one completes. Right for
/// throughput; WRONG for latency at saturation — the client can only issue
/// as fast as the system completes, so every server stall silently deletes
/// the samples that would have landed inside it (coordinated omission; the
/// telltale is p50 == p99). The open-loop schedules fix each operation's
/// intended start from an injection schedule independent of completions,
/// and latency is measured from that intended start.
enum class ArrivalSchedule : std::uint8_t {
  kClosedLoop,
  /// Fixed inter-arrival `arrival_period_ns` per actor, with a uniform
  /// per-actor phase stagger so k injectors do not arrive in lockstep.
  kDeterministic,
  /// Exponential inter-arrivals with mean `arrival_period_ns` — the
  /// aggregate over actors is a Poisson process, matching the M/D/1
  /// conformance model's arrival assumption.
  kPoisson,
};

struct QueueConfig {
  LatencyParams params = LatencyParams::paper_defaults();
  std::uint64_t seed = 1;
  Time duration_ns = 10'000'000;
  std::size_t enqueuers = 4;
  std::size_t dequeuers = 4;
  /// Nodes pre-filled so dequeuers on a "long queue" never observe empty.
  /// Deliberately NOT a multiple of the default segment threshold, so the
  /// pre-filled enqueue segment is half full and the enqueue side does not
  /// hand off at t=0 in phase with the dequeue side.
  std::size_t initial_nodes = 63 * 1024 + 512;
  /// Realism flag: also charge the queue-node memory access that the
  /// paper's F&A / FC analysis deliberately ignores ("we have ignored the
  /// latency of accessing and modifying queue nodes").
  bool charge_node_access = false;
  /// When non-null, every completed operation appends its virtual latency
  /// here (in ns). Closed loop: request issue to response consumption.
  /// Open loop: INTENDED start to response consumption (coordinated-
  /// omission-free — queueing behind a late injector counts against the
  /// operation). The paper argues pipelining buys throughput; the latency
  /// distribution shows what each design pays per operation to get it.
  std::vector<double>* latency_sink_ns = nullptr;
  /// Client arrival process (see ArrivalSchedule). Open-loop schedules
  /// require arrival_period_ns > 0.
  ArrivalSchedule arrival = ArrivalSchedule::kClosedLoop;
  /// Mean per-actor inter-arrival time for the open-loop schedules. The
  /// aggregate offered rate is (enqueuers + dequeuers) / arrival_period_ns.
  double arrival_period_ns = 0.0;
  /// Schedule perturbation for adversarial exploration (check/explore.hpp).
  Engine::Perturbation perturb{};
  /// Optional linearizability-history recording (check/). Needs
  /// `enqueuers + dequeuers` logs: enqueuer i records into log(i), dequeuer
  /// j into log(enqueuers + j). The pre-filled nodes carry values
  /// 0 .. initial_nodes-1 and enter the checker as the initial queue state;
  /// recorded enqueues use values tagged with the producer id so every
  /// value in the history is unique, as check_queue_history requires.
  check::HistoryRecorder* recorder = nullptr;
};

/// Spawns a queue experiment's client actors — `cfg.enqueuers` named enq<i>,
/// then `cfg.dequeuers` named deq<i> — and adds their operation counts to
/// `total_ops`. Each runs closed or open loop per `cfg` until the window
/// closes, recording its history and latencies when `cfg` asks for them.
/// `op(ctx, is_enq, value, issued)` performs one operation and returns its
/// history response: kRetTrue for an enqueue, else the dequeued value or
/// kRetEmpty. `done(ctx)` runs as each actor finishes.
///
/// Under an open-loop schedule an actor AHEAD of schedule jumps its virtual
/// clock to the operation's intended start (the sim analogue of a real
/// injector's wait_until); one BEHIND (its previous operation overran the
/// slot) starts late, and the latency measured from the intended start
/// absorbs the lag — exactly the accounting coordinated omission loses.
template <class Op, class Done = void (*)(Context&)>
void spawn_queue_clients(Engine& engine, const QueueConfig& cfg,
                         std::uint64_t& total_ops, Op op,
                         Done done = [](Context&) {}) {
  const auto spawn = [&](std::string name, bool is_enq, std::size_t slot) {
    engine.spawn(std::move(name), [&cfg, &total_ops, op, done, is_enq,
                                   slot](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(slot) : nullptr;
      const bool open_loop = cfg.arrival != ArrivalSchedule::kClosedLoop;
      // Uniform phase stagger so deterministic injectors spread over one
      // period instead of arriving k-at-a-time.
      double next_intended =
          open_loop ? ctx.rng().next_double() * cfg.arrival_period_ns : 0.0;
      std::uint64_t ops = 0;
      while (ctx.now() < cfg.duration_ns) {
        Time intended = ctx.now();
        if (open_loop) {
          intended = static_cast<Time>(next_intended);
          ctx.set_time(intended);  // no-op when already late
          next_intended +=
              cfg.arrival == ArrivalSchedule::kPoisson
                  ? -cfg.arrival_period_ns *
                        std::log(1.0 - ctx.rng().next_double())
                  : cfg.arrival_period_ns;
          if (intended >= cfg.duration_ns) break;
        }
        const Time issued = ctx.now();
        // Recorded runs tag values with the producer slot so every enqueued
        // value is unique (the checker matches dequeues to enqueues by
        // value).
        const std::uint64_t value =
            !is_enq ? 0
            : log != nullptr
                ? ((static_cast<std::uint64_t>(slot) + 1) << 48) | ops
                : ctx.rng().next();
        if (log != nullptr) {
          log->begin(is_enq ? check::kEnq : check::kDeq, value, issued);
        }
        const std::uint64_t ret = op(ctx, is_enq, value, issued);
        if (log != nullptr) log->end(ret, ctx.now());
        if (cfg.latency_sink_ns != nullptr) {
          // Open loop: charge from the INTENDED start, so time spent queued
          // behind a late injector counts against the operation.
          cfg.latency_sink_ns->push_back(
              static_cast<double>(ctx.now() - intended));
        }
        ++ops;
      }
      done(ctx);
      total_ops += ops;
    });
  };
  for (std::size_t i = 0; i < cfg.enqueuers; ++i) {
    spawn("enq" + std::to_string(i), true, i);
  }
  for (std::size_t i = 0; i < cfg.dequeuers; ++i) {
    spawn("deq" + std::to_string(i), false, cfg.enqueuers + i);
  }
}

/// The PIM queue's protocol options and mutation faults are the shared
/// core's (core/queue_protocol.hpp), plus the simulator-only knobs.
using core::QueueFault;
using core::SegmentPlacement;

struct PimQueueOptions : core::QueueProtocolOptions {
  /// Fat-node enqueue combining is off by default in the simulator, the
  /// paper's Section 5.2 configuration.
  PimQueueOptions() { enqueue_combining = false; }

  std::size_t num_vaults = 4;
  /// Response pipelining (Figure 6). When off, the PIM core stalls for
  /// Lmessage after each response that carried work (an accepted enqueue
  /// batch or a popped value) before serving the next request.
  bool pipelining = true;
};

RunResult run_faa_queue(const QueueConfig& cfg);
/// Flat-combining queue. The paper's Section 5.2 variant uses TWO combiner
/// locks (enqueues and dequeues in parallel); `single_lock` switches to the
/// original one-lock flat-combining queue for the ablation.
RunResult run_fc_queue(const QueueConfig& cfg, bool single_lock = false);
/// Extra baseline (not in the paper's tables): CAS-retry Michael-Scott
/// queue, which degrades under contention — the reason the paper compares
/// against the F&A queue as the strongest CPU FIFO.
RunResult run_ms_queue(const QueueConfig& cfg);

struct PimQueueResult {
  RunResult run;
  std::uint64_t rejections = 0;        ///< requests that had to be resent
  std::uint64_t segments_created = 0;  ///< newEnqSeg activations
  std::uint64_t empty_dequeues = 0;    ///< dequeues that found the queue empty
  /// Ops served by a core holding BOTH special segments (the serialized
  /// regime; see SegmentPlacement::kRoundRobin).
  std::uint64_t co_resident_ops = 0;
  std::uint64_t enq_ops = 0;  ///< accepted enqueues
  std::uint64_t deq_ops = 0;  ///< accepted dequeues (incl. empty results)
  /// Enqueue service batches (one fat-node combining drain, or one plain
  /// enqueue). enq_ops / enq_batches is the Section 5.1 combining ratio.
  std::uint64_t enq_batches = 0;
};

PimQueueResult run_pim_queue(const QueueConfig& cfg,
                             const PimQueueOptions& opts);

}  // namespace pimds::sim
