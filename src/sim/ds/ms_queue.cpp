// Simulated Michael-Scott queue: the classic CAS-based FIFO, included to
// show why the paper benchmarks against the F&A queue instead — CAS retry
// loops burn serialized Latomic slots on failures, so throughput DEGRADES
// as threads are added, while the F&A queue holds its 1/Latomic bound
// (David, Guerraoui, Trigonakis [16]; paper Section 5.2 footnote).
#include <deque>

#include "sim/ds/queues.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

RunResult run_ms_queue(const QueueConfig& cfg) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);

  std::deque<std::uint64_t> items;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i) items.push_back(i);
  SimCasLine tail_line;
  SimCasLine head_line;

  std::uint64_t total_ops = 0;
  spawn_queue_clients(
      engine, cfg, total_ops,
      [&](Context& ctx, bool is_enq, std::uint64_t value,
          Time) -> std::uint64_t {
        if (is_enq) {
          if (cfg.charge_node_access) ctx.charge(MemClass::kCpuDram);
          for (;;) {
            // Read the tail, then try to CAS the new node in; a failed CAS
            // means another enqueuer won the line since our read.
            const SimCasLine::ReadToken seen = tail_line.read(ctx);
            ctx.charge(MemClass::kLlc);  // the tail pointer is cache-hot
            if (tail_line.compare_and_swap(ctx, seen)) break;
          }
          items.push_back(value);
          return check::kRetTrue;
        }
        for (;;) {
          const SimCasLine::ReadToken seen = head_line.read(ctx);
          ctx.charge(MemClass::kLlc);
          if (cfg.charge_node_access) ctx.charge(MemClass::kCpuDram);
          if (head_line.compare_and_swap(ctx, seen)) break;
        }
        if (items.empty()) return check::kRetEmpty;
        const std::uint64_t out = items.front();
        items.pop_front();
        return out;
      });
  engine.run();
  return {total_ops, cfg.duration_ns};
}

}  // namespace pimds::sim
