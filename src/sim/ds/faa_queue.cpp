#include <deque>

#include "sim/ds/queues.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

RunResult run_faa_queue(const QueueConfig& cfg) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);

  // The queue body; F&A tickets linearize access so a plain deque mutated in
  // scheduled slices is faithful. Enqueues and dequeues hit different shared
  // variables (the paper's F&A queue allows parallel enq/deq).
  std::deque<std::uint64_t> items;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i) items.push_back(i);
  SimCacheLine enq_line;
  SimCacheLine deq_line;

  std::uint64_t total_ops = 0;
  spawn_queue_clients(
      engine, cfg, total_ops,
      [&](Context& ctx, bool is_enq, std::uint64_t value,
          Time) -> std::uint64_t {
        // Claim a slot with F&A (serialized).
        (is_enq ? enq_line : deq_line).atomic_rmw(ctx);
        if (cfg.charge_node_access) ctx.charge(MemClass::kCpuDram);
        if (is_enq) {
          items.push_back(value);
          return check::kRetTrue;
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
