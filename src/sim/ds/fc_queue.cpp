#include <deque>
#include <optional>
#include <vector>

#include "sim/ds/queues.hpp"
#include "sim/flat_combining.hpp"

namespace pimds::sim {

RunResult run_fc_queue(const QueueConfig& cfg, bool single_lock) {
  if (single_lock) {
    // Original flat combining: ONE lock serializes both operation types.
    Engine engine(cfg.params, cfg.seed);
    engine.set_perturbation(cfg.perturb);
    std::deque<std::uint64_t> items;
    for (std::size_t i = 0; i < cfg.initial_nodes; ++i) items.push_back(i);
    struct Req {
      bool is_enq;
      std::uint64_t value;
    };
    using Combiner = SimFlatCombiner<Req, std::optional<std::uint64_t>>;
    Combiner fc({/*charge_lock_llc=*/true, /*charge_slot_llc=*/true});
    const auto serve = [&](Context& cctx,
                           std::vector<Combiner::Pending>& batch) {
      for (auto& p : batch) {
        if (cfg.charge_node_access) cctx.charge(MemClass::kCpuDram);
        if (p.request.is_enq) {
          items.push_back(p.request.value);
          p.slot->set(cctx, std::nullopt);
        } else if (items.empty()) {
          p.slot->set(cctx, std::nullopt);
        } else {
          p.slot->set(cctx, items.front());
          items.pop_front();
        }
      }
    };
    std::uint64_t total_ops = 0;
    spawn_queue_clients(
        engine, cfg, total_ops,
        [&](Context& ctx, bool is_enq, std::uint64_t value, Time) {
          const std::optional<std::uint64_t> out =
              fc.submit(ctx, Req{is_enq, value}, serve);
          return is_enq ? check::kRetTrue : out.value_or(check::kRetEmpty);
        });
    engine.run();
    return {total_ops, cfg.duration_ns};
  }

  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);

  std::deque<std::uint64_t> items;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i) items.push_back(i);

  // Section 5.2 cost accounting: one LLC access to compete for the combiner
  // lock, two LLC accesses per served publication slot.
  using EnqCombiner = SimFlatCombiner<std::uint64_t, bool>;
  using DeqCombiner = SimFlatCombiner<int, std::optional<std::uint64_t>>;
  const EnqCombiner::CostConfig costs{/*charge_lock_llc=*/true,
                                      /*charge_slot_llc=*/true};
  EnqCombiner enq_fc(costs);
  DeqCombiner deq_fc({costs.charge_lock_llc, costs.charge_slot_llc});

  std::uint64_t total_ops = 0;
  spawn_queue_clients(
      engine, cfg, total_ops,
      [&](Context& ctx, bool is_enq, std::uint64_t value,
          Time) -> std::uint64_t {
        if (is_enq) {
          enq_fc.submit(
              ctx, value,
              [&](Context& cctx, std::vector<EnqCombiner::Pending>& batch) {
                for (auto& p : batch) {
                  if (cfg.charge_node_access) cctx.charge(MemClass::kCpuDram);
                  items.push_back(p.request);
                  p.slot->set(cctx, true);
                }
              });
          return check::kRetTrue;
        }
        const std::optional<std::uint64_t> out = deq_fc.submit(
            ctx, 0,
            [&](Context& cctx, std::vector<DeqCombiner::Pending>& batch) {
              for (auto& p : batch) {
                if (cfg.charge_node_access) cctx.charge(MemClass::kCpuDram);
                std::optional<std::uint64_t> out;
                if (!items.empty()) {
                  out = items.front();
                  items.pop_front();
                }
                p.slot->set(cctx, out);
              }
            });
        return out.value_or(check::kRetEmpty);
      });
  engine.run();
  return {total_ops, cfg.duration_ns};
}

}  // namespace pimds::sim
