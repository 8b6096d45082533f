// The simulated skip-list experiments (Section 4.2) run the sequential
// store a PIM core runs in its vault (core/local_skiplist.hpp), on the
// heap, so beta = Theta(log N) emerges from the structure itself rather than
// being assumed. Latency is charged per node step, at the class of whoever
// executes (CPU or PIM core).
#pragma once

#include <cstdint>

#include "common/latency.hpp"
#include "core/local_skiplist.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace pimds::sim {

/// Node steps of the operations execute_set_op counted: the paper's beta,
/// measured (test hook).
struct BetaCounter {
  std::uint64_t steps = 0;
  std::uint64_t searches = 0;

  double observed_beta() const noexcept {
    return searches == 0
               ? 0.0
               : static_cast<double>(steps) / static_cast<double>(searches);
  }
};

/// Execute one set operation, drawing tower heights from the actor's
/// generator and charging `hop_class` once for all of its node steps: the
/// paper's beta counts "nodes an operation has to access to find the
/// location of its key".
inline bool execute_set_op(Context& ctx, core::HeapSkipList& list, SetOp op,
                           std::uint64_t key, MemClass hop_class,
                           BetaCounter* beta = nullptr) {
  std::uint64_t steps = 0;
  bool result = false;
  switch (op) {
    case SetOp::kAdd:
      result = list.add(key, ctx.rng(), &steps);
      break;
    case SetOp::kRemove:
      result = list.remove(key, &steps);
      break;
    case SetOp::kContains:
      result = list.contains(key, &steps);
      break;
  }
  ctx.charge(hop_class, steps);
  if (beta != nullptr) {
    beta->steps += steps;
    ++beta->searches;
  }
  return result;
}

}  // namespace pimds::sim
