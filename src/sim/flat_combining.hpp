// Generic flat-combining harness for the simulator (Hendler et al. [25]).
//
// Requesters publish a request, then compete for a combiner lock; whoever
// wins drains all published requests, executes them (the data structure
// supplies the batch-execution strategy), writes results back, and releases
// the lock. Losers wait on their result slot.
//
// Cost accounting is configurable because the paper charges different
// things in different analyses:
//  - Table 1 / Table 2 (lists, skip-lists) count only traversal costs, which
//    the `serve` callback charges itself;
//  - the Section 5.2 FC-queue analysis additionally charges one LLC access
//    for competing for the lock and two LLC accesses per served slot
//    (combiner reads the request and writes the result).
#pragma once

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

template <typename Request, typename Result>
class SimFlatCombiner {
 public:
  struct Pending {
    Request request;
    SimSlot<Result>* slot;
  };

  struct CostConfig {
    bool charge_lock_llc = false;      ///< 1 LLC access to compete for lock
    bool charge_slot_llc = false;      ///< 2 LLC accesses per served slot
  };

  explicit SimFlatCombiner(CostConfig costs = {}) : costs_(costs) {}

  /// Execute `request`, either by becoming the combiner or by waiting for
  /// one. `serve` receives the whole drained batch; it must charge the
  /// combiner's execution costs on `ctx` and fill `slot->set(...)` for every
  /// entry (including the combiner's own).
  Result submit(Context& ctx, Request request,
                const std::function<void(Context&, std::vector<Pending>&)>&
                    serve) {
    SimSlot<Result> slot;
    ctx.sync();
    pending_.push_back(Pending{std::move(request), &slot});
    if (costs_.charge_lock_llc) ctx.charge(MemClass::kLlc);
    // SimMutex::unlock yields before the lock reads free, so a requester
    // can publish and fail try_lock in that window, then wait on a slot no
    // combiner will serve. The releasing combiner closes the window: after
    // unlocking it re-checks the publication list and, if a request
    // arrived, competes for the lock again. A failed re-try means another
    // combiner holds the lock and will do the same re-check itself.
    while (lock_.try_lock(ctx)) {
      // Combiner role: drain until no request is pending. Real combiners
      // re-scan the publication list a few times before releasing the lock;
      // here that re-scan is two zero-cost scheduler yields, enough for a
      // requester woken by our last batch to consume its result (one slice)
      // and publish its next request (second slice). Without the grace
      // yields each batch would see only a fragment of the active threads.
      std::size_t grace = 0;
      for (;;) {
        if (pending_.empty()) {
          if (grace == 2) break;
          ++grace;
          ctx.sync();
          continue;
        }
        grace = 0;
        std::vector<Pending> batch(pending_.begin(), pending_.end());
        pending_.clear();
        if (costs_.charge_slot_llc) {
          // Two LLC accesses per slot other than the combiner's own.
          ctx.charge(MemClass::kLlc, 2 * (batch.size() - 1));
        }
        serve(ctx, batch);
        ctx.sync();
      }
      lock_.unlock(ctx);
      if (pending_.empty()) break;
    }
    return slot.await(ctx);
  }

  /// Number of requests currently published and unserved (test hook).
  std::size_t pending_count() const noexcept { return pending_.size(); }

 private:
  CostConfig costs_;
  SimMutex lock_;
  std::deque<Pending> pending_;
};

}  // namespace pimds::sim
