// Automatic rebalancing policy for the PIM skip-list (Section 4.2.1 left
// the trigger policy open: "we expect that rebalancing will not happen very
// frequently"). The policy thread consumes the skip-list LoadMap's windowed
// HotVaultReport (per-vault op windows, hot key ranges, SpaceSaving hot
// keys) once per period and closes the control loop:
//
//  - active (default): the shared per-window decision (core::MigrationPolicy
//    in core/migration_protocol.hpp, which the simulator's active policy
//    runs too) picks a split from the report's top-k hot ranges and hot
//    keys, with hysteresis so the loop cannot thrash, and this thread
//    starts it via PimSkipList::migrate(split, coldest). The system counts
//    as settled again only below `imbalance_exit` (the `rebalancer.settled`
//    gauge).
//  - observe-only: the same decision, but LOG would-trigger lines
//    (`rebalancer.would_trigger` counter + stderr) without migrating —
//    the staging mode for trusting the policy before flipping it on.
//
// Contention-adaptive combining rides the same report: ranges whose window
// share reaches `combine_enter_share` are flipped to CPU-side combining
// (PimSkipList::set_range_combining), and flipped back once their share
// falls below `combine_exit_share` — again an enter/exit band so a range
// hovering at the threshold does not flap.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/migration_protocol.hpp"
#include "core/pim_skiplist.hpp"
#include "obs/loadmap.hpp"

namespace pimds::core {

class AutoRebalancer {
 public:
  struct Options {
    /// Trigger when the hottest vault served more than `imbalance_ratio`
    /// times the mean request rate during the last window (the ENTER side
    /// of the hysteresis band).
    double imbalance_ratio = 2.0;
    /// The EXIT side: the system reports settled (and adaptive combining
    /// may disengage globally) only once imbalance falls below this.
    /// Inside [exit, enter) nothing changes state — no flapping around a
    /// single threshold.
    double imbalance_exit = 1.5;
    std::chrono::milliseconds period{50};
    /// After a vault sourced a migration, skip it as a source for this
    /// many windows: its next report windows still mix pre-migration
    /// traffic, and re-triggering on them is how a rebalancer thrashes.
    std::size_t cooldown_periods = 2;
    /// Safety valve for tests/demos.
    std::size_t max_migrations = ~std::size_t{0};
    /// Don't judge windows with fewer total ops than this (noise floor).
    std::uint64_t min_window_ops = 100;
    /// Decide from the LoadMap and log would-trigger lines, never migrate.
    bool observe_only = false;
    /// Print one stderr line per trigger / would-trigger decision.
    bool log_decisions = true;
    /// Flip per-range CPU-side combining from the report's hot ranges.
    bool adaptive_combining = false;
    /// A range turns combining ON at >= this share of the window's ops...
    double combine_enter_share = 0.30;
    /// ...and OFF again below this share (enter/exit band, see above).
    double combine_exit_share = 0.10;
  };

  AutoRebalancer(PimSkipList& list, Options options);
  explicit AutoRebalancer(PimSkipList& list);
  ~AutoRebalancer() { stop(); }

  AutoRebalancer(const AutoRebalancer&) = delete;
  AutoRebalancer& operator=(const AutoRebalancer&) = delete;

  /// Start the policy thread (idempotent).
  void start();
  /// Stop and join (idempotent; also called by the destructor).
  void stop();

  /// Migrations actually triggered (also `rebalancer.triggered` in the
  /// metrics registry; `runtime.skiplist.migrated_keys` carries the key
  /// count of every migration).
  std::size_t migrations_triggered() const noexcept {
    return policy_.migrations();
  }

  /// Observe-only decisions so far (also `rebalancer.would_trigger` in the
  /// metrics registry, so the telemetry stream carries them per window).
  std::size_t would_trigger_count() const noexcept {
    return would_trigger_.load(std::memory_order_relaxed);
  }

  /// Last window's imbalance was below the EXIT threshold (hysteresis has
  /// re-armed; also the `rebalancer.settled` gauge).
  bool settled() const noexcept {
    return settled_.load(std::memory_order_relaxed);
  }

  /// Copy of the LoadMap report behind the latest decision window.
  obs::LoadMap::HotVaultReport last_report() const;

 private:
  void tick();
  void tick_observe();
  void tick_active();
  void update_combining(const obs::LoadMap::HotVaultReport& rep);
  void log_decision(const char* what, const obs::LoadMap::HotVaultReport& rep,
                    const SplitProposal& p) const;

  PimSkipList& list_;
  Options options_;
  std::atomic<bool> stop_{false};
  MigrationPolicy policy_;
  std::atomic<std::size_t> would_trigger_{0};
  std::atomic<bool> settled_{true};
  std::vector<std::uint8_t> combining_on_;  // per-range, policy view
  mutable std::mutex report_mu_;
  obs::LoadMap::HotVaultReport last_report_;
  std::thread thread_;
  bool started_ = false;
};

}  // namespace pimds::core
