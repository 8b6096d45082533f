#include "core/auto_rebalancer.hpp"

#include <cstdio>
#include <optional>

#include "obs/metrics.hpp"

namespace pimds::core {

namespace {

obs::Counter& counter(const char* name) {
  return obs::Registry::instance().counter(name);
}

RebalanceParams policy_params(const AutoRebalancer::Options& options,
                              const PimSkipList& list) {
  RebalanceParams p;
  p.imbalance_enter = options.imbalance_ratio;
  p.cooldown_periods = options.cooldown_periods;
  p.min_window_ops = options.min_window_ops;
  p.max_migrations = options.max_migrations;
  p.key_max = list.options().key_max;
  return p;
}

}  // namespace

AutoRebalancer::AutoRebalancer(PimSkipList& list, Options options)
    : list_(list),
      options_(options),
      policy_(list.loadmap().options().num_vaults,
              policy_params(options, list)),
      combining_on_(list.loadmap().options().num_ranges, 0) {}

AutoRebalancer::AutoRebalancer(PimSkipList& list)
    : AutoRebalancer(list, Options{}) {}

void AutoRebalancer::start() {
  if (started_) return;
  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(options_.period);
      tick();
    }
  });
}

void AutoRebalancer::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

obs::LoadMap::HotVaultReport AutoRebalancer::last_report() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return last_report_;
}

void AutoRebalancer::update_combining(
    const obs::LoadMap::HotVaultReport& rep) {
  if (rep.window_ops == 0) return;
  const double total = static_cast<double>(rep.window_ops);
  // Window share per range on the LoadMap grid; a range absent from the
  // top-k hot_ranges is treated as share 0 (it is at most as hot as the
  // coldest reported range — good enough for the OFF decision, and the
  // enter/exit band absorbs the approximation).
  std::vector<double> share(combining_on_.size(), 0.0);
  obs::LoadMap& lm = list_.loadmap();
  for (const auto& r : rep.hot_ranges) {
    share[lm.range_of(r.lo)] = static_cast<double>(r.ops) / total;
  }
  for (std::size_t i = 0; i < combining_on_.size(); ++i) {
    const bool on = combining_on_[i] != 0;
    // ON at >= enter share; once on, it stays on down to the exit share.
    const double bar =
        on ? options_.combine_exit_share : options_.combine_enter_share;
    if ((share[i] >= bar) == on) continue;
    combining_on_[i] = on ? 0 : 1;
    list_.set_range_combining(i, !on);
    counter("rebalancer.combine_flips").add(1);
    if (options_.log_decisions) {
      std::fprintf(stderr,
                   "[auto_rebalancer] combining %s for range %zu "
                   "(share %.2f %s %.2f)\n",
                   on ? "OFF" : "ON", i, share[i], on ? "<" : ">=", bar);
    }
  }
}

void AutoRebalancer::log_decision(const char* what,
                                  const obs::LoadMap::HotVaultReport& rep,
                                  const SplitProposal& p) const {
  if (!options_.log_decisions) return;
  std::fprintf(stderr,
               "[auto_rebalancer] %s: %s; migrating [%llu, %llu) vault %zu "
               "-> vault %zu\n",
               what, rep.summary().c_str(),
               static_cast<unsigned long long>(p.split),
               static_cast<unsigned long long>(p.hi), p.source, p.target);
}

void AutoRebalancer::tick_observe() {
  obs::LoadMap::HotVaultReport rep = list_.loadmap().report();
  if (rep.window_ops < options_.min_window_ops) return;
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    last_report_ = rep;
  }
  // Exactly the migration active mode would start with none in flight.
  const std::optional<SplitProposal> p =
      policy_.decide(rep, list_.directory(), /*migration_busy=*/false);
  if (!p.has_value()) return;
  would_trigger_.fetch_add(1, std::memory_order_relaxed);
  counter("rebalancer.would_trigger").add(1);
  log_decision("would-trigger", rep, *p);
}

void AutoRebalancer::tick_active() {
  obs::LoadMap::HotVaultReport rep = list_.loadmap().report();
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    last_report_ = rep;
  }
  if (options_.adaptive_combining) update_combining(rep);
  if (rep.window_ops >= options_.min_window_ops) {  // noise floor
    const bool settled = rep.imbalance_ratio < options_.imbalance_exit;
    settled_.store(settled, std::memory_order_relaxed);
    obs::Registry::instance()
        .gauge("rebalancer.settled", obs::GaugeMerge::kLast)
        .set(settled ? 1 : 0);
  }
  const std::optional<SplitProposal> p =
      policy_.decide(rep, list_.directory(), list_.migration_active());
  if (!p.has_value() || !list_.migrate(p->split, p->target)) return;
  policy_.accepted(*p);
  counter("rebalancer.triggered").add(1);
  log_decision("trigger", rep, *p);
}

void AutoRebalancer::tick() {
  if (options_.observe_only) {
    tick_observe();
  } else {
    tick_active();
  }
}

}  // namespace pimds::core
