// The Section 4.2.1 non-blocking node migration and the rebalance decision
// that drives it, written once for both executions of the partitioned PIM
// skip-list: the real-thread runtime (core/pim_skiplist.cpp,
// core/auto_rebalancer.cpp) and the simulator
// (sim/ds/pim_skiplist_rebalance.cpp).
//
// MigrationProtocol<Request> owns every vault's migration state, its own
// view of the ranges it serves and the requests it parks, plus the
// CPU-visible SentinelDirectory and the one-migration-at-a-time guard. Its
// handlers run on the vault's PIM core and reach the outside world only
// through a Port (member templates, no virtual dispatch):
//
//   std::size_t vault_id() const;
//   bool execute(const Request&);     run the op on the local list, charge
//                                     it, record its load; the op's result
//   std::optional<std::uint64_t> first_at_least(std::uint64_t);  no charge
//   void extract(std::uint64_t cursor);      unlink the first key >= cursor
//   void begin_incoming();                   reset the ascending-insert fingers
//   void insert_migrated(std::uint64_t key); ascending insert
//   void send(std::size_t core, const MigMsg&);
//   void forward(std::size_t core, const Request&);
//   void reply(const Request&, SetReply);
//   void trace(const char* event, obs::TraceArg, obs::TraceArg);
//
// The protocol reads only a Request's `key`. The local list lives behind the
// port, so each binding keeps its own. An op is counted (kRequests, and the
// port's load record) once, where it executes: a forwarded op at the target,
// a deferred op on replay, a rejected op nowhere.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cacheline.hpp"
#include "core/sentinel_directory.hpp"
#include "obs/loadmap.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pimds::core {

/// Deliberately broken variants for mutation testing, each of which MUST be
/// flagged (docs/TESTING.md Section 6). The runtime always runs kNone.
enum class RebalanceFault : std::uint8_t {
  kNone,
  kStaleServe,  ///< the source serves migrated keys from its stale copy
  /// The directory moves at migration start and the target serves direct
  /// requests from its incomplete list instead of deferring them.
  kNoDefer,
  kThrash,  ///< policy: no enter threshold and no cooldown
  kSplitOffByOne,  ///< policy: split AT the dominant key, not its successor
  /// The gate trusts the directory, published at migration start, over the
  /// vault's own view (the historical runtime bug the oracle caught).
  kDirectoryBeforeGrant,
};

/// A vault's answer to one set operation or kMigStart.
struct SetReply {
  bool accepted = false;  ///< false => not this vault's range, re-route
  bool result = false;
};

/// Core-to-core migration messages, source -> target on one FIFO channel.
enum class MigKind : std::uint8_t { kBegin, kNode, kEnd };

struct MigMsg {
  MigKind kind = MigKind::kBegin;
  std::uint64_t key = 0;  ///< kBegin / kEnd: the range's lo; kNode: the key
  std::uint64_t hi = 0;   ///< kBegin: the range's end (exclusive)
  std::size_t from = 0;   ///< the source vault
};

/// Protocol events each vault counts.
enum MigrationCount : unsigned {
  kRequests,      ///< ops executed here (the rebalancer's load signal)
  kForwarded,     ///< already-migrated ops the source handed on
  kDeferred,      ///< ops parked at the target until kMigEnd
  kRejections,    ///< ops bounced back to the CPU to re-route
  kMigratedKeys,  ///< kMigNode messages sent
  kNumMigrationCounts,
};

template <class Request>
class MigrationProtocol {
 public:
  /// Vault v starts with the v-th of `num_vaults` equal shares of
  /// [key_min, key_max]. Registry counters:
  /// `<metrics_prefix>.{forwarded,deferred,rejections,migrated_keys}`.
  MigrationProtocol(std::size_t num_vaults, std::uint64_t key_min,
                    std::uint64_t key_max, std::size_t migrate_chunk,
                    RebalanceFault fault, const std::string& metrics_prefix)
      : directory_(equal_partitions(num_vaults, key_min, key_max)),
        vaults_(num_vaults),
        migrate_chunk_(migrate_chunk),
        fault_(fault) {
    auto& registry = obs::Registry::instance();
    metrics_[kForwarded] = &registry.counter(metrics_prefix + ".forwarded");
    metrics_[kDeferred] = &registry.counter(metrics_prefix + ".deferred");
    metrics_[kRejections] = &registry.counter(metrics_prefix + ".rejections");
    metrics_[kMigratedKeys] =
        &registry.counter(metrics_prefix + ".migrated_keys");
    const auto initial = directory_.snapshot();
    for (std::size_t v = 0; v < num_vaults; ++v) {
      vaults_[v]->owned.emplace(initial[v].sentinel,
                                v + 1 < num_vaults ? initial[v + 1].sentinel
                                                   : ~std::uint64_t{0});
    }
  }

  MigrationProtocol(const MigrationProtocol&) = delete;
  MigrationProtocol& operator=(const MigrationProtocol&) = delete;

  /// The CPUs' routing table; only migration sources write it.
  const SentinelDirectory& directory() const noexcept { return directory_; }

  /// The one-at-a-time guard: claimed by whoever starts a migration,
  /// released on a refused kMigStart or by the target's kMigEnd.
  bool try_claim_migration() noexcept {
    bool expected = false;
    return busy_->compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel);
  }
  void release_migration() noexcept {
    busy_->store(false, std::memory_order_release);
  }
  bool migration_busy() const noexcept {
    return busy_->load(std::memory_order_acquire);
  }

  /// Whether `vault` is a migration source (asked by its own core).
  bool migrating_out(std::size_t vault) const noexcept {
    const Migration& mig = vaults_[vault]->mig;
    return mig.active && mig.outgoing;
  }

  /// A client op: execute, forward (already migrated), defer (still
  /// arriving) or reject (not in this vault's own view).
  template <class Port>
  void serve(Port& port, const Request& req) {
    const std::size_t v = port.vault_id();
    VaultState& vs = *vaults_[v];
    const std::uint64_t key = req.key;
    if (fault_ == RebalanceFault::kDirectoryBeforeGrant &&
        directory_.route(key) == v) {
      execute(port, vs, req);
      return;
    }
    const Migration& mig = vs.mig;
    if (mig.active && key >= mig.lo && key < mig.hi) {
      if (!mig.outgoing) {
        if (fault_ == RebalanceFault::kNoDefer) {
          execute(port, vs, req);
          return;
        }
        // Deferred until kMigEnd, so it cannot overtake in-flight kMigNode
        // messages on the source's channel.
        vs.deferred.push_back(req);
        bump(vs, kDeferred);
      } else if (key >= mig.cursor || fault_ == RebalanceFault::kStaleServe) {
        execute(port, vs, req);  // not migrated yet: still ours
      } else {
        // The forward shares the kMigNode channel, so its node lands first.
        port.forward(mig.peer, req);
        bump(vs, kForwarded);
        port.trace("mig_forward", {"key", key}, {});
      }
      return;
    }
    if (!owns_locally(vs, key)) {
      // Judged by the local view, not the directory: the directory can
      // already name this vault while the granting kMigBegin/kMigNode/
      // kMigEnd stream is queued behind this request (found by the
      // linearizability oracle under TSan). The retry lands behind the
      // grant.
      port.reply(req, SetReply{false, false});
      bump(vs, kRejections);
      return;
    }
    execute(port, vs, req);
  }

  /// An op the source forwarded: its kMigNode arrived first on the same
  /// channel, so it executes unconditionally.
  template <class Port>
  void serve_forwarded(Port& port, const Request& req) {
    execute(port, *vaults_[port.vault_id()], req);
  }

  /// kMigStart: move [lo, hi) to `target`. Refused while this vault has a
  /// migration in flight or does not own `lo` in its own view.
  template <class Port>
  void start(Port& port, const Request& req, std::uint64_t lo,
             std::uint64_t hi, std::size_t target) {
    const std::size_t v = port.vault_id();
    VaultState& vs = *vaults_[v];
    if (vs.mig.active || !owns_locally(vs, lo)) {
      port.reply(req, SetReply{false, false});
      return;
    }
    vs.mig = Migration{true, /*outgoing=*/true, lo, hi, target, lo};
    port.trace("mig_start", {"lo", lo}, {"hi", hi});
    if (fault_ == RebalanceFault::kNoDefer ||
        fault_ == RebalanceFault::kDirectoryBeforeGrant) {
      directory_.move_range(lo, target);  // injected: publish too early
    }
    port.send(target, MigMsg{MigKind::kBegin, lo, hi, v});
    port.reply(req, SetReply{true, true});
  }

  /// kMigBegin / kMigNode / kMigEnd from the source.
  template <class Port>
  void deliver(Port& port, const MigMsg& m) {
    VaultState& vs = *vaults_[port.vault_id()];
    switch (m.kind) {
      case MigKind::kBegin:
        assert(!vs.mig.active);
        vs.mig = Migration{true, /*outgoing=*/false, m.key, m.hi, m.from,
                           m.key};
        port.begin_incoming();
        port.trace("mig_begin", {"lo", m.key}, {"hi", m.hi});
        break;
      case MigKind::kNode:
        port.insert_migrated(m.key);
        break;
      case MigKind::kEnd:
        assert(vs.mig.active && !vs.mig.outgoing && m.key == vs.mig.lo);
        vs.owned.emplace(vs.mig.lo, vs.mig.hi);  // the grant takes effect
        vs.mig.active = false;
        for (const Request& req : vs.deferred) execute(port, vs, req);
        vs.deferred.clear();
        release_migration();
        break;
    }
  }

  /// Move up to migrate_chunk keys of an outgoing migration, handing over
  /// once the range is drained. False when not migrating out.
  template <class Port>
  bool step_migration(Port& port) {
    const std::size_t v = port.vault_id();
    VaultState& vs = *vaults_[v];
    Migration& mig = vs.mig;
    if (!mig.active || !mig.outgoing) return false;
    for (std::size_t moved = 0; moved < migrate_chunk_; ++moved) {
      const std::optional<std::uint64_t> key = port.first_at_least(mig.cursor);
      if (!key.has_value() || *key >= mig.hi) {
        // Hand-over: drop [lo, hi) from the own view, redirect the CPUs
        // (the paper notifies them first), then tell the target.
        auto it = std::prev(vs.owned.upper_bound(mig.lo));
        assert(it->first <= mig.lo && mig.hi <= it->second);
        const std::uint64_t old_hi = it->second;
        if (it->first == mig.lo) {
          vs.owned.erase(it);
        } else {
          it->second = mig.lo;
        }
        if (mig.hi < old_hi) vs.owned.emplace(mig.hi, old_hi);
        directory_.move_range(mig.lo, mig.peer);
        mig.active = false;
        port.trace("mig_complete", {"source", v}, {"target", mig.peer});
        port.send(mig.peer, MigMsg{MigKind::kEnd, mig.lo, 0, v});
        return true;
      }
      port.extract(mig.cursor);
      bump(vs, kMigratedKeys);
      port.send(mig.peer, MigMsg{MigKind::kNode, *key, 0, v});
      mig.cursor = *key + 1;
    }
    return true;
  }

  /// Racy snapshot of one count over all vaults, or for one vault.
  std::uint64_t count(MigrationCount c) const noexcept {
    std::uint64_t total = 0;
    for (std::size_t v = 0; v < vaults_.size(); ++v) total += count(c, v);
    return total;
  }
  std::uint64_t count(MigrationCount c, std::size_t vault) const noexcept {
    return vaults_[vault]->counts[c].load(std::memory_order_relaxed);
  }

 private:
  struct Migration {
    bool active = false;
    bool outgoing = false;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::size_t peer = 0;
    std::uint64_t cursor = 0;  ///< next key to migrate (ascending)
  };

  /// Touched only by the vault's own core, except the relaxed counts.
  struct VaultState {
    Migration mig;
    /// lo -> hi (exclusive), advanced only by events this core processed:
    /// its own hand-over removes a range, kMigEnd adds one.
    std::map<std::uint64_t, std::uint64_t> owned;
    std::vector<Request> deferred;
    std::atomic<std::uint64_t> counts[kNumMigrationCounts] = {};
  };

  static std::vector<SentinelDirectory::Entry> equal_partitions(
      std::size_t n, std::uint64_t key_min, std::uint64_t key_max) {
    std::vector<SentinelDirectory::Entry> entries;
    for (std::size_t v = 0; v < n; ++v) {
      entries.push_back({key_min + v * (key_max - key_min + 1) / n, v});
    }
    return entries;
  }

  /// Count one event for the vault, and in the registry when it has one.
  void bump(VaultState& vs, MigrationCount c) noexcept {
    // Single writer: a relaxed load and store, no read-modify-write.
    vs.counts[c].store(vs.counts[c].load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    if (metrics_[c] != nullptr) metrics_[c]->add(1);
  }

  static bool owns_locally(const VaultState& vs, std::uint64_t key) {
    auto it = vs.owned.upper_bound(key);
    return it != vs.owned.begin() && key < std::prev(it)->second;
  }

  /// The one place an op runs, so the one place it is counted.
  template <class Port>
  void execute(Port& port, VaultState& vs, const Request& req) {
    bump(vs, kRequests);
    const bool result = port.execute(req);
    port.reply(req, SetReply{true, result});
  }

  SentinelDirectory directory_;
  std::vector<CachePadded<VaultState>> vaults_;
  CachePadded<std::atomic<bool>> busy_{false};
  std::size_t migrate_chunk_;
  RebalanceFault fault_;
  obs::Counter* metrics_[kNumMigrationCounts] = {};  ///< none for kRequests
};

/// The rebalance decision's parameters; each binding maps its own options.
struct RebalanceParams {
  double imbalance_enter = 2.0;  ///< trigger at hottest >= this x mean
  std::size_t cooldown_periods = 2;  ///< windows a source sits out after
  std::uint64_t min_window_ops = 100;  ///< smaller windows are noise
  std::size_t max_migrations = ~std::size_t{0};
  std::uint64_t key_max = ~std::uint64_t{0} - 1;  ///< largest usable key
  RebalanceFault fault = RebalanceFault::kNone;
};

/// Split key that sheds load from vault `hot`, from a window's hot ranges
/// (inclusive bounds) and hot keys, each hottest first; 0 if none. Prefers
///  1. the top key's SUCCESSOR when it holds at least half the listed key
///     mass and `hot` owns it (isolates the key, sheds the rest),
///  2. else the first range midpoint in a partition `hot` owns,
///  3. else the midpoint of `hot`'s widest partition;
/// always strictly above the partition's sentinel (a split AT it moves the
/// partition instead of dividing it), except under kSplitOffByOne.
inline std::uint64_t suggest_split(
    const obs::LoadMap::HotVaultReport& rep, std::size_t hot,
    const SentinelDirectory& directory, std::uint64_t key_max,
    RebalanceFault fault = RebalanceFault::kNone) {
  const std::vector<SentinelDirectory::Entry> parts = directory.snapshot();
  // Index of the partition holding `key` (parts.size() below them all).
  const auto partition = [&](std::uint64_t key) {
    auto it = std::upper_bound(
        parts.begin(), parts.end(), key,
        [](std::uint64_t k, const SentinelDirectory::Entry& e) {
          return k < e.sentinel;
        });
    const auto i = static_cast<std::size_t>(it - parts.begin());
    return i == 0 ? parts.size() : i - 1;
  };
  const auto owned_by_hot = [&](std::size_t i) {
    return i < parts.size() && parts[i].vault == hot;
  };
  const auto end_of = [&](std::size_t i) {
    return i + 1 < parts.size() ? parts[i + 1].sentinel : key_max + 1;
  };
  if (!rep.hot_keys.empty()) {
    std::uint64_t mass = 0;
    for (const auto& k : rep.hot_keys) mass += k.count;
    const auto& top = rep.hot_keys[0];
    const std::size_t i = partition(top.key);
    const bool off_by_one = fault == RebalanceFault::kSplitOffByOne;
    const std::uint64_t split = off_by_one ? top.key : top.key + 1;
    if (mass > 0 && top.count * 2 >= mass && owned_by_hot(i) &&
        split < end_of(i) && split <= key_max &&
        (off_by_one || split > parts[i].sentinel)) {
      return split;
    }
  }
  for (const auto& r : rep.hot_ranges) {
    const std::uint64_t mid = r.lo + (r.hi - r.lo) / 2;
    const std::size_t i = partition(mid);
    if (owned_by_hot(i) && mid > parts[i].sentinel) return mid;
  }
  std::uint64_t best_lo = 0;
  std::uint64_t best_hi = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (owned_by_hot(i) && end_of(i) - parts[i].sentinel > best_hi - best_lo) {
      best_lo = parts[i].sentinel;
      best_hi = end_of(i);
    }
  }
  return best_hi - best_lo >= 2 ? best_lo + (best_hi - best_lo) / 2 : 0;
}

/// Move [split, hi) from `source` to `target`.
struct SplitProposal {
  std::uint64_t split = 0;
  std::uint64_t hi = 0;  ///< the partition's end (directory convention)
  std::size_t source = 0;
  std::size_t target = 0;
};

/// The active policy's per-window decision with its hysteresis state. Gates
/// in order: noise floor, hottest != coldest, enter threshold, the hottest
/// vault's cooldown, none in flight, max_migrations; then suggest_split.
class MigrationPolicy {
 public:
  MigrationPolicy(std::size_t num_vaults, const RebalanceParams& params)
      : params_(params), cooldown_(num_vaults, 0) {}

  /// Judge one window (once per window: it ages the cooldowns).
  std::optional<SplitProposal> decide(const obs::LoadMap::HotVaultReport& rep,
                                      const SentinelDirectory& directory,
                                      bool migration_busy) {
    for (auto& c : cooldown_) {
      if (c > 0) --c;
    }
    const bool thrash = params_.fault == RebalanceFault::kThrash;
    if (rep.window_ops < params_.min_window_ops ||
        rep.hottest == rep.coldest ||
        (!thrash && (rep.imbalance_ratio < params_.imbalance_enter ||
                     cooldown_[rep.hottest] > 0)) ||
        migration_busy || migrations() >= params_.max_migrations) {
      return std::nullopt;
    }
    const std::uint64_t split = suggest_split(rep, rep.hottest, directory,
                                              params_.key_max, params_.fault);
    if (split == 0) return std::nullopt;
    return SplitProposal{split, directory.partition_of(split).hi, rep.hottest,
                         rep.coldest};
  }

  /// The proposal's kMigStart was accepted.
  void accepted(const SplitProposal& p) noexcept {
    migrations_.store(migrations() + 1, std::memory_order_relaxed);
    if (params_.fault != RebalanceFault::kThrash) {
      cooldown_[p.source] = params_.cooldown_periods;
    }
  }

  /// Accepted migrations so far (racy reads from other threads are fine).
  std::size_t migrations() const noexcept {
    return migrations_.load(std::memory_order_relaxed);
  }

 private:
  RebalanceParams params_;
  std::vector<std::size_t> cooldown_;  ///< per-vault windows remaining
  std::atomic<std::size_t> migrations_{0};
};

}  // namespace pimds::core
