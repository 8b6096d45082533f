// Simulated PIM skip-list with the full Section 4.2.1 node-migration
// protocol, driven by a Zipf-skewed workload and an online rebalancer.
// The PIM cores run the runtime's protocol code (core/migration_protocol.hpp)
// through a port onto the engine's Context, mailboxes and response slots,
// and the active policy runs the shared core::MigrationPolicy.
#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/zipf.hpp"
#include "core/migration_protocol.hpp"
#include "obs/obs.hpp"
#include "sim/ds/skiplist_common.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

namespace {

using core::MigKind;
using core::MigMsg;
using core::SetReply;

struct Msg {
  enum class Kind : std::uint8_t {
    kOp,
    kFwdOp,
    kMigStart,
    kMig,  ///< MigMsg: mig, key, hi, peer = source
    kStop,
  };
  Kind kind = Kind::kStop;
  SetOp op = SetOp::kContains;
  MigKind mig = MigKind::kBegin;
  std::uint64_t key = 0;
  std::uint64_t hi = 0;      ///< kMigStart / kMig: range end
  std::size_t peer = 0;      ///< kMigStart: target vault; kMig: source
  SimSlot<SetReply>* reply = nullptr;
};

/// The vault-local half: the list (global-minimum sentinel, as migrations
/// may hand any vault any range) and the target's ascending-insert fingers.
struct SimVault {
  core::HeapSkipList list{core::heap_arena, 0};
  core::HeapSkipList::InsertCursor incoming_cursor;
};

/// Deterministic in-sim load accounting for the kActiveLoadMap policy: a
/// global key-range grid plus a per-vault SpaceSaving hot-key sketch, kept
/// independent of the metrics registry so schedule exploration stays
/// deterministic with observability off.
struct SimLoad {
  static constexpr std::size_t kRanges = 64;
  static constexpr std::size_t kSketch = 8;

  using HotKey = obs::LoadMap::KeyLoad;

  std::uint64_t key_range = 1;
  std::vector<std::uint64_t> range_ops;            // cumulative, global
  std::vector<std::array<HotKey, kSketch>> sketch;  // per vault, cumulative

  SimLoad(std::uint64_t range, std::size_t vaults)
      : key_range(range), range_ops(kRanges, 0), sketch(vaults) {}

  std::size_t range_of(std::uint64_t key) const noexcept {
    if (key <= 1) return 0;
    const std::size_t idx =
        static_cast<std::size_t>((key - 1) * kRanges / key_range);
    return idx >= kRanges ? kRanges - 1 : idx;
  }
  std::uint64_t range_lo(std::size_t idx) const noexcept {
    return 1 + idx * key_range / kRanges;
  }
  std::uint64_t range_hi(std::size_t idx) const noexcept {
    return idx + 1 < kRanges ? (idx + 1) * key_range / kRanges : key_range;
  }

  void record(std::size_t vault, std::uint64_t key) {
    ++range_ops[range_of(key)];
    auto& entries = sketch[vault];
    std::size_t min_i = 0;
    for (std::size_t i = 0; i < kSketch; ++i) {
      if (entries[i].key == key || entries[i].count == 0) {
        entries[i].key = key;
        ++entries[i].count;
        return;
      }
      if (entries[i].count < entries[min_i].count) min_i = i;
    }
    // SpaceSaving eviction: the new key inherits the victim's count.
    entries[min_i].key = key;
    ++entries[min_i].count;
  }
};

/// The migration protocol's port on a simulated PIM core (see
/// core/migration_protocol.hpp). Protocol messages travel through the
/// mailboxes and pay Lmessage like any other message.
struct SimPort {
  std::vector<Mailbox<Msg>>* inboxes;
  SimVault* vault;
  SimLoad* load;
  std::int64_t* net_adds;  ///< successful adds minus successful removes
  Context* ctx;
  std::size_t v;
  double msg_ns;

  std::size_t vault_id() const noexcept { return v; }
  bool execute(const Msg& m) {
    load->record(v, m.key);
    const bool r =
        execute_set_op(*ctx, vault->list, m.op, m.key, MemClass::kPimLocal);
    if (r && m.op == SetOp::kAdd) ++*net_adds;
    if (r && m.op == SetOp::kRemove) --*net_adds;
    return r;
  }
  std::optional<std::uint64_t> first_at_least(std::uint64_t key) const {
    return vault->list.first_at_least(key);
  }
  void extract(std::uint64_t cursor) {
    std::uint64_t steps = 0;
    vault->list.extract_first_at_least(cursor, &steps);
    ctx->charge(MemClass::kPimLocal, steps);
  }
  void begin_incoming() { vault->incoming_cursor = {}; }
  void insert_migrated(std::uint64_t key) {
    std::uint64_t steps = 0;
    vault->list.insert_ascending(vault->incoming_cursor, key, ctx->rng(),
                                 &steps);
    ctx->charge(MemClass::kPimLocal, steps);
  }
  void send(std::size_t core, const MigMsg& mm) {
    (*inboxes)[core].send(*ctx, Msg{.kind = Msg::Kind::kMig, .mig = mm.kind,
                                    .key = mm.key, .hi = mm.hi,
                                    .peer = mm.from});
  }
  void forward(std::size_t core, const Msg& req) {
    Msg fwd = req;
    fwd.kind = Msg::Kind::kFwdOp;
    (*inboxes)[core].send(*ctx, fwd);
  }
  void reply(const Msg& req, SetReply r) { req.reply->set(*ctx, r, msg_ns); }
  void trace(const char* event, obs::TraceArg a, obs::TraceArg b) {
    ctx->trace_instant(event, a, b);
  }
};

}  // namespace

RebalanceResult run_pim_skiplist_rebalance(const RebalanceConfig& cfg) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);
  const std::size_t k = cfg.partitions;
  const double msg_ns = cfg.params.message();
  RebalanceResult result;

  core::MigrationProtocol<Msg> protocol(k, 1, cfg.key_range, cfg.migrate_chunk,
                                        cfg.fault, "sim.rebalance");
  const core::SentinelDirectory& dir = protocol.directory();
  SimLoad load(cfg.key_range, k);
  std::vector<Mailbox<Msg>> inboxes(k);
  std::vector<SimVault> vaults(k);
  {
    Xoshiro256 setup(cfg.seed ^ 0xfeedULL);
    std::size_t total = 0;
    while (total < cfg.initial_size) {
      const std::uint64_t key = setup.next_in(1, cfg.key_range);
      if (vaults[dir.route(key)].list.add(key, setup)) {
        record_setup_add(cfg.recorder, key);
        ++total;
      }
    }
  }

  std::int64_t net_adds = 0;  // successful adds minus successful removes
  const auto requests = [&](std::size_t v) {
    return protocol.count(core::kRequests, v);
  };
  // Per-vault request deltas since `last` (advanced): the window's total,
  // its first hottest and first coldest vault, and hottest / mean.
  const auto vault_window = [&](std::vector<std::uint64_t>& last) {
    obs::LoadMap::HotVaultReport w;
    std::uint64_t peak = 0;
    std::uint64_t cold_ops = ~std::uint64_t{0};
    for (std::size_t v = 0; v < k; ++v) {
      const std::uint64_t d = requests(v) - last[v];
      last[v] = requests(v);
      w.window_ops += d;
      if (d > peak) {
        peak = d;
        w.hottest = v;
      }
      if (d < cold_ops) {
        cold_ops = d;
        w.coldest = v;
      }
    }
    if (w.window_ops > 0) {
      w.imbalance_ratio = static_cast<double>(peak) * static_cast<double>(k) /
                          static_cast<double>(w.window_ops);
    }
    return w;
  };

  const std::size_t total_cpus = cfg.num_cpus;
  for (std::size_t v = 0; v < k; ++v) {
    engine.spawn("pim-core" + std::to_string(v), [&, v](Context& ctx) {
      SimPort port{&inboxes, &vaults[v], &load, &net_adds, &ctx, v, msg_ns};
      std::size_t stopped = 0;
      // Two extra stops: the rebalancer actor and the window monitor.
      while (stopped < total_cpus + 2) {
        Msg m;
        if (protocol.migrating_out(v)) {
          // Keep the migration moving even while requests arrive.
          auto polled = inboxes[v].try_recv(ctx);
          if (!polled.has_value()) {
            protocol.step_migration(port);
            continue;
          }
          m = *polled;
        } else {
          m = inboxes[v].recv(ctx);
        }
        switch (m.kind) {
          case Msg::Kind::kOp:
            protocol.serve(port, m);
            break;
          case Msg::Kind::kFwdOp:
            protocol.serve_forwarded(port, m);
            break;
          case Msg::Kind::kMigStart:
            protocol.start(port, m, m.key, m.hi, m.peer);
            break;
          case Msg::Kind::kMig:
            protocol.deliver(port, MigMsg{m.mig, m.key, m.hi, m.peer});
            break;
          case Msg::Kind::kStop:
            ++stopped;
            break;
        }
        protocol.step_migration(port);
      }
    });
  }

  // CPU clients with a Zipf-skewed key stream (rank 0 -> key 1: vault 0 is
  // the hot spot).
  const Time third = cfg.duration_ns / 3;
  std::uint64_t before_ops = 0;
  std::uint64_t after_ops = 0;
  const auto stop_vaults = [&](Context& ctx) {
    for (std::size_t v = 0; v < k; ++v) {
      inboxes[v].send(ctx, Msg{.kind = Msg::Kind::kStop});
    }
  };
  for (std::size_t i = 0; i < cfg.num_cpus; ++i) {
    engine.spawn("cpu" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(i) : nullptr;
      ZipfGenerator zipf(cfg.key_range, cfg.zipf_theta);
      SimSlot<SetReply> reply;
      while (ctx.now() < cfg.duration_ns) {
        const std::uint64_t key = zipf.next(ctx.rng()) + 1;
        const SetOp op = pick_op(ctx.rng(), cfg.mix);
        if (log != nullptr) log->begin(check_op(op), key, ctx.now());
        SetReply r;
        for (;;) {
          inboxes[dir.route(key)].send(
              ctx, Msg{.kind = Msg::Kind::kOp, .op = op, .key = key,
                       .reply = &reply});
          r = reply.await(ctx);
          if (r.accepted) break;
        }
        if (log != nullptr) {
          log->end(r.result ? check::kRetTrue : check::kRetFalse, ctx.now());
        }
        if (ctx.now() < third) {
          ++before_ops;
        } else if (ctx.now() >= 2 * third) {
          ++after_ops;
        }
      }
      stop_vaults(ctx);
    });
  }

  // Window monitor: samples the per-vault load series every
  // policy_period_ns for every policy (including no-rebalance controls),
  // the basis of the windowed-imbalance assertions.
  engine.spawn("monitor", [&](Context& ctx) {
    std::vector<std::uint64_t> last(k, 0);
    while (ctx.now() < cfg.duration_ns) {
      ctx.advance(static_cast<double>(cfg.policy_period_ns));
      ctx.sync();
      const obs::LoadMap::HotVaultReport w = vault_window(last);
      result.windows.push_back(
          {ctx.now(), w.window_ops, w.hottest, w.imbalance_ratio});
    }
    stop_vaults(ctx);
  });

  // Asks the source to start a claimed migration; drops the claim if the
  // source refuses.
  SimSlot<SetReply> mig_reply;
  const auto start_migration = [&](Context& ctx, std::size_t source,
                                   std::uint64_t split, std::uint64_t hi,
                                   std::size_t target) {
    inboxes[source].send(ctx, Msg{.kind = Msg::Kind::kMigStart, .key = split,
                                  .hi = hi, .peer = target,
                                  .reply = &mig_reply});
    if (mig_reply.await(ctx).accepted) {
      ++result.migrations;
      if (ctx.now() >= 2 * third) ++result.migrations_late;
      return true;
    }
    protocol.release_migration();
    return false;
  };
  // Waits out an in-flight migration (kMigEnd releases the guard).
  const auto drain_migration = [&](Context& ctx) {
    while (protocol.migration_busy()) {
      ctx.advance(50'000);
      ctx.sync();
    }
  };

  // The active policy: windowed per-vault deltas, the full range grid and
  // the hot vault's sketch -> the shared decision (core::MigrationPolicy,
  // the code AutoRebalancer::tick_active runs) -> kMigStart to the hottest
  // vault.
  const auto active_policy = [&](Context& ctx) {
    core::RebalanceParams params;
    params.imbalance_enter = cfg.imbalance_enter;
    params.cooldown_periods = cfg.cooldown_periods;
    params.min_window_ops = cfg.min_window_ops;
    params.max_migrations = cfg.max_migrations;
    params.key_max = cfg.key_range;
    params.fault = cfg.fault;
    core::MigrationPolicy policy(k, params);
    std::vector<std::uint64_t> last(k, 0);
    std::vector<std::uint64_t> last_range(SimLoad::kRanges, 0);
    while (ctx.now() < cfg.duration_ns) {
      ctx.advance(static_cast<double>(cfg.policy_period_ns));
      ctx.sync();
      obs::LoadMap::HotVaultReport rep = vault_window(last);
      // Every range that saw traffic, and the hot vault's sketch, each
      // hottest first (ties keep grid / slot order).
      for (std::size_t i = 0; i < SimLoad::kRanges; ++i) {
        const std::uint64_t d = load.range_ops[i] - last_range[i];
        last_range[i] = load.range_ops[i];
        if (d > 0) {
          rep.hot_ranges.push_back({load.range_lo(i), load.range_hi(i), d});
        }
      }
      std::stable_sort(
          rep.hot_ranges.begin(), rep.hot_ranges.end(),
          [](const auto& a, const auto& b) { return a.ops > b.ops; });
      for (const auto& e : load.sketch[rep.hottest]) {
        if (e.count > 0) rep.hot_keys.push_back(e);
      }
      std::stable_sort(rep.hot_keys.begin(), rep.hot_keys.end(),
                       [](const auto& a, const auto& b) {
                         return a.count > b.count;
                       });
      const std::optional<core::SplitProposal> p =
          policy.decide(rep, dir, protocol.migration_busy());
      if (!p.has_value()) continue;
      const bool claimed = protocol.try_claim_migration();
      assert(claimed);
      (void)claimed;
      if (start_migration(ctx, p->source, p->split, p->hi, p->target)) {
        policy.accepted(*p);
      }
    }
    // Drain an in-flight migration before stopping the vaults: the stops
    // would otherwise overtake the tail of the kMigNode stream in the
    // target's FIFO inbox, and the extracted-but-not-yet-inserted keys
    // would be lost with the run's teardown.
    drain_migration(ctx);
  };

  // The rebalancer: at t = duration/3, split the workload's quartiles off
  // the hot range, one migration at a time (the Section 4.2.1 guard).
  engine.spawn("rebalancer", [&](Context& ctx) {
    if (cfg.rebalance && k > 1 &&
        cfg.policy == RebalancePolicy::kActiveLoadMap) {
      active_policy(ctx);
    } else if (cfg.rebalance && k > 1) {
      ctx.advance(static_cast<double>(third));
      // Quantile estimate of the Zipf mass (operator-side knowledge).
      Xoshiro256 rng(cfg.seed ^ 0x9a17ULL);
      ZipfGenerator zipf(cfg.key_range, cfg.zipf_theta);
      std::vector<std::uint64_t> sample(20000);
      for (auto& s : sample) s = zipf.next(rng) + 1;
      std::sort(sample.begin(), sample.end());
      std::vector<std::uint64_t> splits;
      for (std::size_t q = 1; q < k; ++q) {
        std::uint64_t split = sample[q * sample.size() / k];
        const std::uint64_t prev = splits.empty() ? 1 : splits.back();
        if (split <= prev) split = prev + 1;
        splits.push_back(split);
      }
      // Descending split order: each range leaves the hot vault directly
      // instead of cascading through every intermediate target.
      // The guard is free at every attempt: each migration is drained
      // before the next split.
      for (std::size_t q = splits.size(); q-- > 0;) {
        const std::size_t target = q + 1;
        for (;;) {
          ctx.sync();
          const core::SentinelDirectory::Range range =
              dir.partition_of(splits[q]);
          if (range.vault == target) break;
          protocol.try_claim_migration();
          if (start_migration(ctx, range.vault, splits[q], range.hi,
                              target)) {
            break;
          }
          ctx.advance(50'000);
        }
        drain_migration(ctx);
      }
    }
    // Counts as one "stop" so the cores can wind down.
    stop_vaults(ctx);
  });

  engine.run();

  result.before = {before_ops, third};
  result.after = {after_ops, third};
  for (std::size_t v = 0; v < k; ++v) {
    result.final_requests_per_vault.push_back(requests(v));
  }
  result.migrated_keys = protocol.count(core::kMigratedKeys);
  result.rejections = protocol.count(core::kRejections);
  result.forwarded = protocol.count(core::kForwarded);
  result.deferred = protocol.count(core::kDeferred);
  std::int64_t final_size = 0;
  for (const SimVault& vault : vaults) {
    final_size += static_cast<std::int64_t>(vault.list.size());
  }
  result.size_consistent =
      final_size == static_cast<std::int64_t>(cfg.initial_size) + net_adds;
  return result;
}

}  // namespace pimds::sim
