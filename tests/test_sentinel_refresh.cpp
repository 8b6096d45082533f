// SentinelDirectory routing/refresh semantics (Section 4.2.1): unit tests
// for route/partition_of/move_range, then the refresh-on-rejection protocol
// under live migration — a CPU holding a stale sentinel must converge to
// the new owner, including the race where requests forwarded by the old
// owner land around the directory update. Histories recorded during the
// races are checked for linearizability.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "check/linearizability.hpp"
#include "common/zipf.hpp"
#include "core/auto_rebalancer.hpp"
#include "core/pim_skiplist.hpp"
#include "core/sentinel_directory.hpp"
#include "obs/obs.hpp"

namespace pimds::core {
namespace {

SentinelDirectory three_way() {
  return SentinelDirectory({{0, 0}, {1000, 1}, {2000, 2}});
}

TEST(SentinelDirectory, RoutesByGreatestSentinelAtMostKey) {
  const auto dir = three_way();
  EXPECT_EQ(dir.route(0), 0u);
  EXPECT_EQ(dir.route(999), 0u);
  EXPECT_EQ(dir.route(1000), 1u);
  EXPECT_EQ(dir.route(1999), 1u);
  EXPECT_EQ(dir.route(std::uint64_t{1} << 40), 2u);

  const auto range = dir.partition_of(1500);
  EXPECT_EQ(range.lo, 1000u);
  EXPECT_EQ(range.hi, 2000u);
  EXPECT_EQ(range.vault, 1u);
  EXPECT_EQ(dir.partition_of(5000).hi, ~std::uint64_t{0})
      << "last partition extends to the end of the key space";
}

TEST(SentinelDirectory, MoveRangeRetargetsAWholePartitionInPlace) {
  auto dir = three_way();
  dir.move_range(1000, 3);
  EXPECT_EQ(dir.partition_count(), 3u) << "no new sentinel for a whole move";
  EXPECT_EQ(dir.route(1500), 3u);
  EXPECT_EQ(dir.route(999), 0u) << "neighbors unaffected";
  EXPECT_EQ(dir.route(2000), 2u);
}

TEST(SentinelDirectory, MoveRangeSplitsASuffixWithANewSentinel) {
  auto dir = three_way();
  dir.move_range(2500, 3);
  EXPECT_EQ(dir.partition_count(), 4u);
  EXPECT_EQ(dir.route(2400), 2u) << "prefix stays with the old owner";
  EXPECT_EQ(dir.route(2500), 3u);
  EXPECT_EQ(dir.route(1u << 20), 3u);
  const auto range = dir.partition_of(2600);
  EXPECT_EQ(range.lo, 2500u);
  EXPECT_EQ(range.vault, 3u);
}

// ---------------------------------------------------------------------------
// Live refresh-on-rejection: operations race a real migration. CPUs route
// with whatever the directory says; mid-migration that answer goes stale
// the moment the source hands the range over, and the rejection/forwarding
// protocol must hide it. The recorded history is the oracle.
// ---------------------------------------------------------------------------

struct MigrationRig {
  runtime::PimSystem::Config config;
  std::unique_ptr<runtime::PimSystem> system;
  std::unique_ptr<PimSkipList> list;

  explicit MigrationRig(std::size_t migrate_chunk) {
    config.num_vaults = 4;
    config.vault_bytes = 8u << 20;
    system = std::make_unique<runtime::PimSystem>(config);
    PimSkipList::Options options;
    options.key_max = 4000;
    options.migrate_chunk = migrate_chunk;
    list = std::make_unique<PimSkipList>(*system, options);
    system->start();
  }
  ~MigrationRig() { system->stop(); }
};

/// Worker threads hammer the migrating range while migrate() runs; every
/// operation (and every setup insert) is recorded and the merged history
/// must be linearizable even across the ownership hand-over.
void run_migration_race(std::size_t migrate_chunk, int num_threads,
                        std::uint64_t ops_per_thread) {
  MigrationRig rig(migrate_chunk);
  // Partition 0 covers [1, 1000); the race targets its suffix [500, 1000).
  constexpr std::uint64_t kLo = 500;
  constexpr std::uint64_t kRange = 64;  // dense keys -> real contention
  check::HistoryRecorder recorder(static_cast<std::size_t>(num_threads) + 1);
  for (std::uint64_t key = kLo; key < kLo + kRange; key += 2) {
    ASSERT_TRUE(rig.list->add(key));
    recorder.log(static_cast<std::size_t>(num_threads))
        .complete(check::kAdd, key, check::kRetTrue, 0, 0);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      check::ThreadLog& log = recorder.log(static_cast<std::size_t>(t));
      std::mt19937_64 rng(0xace0 + static_cast<std::uint64_t>(t));
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const std::uint64_t key = kLo + rng() % kRange;
        const std::uint64_t dice = rng() % 10;
        if (dice < 3) {
          log.begin(check::kAdd, key);
          log.end(rig.list->add(key) ? check::kRetTrue : check::kRetFalse);
        } else if (dice < 6) {
          log.begin(check::kRemove, key);
          log.end(rig.list->remove(key) ? check::kRetTrue : check::kRetFalse);
        } else {
          log.begin(check::kContains, key);
          log.end(rig.list->contains(key) ? check::kRetTrue
                                          : check::kRetFalse);
        }
      }
      stop.store(true);
    });
  }

  // Fire the migration while the threads are mid-flight, then keep moving
  // the range back and forth so hand-overs happen in BOTH directions and
  // forwarded requests race the directory update repeatedly.
  std::size_t migrations = 0;
  std::size_t target = 2;
  while (!stop.load()) {
    if (rig.list->migrate(kLo, target)) {
      ++migrations;
      while (rig.list->migration_active()) std::this_thread::yield();
      target = target == 2 ? 0 : 2;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& th : threads) th.join();
  ASSERT_GT(migrations, 0u) << "the race never migrated anything";

  const auto r = check::check_set_history(recorder.collect());
  EXPECT_TRUE(r.ok()) << r.error;

  // Convergence: the directory's answer for the moved range matches the
  // last completed migration, and a quiesced client sees coherent data —
  // add(k) must succeed exactly when contains(k) said the key was absent.
  std::size_t owner = ~std::size_t{0};
  for (const auto& e : rig.list->partitions()) {
    if (e.sentinel <= kLo) owner = e.vault;
  }
  EXPECT_TRUE(owner == 0 || owner == 2) << "range must be on an endpoint of "
                                           "the ping-pong, got vault "
                                        << owner;
  for (std::uint64_t key = kLo; key < kLo + kRange; ++key) {
    const bool present = rig.list->contains(key);
    EXPECT_EQ(rig.list->add(key), !present)
        << "post-migration state incoherent at key " << key;
  }
}

TEST(SentinelRefresh, OperationsStayLinearizableAcrossSlowMigration) {
  // Chunk of 2 stretches each migration across many protocol steps, so the
  // forwarded-request path (source forwards already-migrated keys) and the
  // rejection path (stale route after the directory update) both fire.
  run_migration_race(/*migrate_chunk=*/2, /*num_threads=*/4,
                     /*ops_per_thread=*/800);
}

TEST(SentinelRefresh, OperationsStayLinearizableAcrossFastMigrations) {
  // Large chunks complete in one or two steps: the window is dominated by
  // the directory-update race rather than forwarding.
  run_migration_race(/*migrate_chunk=*/64, /*num_threads=*/4,
                     /*ops_per_thread=*/800);
}

TEST(SentinelRefresh, LinearizableUnderActiveRebalancerWithCombining) {
  // The closed loop end to end on real threads: no scripted migrate()
  // calls — an ACTIVE AutoRebalancer watches the LoadMap and drives the
  // Section 4.2.1 protocol itself, with contention-adaptive combining
  // flipping the hot ranges to CPU-side batched sends mid-run. Every
  // client operation is recorded and the merged history must linearize
  // across policy-chosen hand-overs and combined batches alike.
#ifdef PIMDS_OBS_DISABLED
  GTEST_SKIP() << "metrics are compiled out (-DPIMDS_OBS=OFF): the LoadMap "
                  "records nothing, so the rebalancer never triggers";
#endif
  MigrationRig rig(/*migrate_chunk=*/8);
  constexpr std::uint64_t kLo = 500;
  constexpr std::uint64_t kRange = 64;  // dense keys -> real contention
  constexpr int kThreads = 4;
  check::HistoryRecorder recorder(kThreads + 1);
  for (std::uint64_t key = kLo; key < kLo + kRange; key += 2) {
    ASSERT_TRUE(rig.list->add(key));
    recorder.log(kThreads).complete(check::kAdd, key, check::kRetTrue, 0, 0);
  }

  AutoRebalancer::Options ropts;
  ropts.period = std::chrono::milliseconds(5);
  ropts.imbalance_ratio = 1.5;
  ropts.imbalance_exit = 1.2;
  ropts.cooldown_periods = 1;
  ropts.min_window_ops = 50;
  ropts.adaptive_combining = true;
  ropts.combine_enter_share = 0.30;
  ropts.combine_exit_share = 0.05;
  ropts.log_decisions = false;  // keep ctest output quiet
  AutoRebalancer rebalancer(*rig.list, ropts);
  rebalancer.start();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      check::ThreadLog& log = recorder.log(static_cast<std::size_t>(t));
      Xoshiro256 rng(0xbee5 + static_cast<std::uint64_t>(t));
      // Zipf within the racing window: a dominant top key steers the
      // policy's successor-split rule, and the window's LoadMap ranges
      // cross the combining enter share.
      ZipfGenerator zipf(kRange, 0.99);
      for (std::uint64_t i = 0; i < 800; ++i) {
        const std::uint64_t key = kLo + zipf.next(rng);
        const std::uint64_t dice = rng.next() % 10;
        if (dice < 3) {
          log.begin(check::kAdd, key);
          log.end(rig.list->add(key) ? check::kRetTrue : check::kRetFalse);
        } else if (dice < 6) {
          log.begin(check::kRemove, key);
          log.end(rig.list->remove(key) ? check::kRetTrue : check::kRetFalse);
        } else {
          log.begin(check::kContains, key);
          log.end(rig.list->contains(key) ? check::kRetTrue
                                          : check::kRetFalse);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  rebalancer.stop();
  // Let an in-flight migration hand over before judging the final state.
  while (rig.list->migration_active()) std::this_thread::yield();

  EXPECT_GT(rebalancer.migrations_triggered(), 0u)
      << "the concentrated window must trip the active policy";

  const auto r = check::check_set_history(recorder.collect());
  EXPECT_TRUE(r.ok()) << r.error;

  // Quiesced coherence across every policy-driven hand-over: add(k) must
  // succeed exactly when contains(k) said the key was absent.
  for (std::uint64_t key = kLo; key < kLo + kRange; ++key) {
    const bool present = rig.list->contains(key);
    EXPECT_EQ(rig.list->add(key), !present)
        << "post-rebalance state incoherent at key " << key;
  }
}

TEST(SentinelRefresh, DirectoryAndStatsConvergeAfterMigration) {
  MigrationRig rig(/*migrate_chunk=*/8);
  for (std::uint64_t key = 1; key < 1000; key += 3) {
    ASSERT_TRUE(rig.list->add(key));
  }
  ASSERT_TRUE(rig.list->migrate(500, 2));
  while (rig.list->migration_active()) std::this_thread::yield();

  // The moved range must now route to vault 2...
  const auto parts = rig.list->partitions();
  bool found = false;
  for (const auto& e : parts) {
    if (e.sentinel == 500) {
      found = true;
      EXPECT_EQ(e.vault, 2u);
    }
  }
  EXPECT_TRUE(found) << "migration must publish a sentinel at the split key";

  // ...and traffic sent there must actually reach vault 2.
  const auto before = rig.list->vault_stats();
  for (std::uint64_t key = 500; key < 600; ++key) rig.list->contains(key);
  const auto after = rig.list->vault_stats();
  EXPECT_GT(after[2].requests, before[2].requests)
      << "refreshed routes must deliver requests to the new owner";
  EXPECT_GT(after[2].keys, 0u) << "migrated keys must live on the target";
}

TEST(SentinelRefresh, EachOpIsCountedOnceWhereItExecutes) {
  // The rebalancer's load signal must count an operation once, at the vault
  // that executed it: not again when the source forwards it, not on arrival
  // AND on replay when the target defers it, and not at all where it was
  // rejected. One-key migration steps ping-pong [500, end of partition)
  // under three clients, so all three paths fire while the tally runs.
  MigrationRig rig(/*migrate_chunk=*/1);
  constexpr std::uint64_t kLo = 500;
  constexpr std::uint64_t kRange = 64;
  std::uint64_t setup_adds = 0;
  for (std::uint64_t key = kLo; key < kLo + kRange; key += 2) {
    ASSERT_TRUE(rig.list->add(key));
    ++setup_adds;
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Xoshiro256 rng(0xc0 + static_cast<std::uint64_t>(t));
      while (!done.load(std::memory_order_relaxed)) {
        const std::uint64_t key = kLo + rng.next() % kRange;
        switch (rng.next() % 3) {
          case 0: rig.list->add(key); break;
          case 1: rig.list->remove(key); break;
          default: rig.list->contains(key); break;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto raced = [&] {
    return rig.list->count(kForwarded) + rig.list->count(kDeferred) +
           rig.list->count(kRejections);
  };
  // At least 40 hand-overs, and more until some op raced one (bounded: a
  // scheduler may starve the clients for a while).
  std::size_t target = 2;
  for (int migrations = 0;
       (migrations < 40 || raced() == 0) && migrations < 20'000;) {
    if (!rig.list->migrate(kLo, target)) {
      std::this_thread::yield();
      continue;
    }
    ++migrations;
    while (rig.list->migration_active()) std::this_thread::yield();
    target = target == 2 ? 0 : 2;
  }
  done.store(true);
  for (auto& th : clients) th.join();

  EXPECT_GT(raced(), 0u)
      << "no op raced a hand-over; the tally below proves nothing";
  const std::uint64_t expected = completed.load() + setup_adds;
  std::uint64_t requests = 0;
  for (const auto& s : rig.list->vault_stats()) requests += s.requests;
  EXPECT_EQ(requests, expected)
      << "sum of per-vault requests must equal the executed operations";
  if (obs::metrics_enabled()) {
    std::uint64_t loadmap_ops = 0;
    for (std::size_t v = 0; v < rig.config.num_vaults; ++v) {
      loadmap_ops += rig.list->loadmap().vault_ops(v);
    }
    EXPECT_EQ(loadmap_ops, expected)
        << "the LoadMap feeds the rebalancer the same count";
  }
}

TEST(SentinelRefresh, TracedMigrationEmitsOneStartAndOneComplete) {
  // The runtime's migration is observable through the same trace events
  // as the simulator's: one migration, one mig_start (source), one
  // mig_begin (target), one mig_complete (source).
#ifdef PIMDS_OBS_DISABLED
  GTEST_SKIP() << "tracing is compiled out (-DPIMDS_OBS=OFF)";
#endif
  obs::clear_trace();
  obs::set_trace_enabled(true);
  {
    MigrationRig rig(/*migrate_chunk=*/4);
    for (std::uint64_t key = 1; key < 1000; key += 7) {
      ASSERT_TRUE(rig.list->add(key));
    }
    ASSERT_TRUE(rig.list->migrate(500, 3));
    while (rig.list->migration_active()) std::this_thread::yield();
  }  // the vault threads stop: the trace is quiesced
  const std::string path =
      ::testing::TempDir() + "test_sentinel_refresh_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  obs::set_trace_enabled(false);
  obs::clear_trace();
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const auto occurrences = [&](const std::string& event) {
    const std::string needle = "\"name\":\"" + event + "\"";
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("mig_start"), 1u);
  EXPECT_EQ(occurrences("mig_begin"), 1u);
  EXPECT_EQ(occurrences("mig_complete"), 1u);
}

}  // namespace
}  // namespace pimds::core
