// Semantic tests for the simulator's data-structure bodies: they must be
// correct sets regardless of what latency they charge. The skip-list store
// itself is tested in test_skiplist_store.cpp; here only its sim binding.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "sim/ds/list_common.hpp"
#include "sim/ds/skiplist_common.hpp"
#include "sim/ds/skiplists.hpp"

namespace pimds::sim {
namespace {

/// Runs `body(ctx)` inside a one-actor engine (structure code needs a
/// Context for latency charging).
template <typename Body>
void with_context(Body&& body) {
  Engine engine;
  engine.spawn("t", [&](Context& ctx) { body(ctx); });
  engine.run();
}

TEST(SimList, MatchesStdSetOnRandomOps) {
  with_context([](Context& ctx) {
    SimList list;
    std::set<std::uint64_t> reference;
    Xoshiro256 rng(7);
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t key = rng.next_in(1, 200);
      const SetOp op = static_cast<SetOp>(rng.next_below(3));
      const bool got = list.execute(ctx, op, key, MemClass::kCpuDram);
      bool want = false;
      switch (op) {
        case SetOp::kAdd:
          want = reference.insert(key).second;
          break;
        case SetOp::kRemove:
          want = reference.erase(key) > 0;
          break;
        case SetOp::kContains:
          want = reference.count(key) > 0;
          break;
      }
      ASSERT_EQ(got, want) << "op " << static_cast<int>(op) << " key " << key;
      ASSERT_EQ(list.size(), reference.size());
    }
    // Final structural sweep.
    const auto keys = list.keys();
    ASSERT_EQ(keys.size(), reference.size());
    auto it = reference.begin();
    for (const std::uint64_t k : keys) EXPECT_EQ(k, *it++);
  });
}

TEST(SimList, PopulateCreatesDistinctSortedKeys) {
  with_context([](Context&) {
    SimList list;
    Xoshiro256 rng(3);
    list.populate(rng, 300, 1000);
    EXPECT_EQ(list.size(), 300u);
    const auto keys = list.keys();
    for (std::size_t i = 1; i < keys.size(); ++i) {
      EXPECT_LT(keys[i - 1], keys[i]) << "keys must be strictly increasing";
    }
  });
}

TEST(SimList, CombinedBatchMatchesSequentialExecution) {
  with_context([](Context& ctx) {
    Xoshiro256 rng(11);
    for (int trial = 0; trial < 50; ++trial) {
      SimList combined;
      SimList sequential;
      Xoshiro256 setup(trial);
      combined.populate(setup, 50, 300);
      Xoshiro256 setup2(trial);
      sequential.populate(setup2, 50, 300);

      std::vector<std::pair<SetOp, std::uint64_t>> batch;
      for (int i = 0; i < 20; ++i) {
        batch.push_back({static_cast<SetOp>(rng.next_below(3)),
                         rng.next_in(1, 300)});
      }
      std::vector<bool> combined_results;
      combined.execute_combined(ctx, batch, combined_results,
                                MemClass::kPimLocal);

      // The combined batch must behave as if served one by one in ascending
      // key order (stable for equal keys).
      std::vector<std::size_t> order(batch.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return batch[a].second < batch[b].second;
                       });
      std::vector<bool> expected(batch.size());
      for (std::size_t idx : order) {
        expected[idx] = sequential.execute(ctx, batch[idx].first,
                                           batch[idx].second,
                                           MemClass::kPimLocal);
      }
      ASSERT_EQ(combined_results, expected) << "trial " << trial;
      ASSERT_EQ(combined.keys(), sequential.keys()) << "trial " << trial;
    }
  });
}

TEST(SimSkipListBinding, ChargesEachOperationsStepsOnceAndCountsBeta) {
  with_context([](Context& ctx) {
    core::HeapSkipList list(core::heap_arena, 0);
    Xoshiro256 rng(17);
    while (list.size() < (1u << 14)) list.add(rng.next_in(1, 1 << 16), rng);
    BetaCounter beta;
    const double step_ns = ctx.engine().params().latency(MemClass::kCpuDram);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = rng.next_in(1, 1 << 16);
      std::uint64_t steps = 0;
      const bool want = list.contains(key, &steps);
      const Time before = ctx.now();
      ASSERT_EQ(execute_set_op(ctx, list, SetOp::kContains, key,
                               MemClass::kCpuDram, &beta),
                want);
      const double charged = static_cast<double>(ctx.now() - before);
      ASSERT_NEAR(charged, step_ns * static_cast<double>(steps), 1.0);
    }
    EXPECT_EQ(beta.searches, 2000u);
    // beta = Theta(log N): ~2 log2(16384) = 28, generously bracketed.
    EXPECT_GT(beta.observed_beta(), 14.0);
    EXPECT_LT(beta.observed_beta(), 56.0);
  });
}

TEST(SkipListPartitions, SentinelPartitioningRoutesEveryKeyOnce) {
  // partition_of and partition_sentinel must tile [1, N] exactly.
  const std::uint64_t n = 1000;
  for (std::size_t k : {1u, 3u, 8u, 16u}) {
    std::vector<std::uint64_t> count(k, 0);
    for (std::uint64_t key = 1; key <= n; ++key) {
      const std::size_t p = partition_of(key, n, k);
      ASSERT_LT(p, k);
      ASSERT_GT(key, partition_sentinel(p, n, k))
          << "key must exceed its partition's sentinel";
      ++count[p];
    }
    std::uint64_t total = 0;
    for (auto c : count) {
      EXPECT_GT(c, 0u);
      total += c;
    }
    EXPECT_EQ(total, n);
  }
}

}  // namespace
}  // namespace pimds::sim
