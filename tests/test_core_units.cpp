// Unit tests for the core/ building blocks used by the PIM structures:
// the sentinel directory and the sequential list behind the flat-combining
// list baseline. The skip-list store has its own suite
// (test_skiplist_store.cpp).
#include <gtest/gtest.h>

#include <set>

#include "baselines/seq_structures.hpp"
#include "common/rng.hpp"
#include "core/sentinel_directory.hpp"

namespace pimds {
namespace {

using core::SentinelDirectory;

TEST(SentinelDirectory, RoutesByGreatestSentinelAtMostKey) {
  SentinelDirectory dir({{1, 0}, {100, 1}, {200, 2}});
  EXPECT_EQ(dir.route(1), 0u);
  EXPECT_EQ(dir.route(99), 0u);
  EXPECT_EQ(dir.route(100), 1u);
  EXPECT_EQ(dir.route(150), 1u);
  EXPECT_EQ(dir.route(200), 2u);
  EXPECT_EQ(dir.route(~std::uint64_t{0}), 2u);
}

TEST(SentinelDirectory, PartitionOfReportsBounds) {
  SentinelDirectory dir({{1, 0}, {100, 1}, {200, 2}});
  const auto mid = dir.partition_of(150);
  EXPECT_EQ(mid.lo, 100u);
  EXPECT_EQ(mid.hi, 200u);
  EXPECT_EQ(mid.vault, 1u);
  const auto last = dir.partition_of(5000);
  EXPECT_EQ(last.lo, 200u);
  EXPECT_EQ(last.hi, ~std::uint64_t{0});
}

TEST(SentinelDirectory, WholePartitionTransferRetargetsEntry) {
  SentinelDirectory dir({{1, 0}, {100, 1}});
  dir.move_range(100, 3);  // split key == existing sentinel
  EXPECT_EQ(dir.partition_count(), 2u);
  EXPECT_EQ(dir.route(150), 3u);
  EXPECT_EQ(dir.route(50), 0u);
}

TEST(SentinelDirectory, SuffixSplitInsertsSentinel) {
  SentinelDirectory dir({{1, 0}, {100, 1}});
  dir.move_range(50, 2);  // suffix [50, 100) of partition 0
  EXPECT_EQ(dir.partition_count(), 3u);
  EXPECT_EQ(dir.route(49), 0u);
  EXPECT_EQ(dir.route(50), 2u);
  EXPECT_EQ(dir.route(99), 2u);
  EXPECT_EQ(dir.route(100), 1u);
}

TEST(SentinelDirectory, RepeatedSplitsStaySorted) {
  SentinelDirectory dir({{1, 0}});
  dir.move_range(1000, 1);
  dir.move_range(100, 2);
  dir.move_range(10, 3);
  const auto snap = dir.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].sentinel, snap[i].sentinel);
  }
  EXPECT_EQ(dir.route(5), 0u);
  EXPECT_EQ(dir.route(10), 3u);
  EXPECT_EQ(dir.route(500), 2u);
  EXPECT_EQ(dir.route(5000), 1u);
}

TEST(SeqList, CursorBatchesEqualScratchExecution) {
  baselines::SeqList with_cursor;
  baselines::SeqList plain;
  Xoshiro256 rng(21);
  // Pre-populate identically.
  for (std::uint64_t k = 2; k <= 100; k += 2) {
    with_cursor.add(k);
    plain.add(k);
  }
  // Ascending batch through the cursor API must equal one-by-one calls.
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 50; ++i) keys.push_back(rng.next_in(1, 120));
  std::sort(keys.begin(), keys.end());
  baselines::SeqList::Cursor cursor;
  for (const std::uint64_t k : keys) {
    EXPECT_EQ(with_cursor.add_from(&cursor, k), plain.add(k)) << k;
  }
  EXPECT_EQ(with_cursor.size(), plain.size());
}

}  // namespace
}  // namespace pimds
