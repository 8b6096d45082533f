// The sequential skip list (core/local_skiplist.hpp), typed over its two
// arenas: a runtime vault (what a PIM core runs) and the heap (what the
// simulator and the flat-combining baseline run). One suite, so the three
// users are checked against one set of behaviours: a std::set oracle, the
// beta step counts, the migration primitives' order, and the insert
// cursor's equivalence to plain adds and its invalidation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/local_skiplist.hpp"
#include "runtime/vault.hpp"

namespace pimds {
namespace {

template <class Arena>
class SkipListStore : public ::testing::Test {
 protected:
  using List = core::BasicLocalSkipList<Arena>;

  Arena& arena() {
    if constexpr (std::is_same_v<Arena, runtime::Vault>) {
      return vault_;
    } else {
      return core::heap_arena;
    }
  }

 private:
  runtime::Vault vault_{0, 16u << 20};
};

struct ArenaNames {
  template <class Arena>
  static std::string GetName(int) {
    return std::is_same_v<Arena, runtime::Vault> ? "Vault" : "Heap";
  }
};

using Arenas = ::testing::Types<runtime::Vault, core::HeapArena>;
TYPED_TEST_SUITE(SkipListStore, Arenas, ArenaNames);

TYPED_TEST(SkipListStore, MatchesStdSetAndCountsSteps) {
  typename TestFixture::List list(this->arena(), 0, 77);
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(9);
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t key = rng.next_in(1, 500);
    std::uint64_t steps = 0;
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(list.add(key, &steps), reference.insert(key).second);
        break;
      case 1:
        ASSERT_EQ(list.remove(key, &steps), reference.erase(key) > 0);
        break;
      default:
        ASSERT_EQ(list.contains(key, &steps), reference.count(key) > 0);
    }
    // At least one forward pointer is read per level searched.
    ASSERT_GT(steps, 0u);
    ASSERT_EQ(list.size(), reference.size());
  }
  const std::vector<std::uint64_t> expected(reference.begin(),
                                            reference.end());
  EXPECT_EQ(list.keys(), expected);
}

TYPED_TEST(SkipListStore, StepCountsFollowTheSearch) {
  typename TestFixture::List list(this->arena(), 0, 5);
  std::uint64_t steps = 0;
  // Empty: only level 0 is populated, and reading it is one step.
  EXPECT_FALSE(list.contains(10, &steps));
  EXPECT_EQ(steps, 1u);
  // Uncounted calls leave `steps` alone; an extraction counts exactly 2.
  ASSERT_TRUE(list.add(10));
  EXPECT_EQ(list.first_at_least(1), std::optional<std::uint64_t>(10));
  steps = 0;
  EXPECT_EQ(list.extract_first_at_least(1, &steps),
            std::optional<std::uint64_t>(10));
  EXPECT_EQ(steps, 2u);
  steps = 0;
  EXPECT_EQ(list.extract_first_at_least(1, &steps), std::nullopt);
  EXPECT_EQ(steps, 0u);
}

TYPED_TEST(SkipListStore, BetaIsLogarithmic) {
  typename TestFixture::List list(this->arena(), 0, 17);
  Xoshiro256 rng(17);
  while (list.size() < (1u << 14)) list.add(rng.next_in(1, 1 << 16), rng);
  std::uint64_t steps = 0;
  constexpr int kSearches = 2000;
  for (int i = 0; i < kSearches; ++i) {
    list.contains(rng.next_in(1, 1 << 16), &steps);
  }
  // beta = Theta(log N): ~2 log2(16384) = 28, generously bracketed.
  const double beta = static_cast<double>(steps) / kSearches;
  EXPECT_GT(beta, 14.0);
  EXPECT_LT(beta, 56.0);
}

TYPED_TEST(SkipListStore, FirstAtLeastScansInOrder) {
  typename TestFixture::List list(this->arena(), 0, 3);
  for (std::uint64_t k : {10u, 20u, 30u}) list.add(k);
  EXPECT_EQ(list.first_at_least(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(list.first_at_least(10), std::optional<std::uint64_t>(10));
  EXPECT_EQ(list.first_at_least(11), std::optional<std::uint64_t>(20));
  EXPECT_EQ(list.first_at_least(30), std::optional<std::uint64_t>(30));
  EXPECT_EQ(list.first_at_least(31), std::nullopt);
}

TYPED_TEST(SkipListStore, ExtractDrainsInAscendingOrder) {
  typename TestFixture::List list(this->arena(), 0, 11);
  Xoshiro256 rng(1);
  std::set<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t k = rng.next_in(1, 5000);
    if (list.add(k)) keys.insert(k);
  }
  // Extract [100, 2000) and check order + completeness.
  std::uint64_t cursor = 100;
  std::vector<std::uint64_t> extracted;
  for (;;) {
    const auto k = list.extract_first_at_least(cursor);
    if (!k.has_value() || *k >= 2000) break;
    extracted.push_back(*k);
    cursor = *k + 1;
  }
  std::vector<std::uint64_t> expected;
  for (const auto k : keys) {
    if (k >= 100 && k < 2000) expected.push_back(k);
  }
  EXPECT_EQ(extracted, expected);
  for (const auto k : expected) EXPECT_FALSE(list.contains(k));
}

TYPED_TEST(SkipListStore, AscendingInsertMatchesRegularAdd) {
  typename TestFixture::List via_cursor(this->arena(), 0, 3);
  typename TestFixture::List regular(this->arena(), 0, 3);
  typename TestFixture::List::InsertCursor cursor;
  Xoshiro256 rng(2);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(rng.next_in(1, 1000));
  std::sort(keys.begin(), keys.end());
  for (const auto k : keys) {
    std::uint64_t steps = 0;
    ASSERT_EQ(via_cursor.insert_ascending(cursor, k, &steps), regular.add(k))
        << k;
    ASSERT_GT(steps, 0u);
  }
  EXPECT_EQ(via_cursor.keys(), regular.keys());
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    ASSERT_EQ(via_cursor.contains(k), regular.contains(k)) << k;
  }
}

TYPED_TEST(SkipListStore, CursorSurvivesInterleavedMutations) {
  typename TestFixture::List list(this->arena(), 0, 7);
  typename TestFixture::List::InsertCursor cursor;
  // Ascending inserts with unrelated mutations in between (which
  // invalidate the fingers and force a re-seed).
  for (std::uint64_t k = 10; k <= 500; k += 10) {
    ASSERT_TRUE(list.insert_ascending(cursor, k));
    if (k % 50 == 0) {
      ASSERT_TRUE(list.add(k + 5));
      ASSERT_TRUE(list.remove(k - 10));
    }
  }
  EXPECT_TRUE(list.contains(500));
  EXPECT_TRUE(list.contains(55));
  EXPECT_FALSE(list.contains(40));
  EXPECT_FALSE(list.insert_ascending(cursor, 500)) << "already present";
}

TYPED_TEST(SkipListStore, ForeignMutationForcesAFullSearch) {
  typename TestFixture::List list(this->arena(), 0, 13);
  for (std::uint64_t k = 1; k <= 1000; ++k) list.add(k);
  typename TestFixture::List::InsertCursor cursor;
  ASSERT_TRUE(list.insert_ascending(cursor, 2000));
  // Valid fingers: the next ascending insert costs less than a search.
  std::uint64_t search = 0;
  list.contains(2001, &search);
  std::uint64_t steps = 0;
  ASSERT_TRUE(list.insert_ascending(cursor, 2001, &steps));
  EXPECT_LT(steps, search);
  // Any other mutation (an add here) invalidates them: one full search,
  // plus the tower links.
  ASSERT_TRUE(list.add(5000));
  search = 0;
  list.contains(2002, &search);
  steps = 0;
  ASSERT_TRUE(list.insert_ascending(cursor, 2002, &steps));
  EXPECT_GT(steps, search);
}

TEST(LocalSkipList, MemoryIsReturnedToTheVault) {
  runtime::Vault vault(0, 1u << 20);
  core::LocalSkipList list(vault, 0, 3);
  for (std::uint64_t k = 1; k <= 200; ++k) list.add(k);
  const std::size_t peak = vault.bytes_used();
  for (std::uint64_t k = 1; k <= 200; ++k) list.remove(k);
  EXPECT_LT(vault.bytes_used(), peak);
  // Re-adding recycles free-listed blocks; usage returns to roughly the
  // previous peak (tower heights are random, so allow slack for a taller
  // second population).
  for (std::uint64_t k = 1; k <= 200; ++k) list.add(k);
  EXPECT_LE(vault.bytes_used(), peak + 1024);
}

}  // namespace
}  // namespace pimds
