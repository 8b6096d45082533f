// The sequential skip list of Section 4.2, written once.
//
// A PIM core runs it inside its vault: only that core touches it, so it
// needs no synchronization — plain reads and writes, exactly the operations
// the paper's PIM cores support. The flat-combining baseline runs the same
// structure on a CPU (one combiner at a time), and the simulator runs it as
// the algorithm code behind every simulated skip list. Geometric tower
// heights and a multi-level search make the per-operation access count
// beta = Theta(log N) emerge from the structure; every counted call reports
// its node steps so the caller can charge its own latency model.
//
// Nodes come from an arena: runtime::Vault on a PIM core, HeapArena in the
// simulator and the baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "runtime/vault.hpp"

namespace pimds::core {

/// The process heap as a node arena. Stateless, so `heap_arena` serves
/// every heap-resident store.
struct HeapArena {
  void* allocate(std::size_t bytes, std::size_t /*alignment*/) {
    return ::operator new(bytes);
  }
  void deallocate(void* p, std::size_t /*bytes*/,
                  std::size_t /*alignment*/) noexcept {
    ::operator delete(p);
  }
};
inline HeapArena heap_arena;

template <class Arena>
class BasicLocalSkipList {
  struct Node {
    std::uint64_t key;
    std::int32_t height;
    Node* next[1];  // over-allocated to `height` links
  };

 public:
  static constexpr int kMaxHeight = 24;

  /// @param sentinel_key key of the always-present head sentinel (max height,
  ///        never removed); operations must use keys strictly greater.
  ///        Partitioned deployments (Figure 3) pin it at the lower bound of
  ///        the partition's key range.
  /// @param seed seeds the store's own tower-height generator, which the
  ///        mutating calls without a generator argument draw from.
  BasicLocalSkipList(Arena& arena, std::uint64_t sentinel_key,
                     std::uint64_t seed = 0);
  ~BasicLocalSkipList();

  BasicLocalSkipList(const BasicLocalSkipList&) = delete;
  BasicLocalSkipList& operator=(const BasicLocalSkipList&) = delete;

  /// `steps`, when non-null, accumulates the number of node accesses the
  /// operation performed (the paper's beta), so the caller can charge its
  /// latency model. `heights` supplies the new node's tower height.
  bool add(std::uint64_t key, Xoshiro256& heights,
           std::uint64_t* steps = nullptr);
  bool add(std::uint64_t key, std::uint64_t* steps = nullptr) {
    return add(key, rng_, steps);
  }
  bool remove(std::uint64_t key, std::uint64_t* steps = nullptr);
  bool contains(std::uint64_t key, std::uint64_t* steps = nullptr) const;

  /// Smallest key >= `key`, if any (migration cursor scans, Section 4.2.1;
  /// uncounted — the caller charges the extraction that follows).
  std::optional<std::uint64_t> first_at_least(std::uint64_t key) const;

  /// Unlink and return the smallest key >= `key`. `steps` accumulates 2: a
  /// range migration sweeps the bottom level in ascending order while
  /// carrying per-level predecessor fingers, so tower unlinking amortizes to
  /// O(1) accesses per extracted node — unlike an independent remove(),
  /// which would pay a full beta-step search per key.
  std::optional<std::uint64_t> extract_first_at_least(
      std::uint64_t key, std::uint64_t* steps = nullptr);

  /// Finger cursor for ascending bulk inserts — the migration TARGET's
  /// amortized-O(1) dual of extract_first_at_least (kMigNode keys arrive in
  /// ascending order). Self-invalidates when any other operation mutates
  /// the list, falling back to one full search to re-seed the fingers.
  class InsertCursor {
   public:
    InsertCursor() = default;

   private:
    friend class BasicLocalSkipList;
    Node* preds_[kMaxHeight] = {};
    std::uint64_t epoch_ = 0;
    bool valid_ = false;
  };

  /// Insert `key` (>= every key previously inserted through `cursor`).
  /// Returns false if it was already present.
  bool insert_ascending(InsertCursor& cursor, std::uint64_t key,
                        Xoshiro256& heights, std::uint64_t* steps = nullptr);
  bool insert_ascending(InsertCursor& cursor, std::uint64_t key,
                        std::uint64_t* steps = nullptr) {
    return insert_ascending(cursor, key, rng_, steps);
  }

  std::size_t size() const noexcept { return size_; }

  /// Every key, ascending.
  std::vector<std::uint64_t> keys() const;

 private:
  Node* make_node(std::uint64_t key, int height);
  void destroy_node(Node* node);
  /// Fill preds[0..kMaxHeight) and return the level-0 successor. Counts one
  /// step per level read plus one per node moved past, from the highest
  /// populated level: a real skip list keeps its height in the head, so the
  /// empty top levels cost nothing.
  Node* locate(std::uint64_t key, Node** preds, std::uint64_t* steps) const;
  /// Link a new node of a drawn height after preds; returns the height.
  int link(std::uint64_t key, Node** preds, Xoshiro256& heights);
  void unlink(Node* victim, Node** preds);

  Arena& arena_;
  Node* head_;
  std::size_t size_ = 0;
  /// Bumped by every structural mutation outside insert_ascending, so live
  /// InsertCursors know their fingers may dangle.
  std::uint64_t mutation_epoch_ = 0;
  Xoshiro256 rng_;
};

extern template class BasicLocalSkipList<runtime::Vault>;
extern template class BasicLocalSkipList<HeapArena>;

/// The vault-resident store a runtime PIM core runs.
using LocalSkipList = BasicLocalSkipList<runtime::Vault>;
/// The same store on the heap: the simulator's lists and the flat-combining
/// baseline's partitions.
using HeapSkipList = BasicLocalSkipList<HeapArena>;

}  // namespace pimds::core
