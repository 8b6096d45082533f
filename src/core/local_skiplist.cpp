#include "core/local_skiplist.hpp"

#include <cassert>
#include <type_traits>

namespace pimds::core {

template <class Arena>
BasicLocalSkipList<Arena>::BasicLocalSkipList(Arena& arena,
                                              std::uint64_t sentinel_key,
                                              std::uint64_t seed)
    : arena_(arena), rng_(seed) {
  head_ = make_node(sentinel_key, kMaxHeight);
  for (int lvl = 0; lvl < kMaxHeight; ++lvl) head_->next[lvl] = nullptr;
}

template <class Arena>
BasicLocalSkipList<Arena>::~BasicLocalSkipList() {
  // A vault's nodes go with the vault, and only its PIM core may touch
  // them; the heap gets its nodes back.
  if constexpr (std::is_same_v<Arena, HeapArena>) {
    for (Node* n = head_; n != nullptr;) {
      Node* next = n->next[0];
      destroy_node(n);
      n = next;
    }
  }
}

template <class Arena>
auto BasicLocalSkipList<Arena>::make_node(std::uint64_t key, int height)
    -> Node* {
  const std::size_t bytes =
      offsetof(Node, next) + static_cast<std::size_t>(height) * sizeof(Node*);
  auto* node = static_cast<Node*>(arena_.allocate(bytes, alignof(Node)));
  node->key = key;
  node->height = height;
  return node;
}

template <class Arena>
void BasicLocalSkipList<Arena>::destroy_node(Node* node) {
  const std::size_t bytes = offsetof(Node, next) +
                            static_cast<std::size_t>(node->height) *
                                sizeof(Node*);
  arena_.deallocate(node, bytes, alignof(Node));
}

template <class Arena>
auto BasicLocalSkipList<Arena>::locate(std::uint64_t key, Node** preds,
                                       std::uint64_t* steps) const -> Node* {
  Node* pred = head_;
  std::uint64_t count = 0;
  int top = kMaxHeight - 1;
  while (top > 0 && head_->next[top] == nullptr) preds[top--] = head_;
  for (int lvl = top; lvl >= 0; --lvl) {
    Node* curr = pred->next[lvl];
    ++count;  // reading the forward pointer at this level
    while (curr != nullptr && curr->key < key) {
      pred = curr;
      curr = curr->next[lvl];
      ++count;
    }
    preds[lvl] = pred;
  }
  if (steps != nullptr) *steps += count;
  return preds[0]->next[0];
}

template <class Arena>
int BasicLocalSkipList<Arena>::link(std::uint64_t key, Node** preds,
                                    Xoshiro256& heights) {
  int height = 1;
  while (height < kMaxHeight && heights.next_bool(0.5)) ++height;
  Node* node = make_node(key, height);
  for (int lvl = 0; lvl < height; ++lvl) {
    node->next[lvl] = preds[lvl]->next[lvl];
    preds[lvl]->next[lvl] = node;
  }
  ++size_;
  return height;
}

template <class Arena>
void BasicLocalSkipList<Arena>::unlink(Node* victim, Node** preds) {
  for (int lvl = 0; lvl < victim->height; ++lvl) {
    if (preds[lvl]->next[lvl] == victim) {
      preds[lvl]->next[lvl] = victim->next[lvl];
    }
  }
  destroy_node(victim);
  --size_;
  ++mutation_epoch_;
}

template <class Arena>
bool BasicLocalSkipList<Arena>::add(std::uint64_t key, Xoshiro256& heights,
                                    std::uint64_t* steps) {
  assert(key > head_->key && "key must exceed the sentinel key");
  Node* preds[kMaxHeight];
  Node* found = locate(key, preds, steps);
  if (found != nullptr && found->key == key) return false;
  link(key, preds, heights);
  ++mutation_epoch_;
  return true;
}

template <class Arena>
bool BasicLocalSkipList<Arena>::remove(std::uint64_t key,
                                       std::uint64_t* steps) {
  Node* preds[kMaxHeight];
  Node* found = locate(key, preds, steps);
  if (found == nullptr || found->key != key) return false;
  unlink(found, preds);
  return true;
}

template <class Arena>
bool BasicLocalSkipList<Arena>::contains(std::uint64_t key,
                                         std::uint64_t* steps) const {
  Node* preds[kMaxHeight];
  const Node* found = locate(key, preds, steps);
  return found != nullptr && found->key == key;
}

template <class Arena>
std::optional<std::uint64_t> BasicLocalSkipList<Arena>::first_at_least(
    std::uint64_t key) const {
  Node* preds[kMaxHeight];
  const Node* found = locate(key, preds, nullptr);
  if (found == nullptr) return std::nullopt;
  return found->key;
}

template <class Arena>
std::optional<std::uint64_t>
BasicLocalSkipList<Arena>::extract_first_at_least(std::uint64_t key,
                                                  std::uint64_t* steps) {
  Node* preds[kMaxHeight];
  Node* found = locate(key, preds, nullptr);
  if (found == nullptr) return std::nullopt;
  const std::uint64_t out = found->key;
  unlink(found, preds);
  if (steps != nullptr) *steps += 2;  // amortized range-sweep cost
  return out;
}

template <class Arena>
bool BasicLocalSkipList<Arena>::insert_ascending(InsertCursor& cursor,
                                                 std::uint64_t key,
                                                 Xoshiro256& heights,
                                                 std::uint64_t* steps) {
  assert(key > head_->key);
  Node** preds = cursor.preds_;
  std::uint64_t count = 0;
  if (!cursor.valid_ || cursor.epoch_ != mutation_epoch_) {
    locate(key, preds, &count);  // re-seed with one full search
    cursor.valid_ = true;
  } else {
    // Advance the fingers monotonically; total movement over a whole
    // migration is one bottom-level walk, so per-insert cost is O(1)
    // amortized plus the tower links.
    for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
      Node* pred = preds[lvl];
      Node* curr = pred->next[lvl];
      while (curr != nullptr && curr->key < key) {
        pred = curr;
        curr = curr->next[lvl];
        ++count;
      }
      preds[lvl] = pred;
    }
    ++count;  // reading the insertion point
  }
  const Node* at = preds[0]->next[0];
  if (at != nullptr && at->key == key) {
    if (steps != nullptr) *steps += count;
    return false;
  }
  const int height = link(key, preds, heights);
  cursor.epoch_ = mutation_epoch_;  // our own insert keeps the fingers valid
  if (steps != nullptr) *steps += count + static_cast<std::uint64_t>(height);
  return true;
}

template <class Arena>
std::vector<std::uint64_t> BasicLocalSkipList<Arena>::keys() const {
  std::vector<std::uint64_t> out;
  out.reserve(size_);
  for (const Node* n = head_->next[0]; n != nullptr; n = n->next[0]) {
    out.push_back(n->key);
  }
  return out;
}

template class BasicLocalSkipList<runtime::Vault>;
template class BasicLocalSkipList<HeapArena>;

}  // namespace pimds::core
