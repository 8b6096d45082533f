// The plain sequential list wrapped by the flat-combining list baseline.
// Latency hooks charge one CPU DRAM access per node hop when injection is
// enabled (the combiner is an ordinary CPU thread). The flat-combining skip
// list wraps core::HeapSkipList, the vault store on the heap.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/latency.hpp"

namespace pimds::baselines {

/// Sorted singly-linked list with a dummy head (key 0).
class SeqList {
 public:
  SeqList() : head_(new Node{0, nullptr}) {}
  ~SeqList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }

  SeqList(const SeqList&) = delete;
  SeqList& operator=(const SeqList&) = delete;

  struct Cursor {
    void* prev = nullptr;  ///< opaque resume point for ascending batches
  };

  bool add(std::uint64_t key) { return add_from(nullptr, key); }
  bool remove(std::uint64_t key) { return remove_from(nullptr, key); }
  bool contains(std::uint64_t key) const;

  /// Batched variants resuming from `cursor` (combining optimization):
  /// requests must arrive in ascending key order.
  bool add_from(Cursor* cursor, std::uint64_t key);
  bool remove_from(Cursor* cursor, std::uint64_t key);
  bool contains_from(Cursor* cursor, std::uint64_t key) const;

  std::size_t size() const noexcept { return size_; }

 private:
  struct Node {
    std::uint64_t key;
    Node* next;
  };

  Node* resume_point(Cursor* cursor) const {
    if (cursor != nullptr && cursor->prev != nullptr) {
      return static_cast<Node*>(cursor->prev);
    }
    return head_;
  }

  /// Walk from `start` until the successor has key >= key.
  Node* walk(Node* start, std::uint64_t key) const {
    Node* prev = start;
    charge_cpu_access();
    while (prev->next != nullptr && prev->next->key < key) {
      charge_cpu_access();
      prev = prev->next;
    }
    return prev;
  }

  Node* head_;
  std::size_t size_ = 0;
};

}  // namespace pimds::baselines
