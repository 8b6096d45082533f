#include "core/pim_linked_list.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "runtime/fat_arena.hpp"
#include "runtime/mailbox.hpp"

namespace pimds::core {

using runtime::Message;
using runtime::PimCoreApi;
using runtime::RequestCombiner;
using runtime::ResponseSlot;

namespace {
/// Hard cap on requests served per traversal (sizes the results scratch).
constexpr std::size_t kMaxServe = 64;
}  // namespace

PimLinkedList::PimLinkedList(runtime::PimSystem& system)
    : PimLinkedList(system, Options{}) {}

PimLinkedList::PimLinkedList(runtime::PimSystem& system, Options options)
    : system_(system), options_(options) {
  head_ = system_.vault(options_.vault).create<Node>(Node{0, nullptr});
  system_.set_batch_handler(
      options_.vault, [this](PimCoreApi& api, const Message* msgs,
                             std::size_t n) { handle_batch(api, msgs, n); });
}

bool PimLinkedList::submit(Kind kind, std::uint64_t key) {
  assert(key >= 1 && "key 0 is reserved for the dummy head");
  ResponseSlot<bool> slot;
  static_assert(sizeof(slot) == kCacheLineSize,
                "a reply hand-off must move exactly one cache line");
  if (options_.cpu_combining) {
    RequestCombiner::Entry entry{};
    entry.kind = kind;
    entry.key = key;
    entry.slot = &slot;
    combiner_.submit(entry, [this](Message& m) {
      m.kind = kOpBatch;
      system_.send(options_.vault, m);
    });
  } else {
    Message m;
    m.kind = kind;
    m.key = key;
    m.slot = &slot;
    system_.send(options_.vault, m);
  }
  return slot.await();
}

bool PimLinkedList::add(std::uint64_t key) { return submit(kAdd, key); }
bool PimLinkedList::remove(std::uint64_t key) { return submit(kRemove, key); }
bool PimLinkedList::contains(std::uint64_t key) {
  return submit(kContains, key);
}

/// Serve one request at the traversal cursor. `cursor_prev` is the last
/// node with key < the previous request's key; since requests are served in
/// ascending key order the cursor only ever moves forward.
bool PimLinkedList::apply(PimCoreApi& api, std::uint32_t kind,
                          std::uint64_t key, Node*& cursor_prev) {
  Node* prev = cursor_prev;
  Node* curr = prev->next;
  while (curr != nullptr && curr->key < key) {
    api.charge_local_access();
    prev = curr;
    curr = curr->next;
  }
  cursor_prev = prev;
  const bool present = curr != nullptr && curr->key == key;
  switch (kind) {
    case kContains:
      return present;
    case kAdd: {
      if (present) return false;
      Node* node = api.vault().create<Node>(Node{key, curr});
      prev->next = node;
      size_.value.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    case kRemove: {
      if (!present) return false;
      prev->next = curr->next;
      api.vault().destroy(curr);
      size_.value.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    default:
      assert(false && "unknown linked-list opcode");
      return false;
  }
}

/// Serve `n` decoded requests. With combining on they are sorted and served
/// in one ascending traversal; all replies ride one pipelined response
/// (shared ready_ns). Without combining each request restarts at the head.
void PimLinkedList::serve(PimCoreApi& api, Op* ops, std::size_t n) {
  if (n == 0) return;
  if (!options_.combining) {
    for (std::size_t i = 0; i < n; ++i) {
      Node* cursor = head_;
      api.charge_local_access();  // reading the head
      const bool result = apply(api, ops[i].kind, ops[i].key, cursor);
      static_cast<ResponseSlot<bool>*>(ops[i].slot)->publish(
          result, api.reply_ready_ns());
    }
    return;
  }
  std::stable_sort(ops, ops + n, [](const Op& a, const Op& b) {
    return a.key < b.key;
  });
  std::size_t seen = max_batch_seen_.value.load(std::memory_order_relaxed);
  while (n > seen && !max_batch_seen_.value.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  Node* cursor = head_;
  api.charge_local_access();
  bool results[kMaxServe];
  assert(n <= kMaxServe);
  for (std::size_t i = 0; i < n; ++i) {
    results[i] = apply(api, ops[i].kind, ops[i].key, cursor);
  }
  // One fat response message for the whole batch: every slot becomes
  // visible at the same delivery time while the core moves on.
  const std::uint64_t ready = api.reply_ready_ns();
  for (std::size_t i = 0; i < n; ++i) {
    static_cast<ResponseSlot<bool>*>(ops[i].slot)->publish(results[i], ready);
  }
}

void PimLinkedList::handle_batch(PimCoreApi& api, const Message* msgs,
                                 std::size_t n) {
  // Decode plain and CPU-combined messages into one flat request list,
  // serving in chunks of max_batch (cap on one traversal's combined size).
  std::vector<Op> ops;
  ops.reserve(options_.max_batch);
  const std::size_t cap = std::min(options_.max_batch, kMaxServe);
  auto flush = [&] {
    serve(api, ops.data(), ops.size());
    ops.clear();
  };
  auto push_op = [&](std::uint32_t kind, std::uint64_t key, void* slot) {
    ops.push_back(Op{kind, key, slot});
    if (ops.size() >= cap) flush();
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Message& m = msgs[i];
    if (m.kind == kOpBatch) {
      const runtime::FatEntry* entries = runtime::fat_entries(m);
      for (std::uint16_t j = 0; j < m.fat_count; ++j) {
        push_op(entries[j].kind, entries[j].key, entries[j].slot);
      }
      runtime::release_fat_payload(m);
    } else {
      push_op(m.kind, m.key, m.slot);
    }
  }
  flush();
}

}  // namespace pimds::core
