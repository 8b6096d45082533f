#include "baselines/fc_structures.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace pimds::baselines {

namespace {
using Records = std::vector<FlatCombiner<SetRequest, bool>::Record*>;
}

bool FcLinkedList::execute(SetRequest req) {
  return fc_.execute(req, [this](Records& batch) {
    if (combining_) {
      // One ascending traversal serves the whole batch (Section 4.1).
      std::sort(batch.begin(), batch.end(),
                [](const auto* a, const auto* b) {
                  return a->req.key < b->req.key;
                });
      SeqList::Cursor cursor;
      for (auto* rec : batch) {
        switch (rec->req.op) {
          case SetRequest::Op::kAdd:
            rec->res = list_.add_from(&cursor, rec->req.key);
            break;
          case SetRequest::Op::kRemove:
            rec->res = list_.remove_from(&cursor, rec->req.key);
            break;
          case SetRequest::Op::kContains:
            rec->res = list_.contains_from(&cursor, rec->req.key);
            break;
        }
      }
      return;
    }
    for (auto* rec : batch) {
      switch (rec->req.op) {
        case SetRequest::Op::kAdd:
          rec->res = list_.add(rec->req.key);
          break;
        case SetRequest::Op::kRemove:
          rec->res = list_.remove(rec->req.key);
          break;
        case SetRequest::Op::kContains:
          rec->res = list_.contains(rec->req.key);
          break;
      }
    }
  });
}

bool FcLinkedList::add(std::uint64_t key) {
  return execute({SetRequest::Op::kAdd, key});
}
bool FcLinkedList::remove(std::uint64_t key) {
  return execute({SetRequest::Op::kRemove, key});
}
bool FcLinkedList::contains(std::uint64_t key) {
  return execute({SetRequest::Op::kContains, key});
}

FcSkipList::FcSkipList(std::uint64_t key_range, std::size_t partitions)
    : key_range_(key_range) {
  assert(partitions >= 1);
  parts_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    Partition p;
    // Sentinel at the partition's lower bound minus one (keys start at 1).
    p.list = std::make_unique<core::HeapSkipList>(
        core::heap_arena, i * key_range / partitions, 0x5eedULL + i);
    p.fc = std::make_unique<FlatCombiner<SetRequest, bool>>();
    parts_.push_back(std::move(p));
  }
}

std::size_t FcSkipList::route(std::uint64_t key) const {
  const std::size_t idx = static_cast<std::size_t>(
      (key - 1) * parts_.size() / key_range_);
  return idx >= parts_.size() ? parts_.size() - 1 : idx;
}

bool FcSkipList::execute(SetRequest req) {
  assert(req.key >= 1 && req.key <= key_range_);
  Partition& part = parts_[route(req.key)];
  return part.fc->execute(req, [&part](Records& batch) {
    // No combining for skip-lists: distant keys share no traversal prefix
    // (Section 4.2), so the combiner executes requests one by one.
    for (auto* rec : batch) {
      std::uint64_t steps = 0;
      switch (rec->req.op) {
        case SetRequest::Op::kAdd:
          rec->res = part.list->add(rec->req.key, &steps);
          break;
        case SetRequest::Op::kRemove:
          rec->res = part.list->remove(rec->req.key, &steps);
          break;
        case SetRequest::Op::kContains:
          rec->res = part.list->contains(rec->req.key, &steps);
          break;
      }
      for (; steps > 0; --steps) charge_cpu_access();
    }
  });
}

bool FcSkipList::add(std::uint64_t key) {
  return execute({SetRequest::Op::kAdd, key});
}
bool FcSkipList::remove(std::uint64_t key) {
  return execute({SetRequest::Op::kRemove, key});
}
bool FcSkipList::contains(std::uint64_t key) {
  return execute({SetRequest::Op::kContains, key});
}

std::size_t FcSkipList::size() const noexcept {
  std::size_t total = 0;
  for (const Partition& p : parts_) total += p.list->size();
  return total;
}

void FcQueue::enqueue(std::uint64_t value) {
  enq_fc_.execute(value, [this](auto& batch) {
    const std::scoped_lock ends(ends_lock_);
    for (auto* rec : batch) {
      charge_cpu_access();  // queue-node write
      items_.push_back(rec->req);
      rec->res = true;
    }
  });
}

std::optional<std::uint64_t> FcQueue::dequeue() {
  return deq_fc_.execute(0, [this](auto& batch) {
    const std::scoped_lock ends(ends_lock_);
    for (auto* rec : batch) {
      charge_cpu_access();  // queue-node read
      if (items_.empty()) {
        rec->res = std::nullopt;
      } else {
        rec->res = items_.front();
        items_.pop_front();
      }
    }
  });
}

}  // namespace pimds::baselines
