// Linearizability checking by Wing & Gong's depth-first search over
// candidate linearization orders, with the two standard accelerations:
//
//  - Lowe's (linearized-set, state) memoization: a branch that reaches a
//    configuration the search has already explored is pruned. Keys are
//    compared EXACTLY (bitset words + canonical state fingerprint), so the
//    prune never mis-fires on a hash collision.
//  - Lowe's P-compositionality partitioning: when the spec declares
//    operations on different args independent (sets, maps), the history
//    splits per arg and each subhistory is checked against a one-arg state.
//
// The search is the classic "WGL" doubly-linked-list formulation (also used
// by Knossos and Porcupine): entries alternate between invocation and
// response nodes sorted by timestamp; linearizing an operation lifts its
// pair out of the list, reaching a response whose operation cannot be
// linearized backtracks, and an empty stack at that point is a violation.
//
// A queue cannot partition, and each interleaving of pending enqueues is a
// distinct queue state, so the search's memo grows without bound on mixed
// queue histories. check_queue_history is instead an exact sweep for
// unique-value queue histories, O(n log n) time and O(n) memory; the search
// over QueueSpec stays as the reference it is tested against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/history.hpp"
#include "check/spec.hpp"

namespace pimds::check {

enum class Verdict : std::uint8_t {
  kLinearizable,
  kNotLinearizable,
  kLimitReached,  ///< search budget exhausted before a verdict
};

struct CheckResult {
  Verdict verdict = Verdict::kLinearizable;
  std::string error;               ///< first violation found, empty when ok
  std::uint64_t explored = 0;      ///< apply() attempts across partitions
  std::uint64_t partitions = 1;

  bool ok() const noexcept { return verdict == Verdict::kLinearizable; }
};

struct CheckOptions {
  /// Budget on apply() attempts (sum over partitions). Generously above
  /// anything a correct history in this repo's tests needs; a budget hit
  /// reports kLimitReached rather than a false verdict.
  std::uint64_t max_explored = 50'000'000;
};

namespace detail {

/// Exact (linearized bitset, state fingerprint) cache key.
struct CacheKey {
  std::vector<std::uint64_t> words;  ///< bitset of linearized ops
  std::vector<std::uint64_t> fp;     ///< Spec::fingerprint of the state

  bool operator==(const CacheKey& o) const noexcept {
    return words == o.words && fp == o.fp;
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    };
    for (const std::uint64_t w : k.words) mix(w);
    mix(0x9e3779b97f4a7c15ULL);
    for (const std::uint64_t w : k.fp) mix(w);
    return static_cast<std::size_t>(h);
  }
};

/// WGL search over one (sub)history. `events` need not be sorted.
template <typename Spec>
CheckResult check_partition(std::vector<Event> events,
                            typename Spec::State state,
                            const CheckOptions& opts,
                            std::uint64_t budget_used) {
  CheckResult result;
  result.explored = budget_used;
  const std::size_t n = events.size();
  if (n == 0) return result;

  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.begin < b.begin; });

  // Entry list: one invocation + one response node per op, sorted by time;
  // at equal timestamps invocations sort first, so touching intervals count
  // as concurrent (the permissive reading — never a false alarm).
  struct Node {
    std::uint64_t time = 0;
    std::uint32_t op = 0;
    Node* match = nullptr;  ///< response node, set on invocations only
    Node* prev = nullptr;
    Node* next = nullptr;
  };
  std::vector<Node> nodes(2 * n + 2);  // + head/tail sentinels
  {
    struct Ref {
      std::uint64_t time;
      bool is_return;
      std::uint32_t op;
    };
    std::vector<Ref> refs;
    refs.reserve(2 * n);
    for (std::uint32_t i = 0; i < n; ++i) {
      refs.push_back({events[i].begin, false, i});
      refs.push_back({events[i].end, true, i});
    }
    std::stable_sort(refs.begin(), refs.end(),
                     [](const Ref& a, const Ref& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.is_return < b.is_return;
                     });
    std::vector<Node*> inv_of(n, nullptr);
    Node* prev = &nodes[0];  // head sentinel
    for (std::size_t i = 0; i < refs.size(); ++i) {
      Node* node = &nodes[i + 1];
      node->time = refs[i].time;
      node->op = refs[i].op;
      if (refs[i].is_return) {
        inv_of[refs[i].op]->match = node;
      } else {
        inv_of[refs[i].op] = node;
      }
      prev->next = node;
      node->prev = prev;
      prev = node;
    }
    Node* tail = &nodes[2 * n + 1];
    prev->next = tail;
    tail->prev = prev;
  }
  Node* const head = &nodes[0];
  Node* const tail = &nodes[2 * n + 1];

  const auto lift = [](Node* inv) {
    inv->prev->next = inv->next;
    inv->next->prev = inv->prev;
    Node* ret = inv->match;
    ret->prev->next = ret->next;
    ret->next->prev = ret->prev;
  };
  const auto unlift = [](Node* inv) {
    Node* ret = inv->match;
    ret->prev->next = ret;
    ret->next->prev = ret;
    inv->prev->next = inv;
    inv->next->prev = inv;
  };

  const std::size_t words = (n + 63) / 64;
  CacheKey key;
  key.words.assign(words, 0);
  std::unordered_set<CacheKey, CacheKeyHash> cache;

  struct Frame {
    Node* inv;
    typename Spec::Undo undo;
  };
  std::vector<Frame> stack;
  stack.reserve(n);

  Node* entry = head->next;
  while (head->next != tail) {
    if (result.explored - budget_used > opts.max_explored) {
      result.verdict = Verdict::kLimitReached;
      result.error = "search budget exhausted after " +
                     std::to_string(result.explored) + " transitions";
      return result;
    }
    if (entry == tail || entry->match == nullptr) {
      // Reached a response (or the end): the pending prefix cannot extend.
      if (stack.empty()) {
        const Event& blame =
            events[entry == tail ? head->next->op : entry->op];
        result.verdict = Verdict::kNotLinearizable;
        result.error =
            "no linearization admits " + to_string(blame) +
            " (every ordering of its concurrent window was explored)";
        // Small sub-histories are printed whole: with Lowe partitioning a
        // violating partition is usually a handful of events, and seeing
        // them is what makes the verdict debuggable.
        if (n <= 64) {
          result.error += "\n  sub-history (" + std::to_string(n) +
                          " events, by invocation time):";
          for (const Event& e : events) result.error += "\n    " + to_string(e);
        }
        return result;
      }
      Frame f = stack.back();
      stack.pop_back();
      Spec::undo(state, f.undo);
      key.words[f.inv->op / 64] &= ~(1ull << (f.inv->op % 64));
      unlift(f.inv);
      entry = f.inv->next;
      continue;
    }
    // Invocation: try to linearize this operation here.
    ++result.explored;
    typename Spec::Undo undo{};
    if (Spec::apply(state, events[entry->op], undo)) {
      key.words[entry->op / 64] |= 1ull << (entry->op % 64);
      Spec::fingerprint(state, key.fp);
      if (cache.insert(key).second) {
        stack.push_back({entry, undo});
        lift(entry);
        entry = head->next;
        continue;
      }
      // Configuration already explored from another order: revert.
      Spec::undo(state, undo);
      key.words[entry->op / 64] &= ~(1ull << (entry->op % 64));
    }
    entry = entry->next;
  }
  return result;
}

}  // namespace detail

/// Check `history` against `Spec`. `initial` seeds the sequential state for
/// non-partitioned specs (e.g. a pre-filled queue); partitioned specs start
/// each per-arg state default-constructed and express initial contents as
/// setup events with begin == end == 0.
template <typename Spec>
CheckResult check_history(const History& history,
                          typename Spec::State initial = {},
                          const CheckOptions& opts = {}) {
  if constexpr (Spec::kPartitionByArg) {
    std::map<std::uint64_t, std::vector<Event>> parts;
    for (const Event& e : history.events) parts[e.arg].push_back(e);
    CheckResult total;
    total.partitions = parts.size();
    for (auto& [arg, events] : parts) {
      CheckResult r = detail::check_partition<Spec>(
          std::move(events), typename Spec::State{}, opts, total.explored);
      total.explored = r.explored;
      if (!r.ok()) {
        r.partitions = total.partitions;
        if (r.verdict == Verdict::kNotLinearizable) {
          r.error = "key " + std::to_string(arg) + ": " + r.error;
        }
        return r;
      }
    }
    return total;
  } else {
    CheckResult r = detail::check_partition<Spec>(history.events,
                                                  std::move(initial), opts, 0);
    return r;
  }
}

/// Exact check of a FIFO queue history whose enqueued values are unique
/// (every harness here tags values per producer), in O(n log n) time and
/// O(n) memory: one sweep over the invocations and responses in time order
/// instead of a search. At equal timestamps invocations come first, the
/// same permissive tie rule as the search above. The sweep keeps the
/// linearized queue Q, seeded with `initial`, and linearizes
///  - a dequeue as soon as it is pending and its value heads Q;
///  - every pending empty dequeue whenever Q is empty;
///  - an enqueue only when forced: at its own response, or at the response
///    of the dequeue returning its value. Before enq(v) joins Q, each
///    pending enqueue that must precede v joins, in order of its dequeue's
///    end: if v is dequeued, those whose dequeue ends before v's begins;
///    if v never is, every one whose value is dequeued.
/// At one response time, empties are forced first, then dequeues, then
/// enqueues. A forced empty that finds Q non-empty, or a forced deq(v) that
/// does not find v at the head, is a violation, reported with the head
/// value that blocks it. Recording the drain's final empty dequeue makes a
/// lost value a violation. A duplicate enqueued value (or one also in
/// `initial`) breaks the harness contract and throws std::invalid_argument;
/// a value dequeued twice is a violation.
inline CheckResult check_queue_history(const History& h,
                                       QueueSpec::State initial = {}) {
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const std::vector<Event>& ev = h.events;
  const auto n = static_cast<std::uint32_t>(ev.size());
  CheckResult result;
  const auto fail = [&result](const Event& e, const std::string& why) {
    result.verdict = Verdict::kNotLinearizable;
    result.error = "no linearization admits " + to_string(e) + ": " + why;
    return result;
  };

  // Pair enqueues and dequeues by value. Pre-filled value k stands for an
  // already linearized enqueue numbered n + k.
  std::unordered_map<std::uint64_t, std::uint32_t> enq_of;
  const auto add_value = [&enq_of](std::uint64_t v, std::uint32_t i) {
    if (!enq_of.emplace(v, i).second) {
      throw std::invalid_argument("queue history enqueues value " +
                                  std::to_string(v) + " twice");
    }
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    if (ev[i].op == kEnq) {
      add_value(ev[i].arg, i);
    } else if (ev[i].op != kDeq) {
      throw std::invalid_argument("not a queue op: " + to_string(ev[i]));
    }
  }
  for (std::uint32_t k = 0; k < initial.items.size(); ++k) {
    add_value(initial.items[k], n + k);
  }
  std::vector<std::uint32_t> partner(n + initial.items.size(), kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (ev[i].op != kDeq || ev[i].ret == kRetEmpty) continue;
    const auto enq = enq_of.find(ev[i].ret);
    if (enq == enq_of.end()) return fail(ev[i], "its value is never enqueued");
    const std::uint32_t e = enq->second;
    if (partner[e] != kNone) {
      return fail(ev[i], "also dequeued by " + to_string(ev[partner[e]]));
    }
    partner[i] = e;
    partner[e] = i;
  }

  struct Item {
    std::uint64_t value;
    std::uint32_t deq;  ///< dequeue returning it, or kNone
  };
  std::deque<Item> q;
  for (std::uint32_t k = 0; k < initial.items.size(); ++k) {
    q.push_back({initial.items[k], partner[n + k]});
  }
  std::vector<std::uint8_t> invoked(n, 0);
  std::vector<std::uint8_t> done(n, 0);
  std::vector<std::uint32_t> empties;  ///< pending empty dequeues
  /// Pending enqueues of dequeued values, by their dequeue's end.
  std::set<std::pair<std::uint64_t, std::uint32_t>> waiting;

  const auto settle = [&] {
    while (!q.empty() && q.front().deq != kNone && invoked[q.front().deq]) {
      done[q.front().deq] = 1;
      q.pop_front();
    }
    if (q.empty()) {
      for (const std::uint32_t e : empties) done[e] = 1;
      empties.clear();
    }
  };
  const auto join = [&](std::uint32_t e) {
    done[e] = 1;
    q.push_back({ev[e].arg, partner[e]});
    if (partner[e] != kNone) waiting.erase({ev[partner[e]].end, e});
  };
  const auto force_enq = [&](std::uint32_t e) {
    if (done[e]) return;
    const std::uint64_t bound =
        partner[e] == kNone ? ~std::uint64_t{0} : ev[partner[e]].begin;
    while (!waiting.empty() && waiting.begin()->first < bound) {
      join(waiting.begin()->second);
    }
    join(e);
  };

  // Sweep order (time, rank): rank 0 invocation, then the responses of
  // empties (1), dequeues (2) and enqueues (3).
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> points;
  points.reserve(2 * std::size_t{n});
  for (std::uint32_t i = 0; i < n; ++i) {
    points.emplace_back(ev[i].begin, 0, i);
    points.emplace_back(ev[i].end,
                        ev[i].op == kEnq ? 3 : ev[i].ret == kRetEmpty ? 1 : 2,
                        i);
  }
  std::sort(points.begin(), points.end());
  for (const auto& [time, rank, i] : points) {
    if (rank == 0) {
      invoked[i] = 1;
      if (ev[i].op == kEnq && partner[i] != kNone) {
        waiting.emplace(ev[partner[i]].end, i);
      }
      if (ev[i].op == kDeq && ev[i].ret == kRetEmpty) empties.push_back(i);
    } else if (rank == 3) {
      force_enq(i);
    } else if (rank == 2 && partner[i] < n) {
      if (!invoked[partner[i]]) {
        return fail(ev[i], "its enqueue " + to_string(ev[partner[i]]) +
                               " has not been invoked yet");
      }
      force_enq(partner[i]);
    }
    settle();
    if ((rank == 1 || rank == 2) && !done[i]) {
      const Item& head = q.front();
      return fail(ev[i], "the queue head is " + std::to_string(head.value) +
                             (head.deq == kNone
                                  ? ", which is never dequeued"
                                  : ", whose dequeue has not been invoked yet"));
    }
  }
  return result;
}

inline CheckResult check_set_history(const History& h,
                                     const CheckOptions& opts = {}) {
  return check_history<SetSpec>(h, {}, opts);
}

}  // namespace pimds::check
