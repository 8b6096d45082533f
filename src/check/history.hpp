// Generic operation-history recorder for linearizability checking.
//
// A history is a set of operations, each with an invocation timestamp, a
// response timestamp, an opcode, an argument, and a recorded result. Each
// participant (real thread or simulator actor) owns a private log, so
// recording costs one vector push and two timestamp reads and needs no
// synchronization.
//
// The same types serve both harnesses:
//  - the real-thread runtime records wall-clock timestamps (now_ns(), the
//    default arguments), which are globally monotonic across threads;
//  - the virtual-time simulator passes Context::now() explicitly, which is
//    globally meaningful by construction of the engine.
// The checker only compares timestamps for order, so the two never mix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/timing.hpp"

namespace pimds::check {

/// Canonical opcodes shared by every spec. A structure-specific harness may
/// use its own codes as long as its Spec understands them.
enum Op : std::uint32_t {
  kEnq = 1,
  kDeq = 2,
  kAdd = 3,
  kRemove = 4,
  kContains = 5,
};

/// Result encoding for Event::ret.
inline constexpr std::uint64_t kRetFalse = 0;
inline constexpr std::uint64_t kRetTrue = 1;
/// Dequeue-of-empty sentinel; harness values must avoid it (they do: tagged
/// values keep the top bits well below ~0).
inline constexpr std::uint64_t kRetEmpty = ~std::uint64_t{0};

struct Event {
  std::uint32_t op = 0;
  std::uint32_t thread = 0;    ///< filled in by History::collect
  std::uint64_t arg = 0;       ///< key, or enqueued value
  std::uint64_t ret = 0;       ///< recorded response
  std::uint64_t begin = 0;     ///< invocation timestamp
  std::uint64_t end = 0;       ///< response timestamp
};

/// One participant's private, lock-free event log. Operations on a thread
/// are sequential, so begin()/end() pair up by nesting order.
class ThreadLog {
 public:
  /// Record an invocation. Real threads use the wall-clock overloads;
  /// simulator actors pass ctx.now() explicitly.
  ///
  /// The wall-clock overloads read the clock INSIDE the body — never as a
  /// default argument. A defaulted `ts = now_ns()` is evaluated in the
  /// caller's full-expression, where argument evaluation order is
  /// unspecified; GCC evaluates right-to-left, so in
  /// `log.end(list.add(key) ? kRetTrue : kRetFalse)` the clock would be
  /// read BEFORE add() runs. Every response timestamp then precedes its
  /// operation's linearization point, collapsing recorded windows to the
  /// gap between two clock reads (~300ns) and making genuinely concurrent
  /// executions look like linearizability violations. (Found when the
  /// oracle reported impossible same-thread histories under TSan: the
  /// vault-side execution traced hundreds of microseconds after the
  /// recorded response time.) A function body, by contrast, is sequenced
  /// after all its arguments.
  void begin(std::uint32_t op, std::uint64_t arg) { begin(op, arg, now_ns()); }
  void begin(std::uint32_t op, std::uint64_t arg, std::uint64_t ts) {
    pending_.op = op;
    pending_.arg = arg;
    pending_.begin = ts;
    open_ = true;
  }

  /// Record the matching response.
  void end(std::uint64_t ret) { end(ret, now_ns()); }
  void end(std::uint64_t ret, std::uint64_t ts) {
    pending_.ret = ret;
    pending_.end = ts;
    events_.push_back(pending_);
    open_ = false;
  }

  /// Record a complete operation with explicit timestamps (setup phases,
  /// translations from other log formats).
  void complete(std::uint32_t op, std::uint64_t arg, std::uint64_t ret,
                std::uint64_t begin_ts, std::uint64_t end_ts) {
    events_.push_back(Event{op, 0, arg, ret, begin_ts, end_ts});
  }

  /// Drop an invocation that will never get a response (an op abandoned at
  /// shutdown). The checker requires complete histories.
  void abandon() { open_ = false; }

  const std::vector<Event>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }

 private:
  Event pending_{};
  bool open_ = false;
  std::vector<Event> events_;
};

/// A complete history: every thread's completed operations, merged.
struct History {
  std::vector<Event> events;

  std::size_t size() const noexcept { return events.size(); }
};

/// Fixed-size pool of per-participant logs plus the merge step.
class HistoryRecorder {
 public:
  explicit HistoryRecorder(std::size_t threads) : logs_(threads) {}

  ThreadLog& log(std::size_t thread) { return logs_[thread]; }
  std::size_t threads() const noexcept { return logs_.size(); }

  /// Merge all logs into one history (thread ids assigned by log index).
  History collect() const {
    History h;
    std::size_t total = 0;
    for (const ThreadLog& log : logs_) total += log.size();
    h.events.reserve(total);
    for (std::size_t t = 0; t < logs_.size(); ++t) {
      for (Event e : logs_[t].events()) {
        e.thread = static_cast<std::uint32_t>(t);
        h.events.push_back(e);
      }
    }
    return h;
  }

 private:
  std::vector<ThreadLog> logs_;
};

/// Human-readable rendering of one event (checker error messages).
inline std::string to_string(const Event& e) {
  const char* name = "op?";
  switch (e.op) {
    case kEnq: name = "enq"; break;
    case kDeq: name = "deq"; break;
    case kAdd: name = "add"; break;
    case kRemove: name = "remove"; break;
    case kContains: name = "contains"; break;
    default: break;
  }
  std::string out = name;
  out += "(" + std::to_string(e.arg) + ")";
  out += e.ret == kRetEmpty ? " -> empty" : " -> " + std::to_string(e.ret);
  out += " [t" + std::to_string(e.thread) + " @" + std::to_string(e.begin) +
         ".." + std::to_string(e.end) + "]";
  return out;
}

}  // namespace pimds::check
