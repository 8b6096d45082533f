// Algorithm 1's vault-side protocol (Section 5), written once for both
// executions of the PIM FIFO queue: the real-thread runtime
// (core/pim_fifo_queue.cpp) and the deterministic simulator
// (sim/ds/pim_queue.cpp).
//
// QueueProtocol owns the queue's vault-resident state — every vault's
// segments, its enqueue/dequeue roles and its segQueue — plus the CPU-visible
// role directory. Its handlers run on the PIM core that owns the vault and
// reach the outside world only through a Port, a small static interface
// (member templates, no virtual dispatch) that each binding implements:
//
//   std::size_t vault_id() const;          the serving core
//   void send(std::size_t core, Handoff);  core-to-core hand-off message
//   void charge_local(std::uint64_t n);    n local vault accesses
//   T reply_time();                        shared ready time of a reply batch
//   void reply(const Request&, QueueReply, T ready);
//   void stall_if_unpipelined();           after a reply that carried work
//   void trace(const char* event);         protocol event on the core's track
//   void* allocate(std::size_t bytes);     vault memory
//   void deallocate(void* p, std::size_t bytes);
//
// A Request is whatever the binding decodes a client message into; the core
// reads only its `value` (enqueues) and hands it back to Port::reply.
//
// Hand-offs always go through Port::send, self-addressed ones included
// (k == 1, or a placement that lands on the sender): the role is released
// at once and re-taken when the message is delivered, so requests arriving
// in between are rejected and retried exactly as for a remote hand-off.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"
#include "obs/metrics.hpp"

namespace pimds::core {

/// Where a PIM core creates the next enqueue segment (Algorithm 1 line 14
/// leaves the choice open; the paper notes richer policies as future work).
enum class SegmentPlacement : std::uint8_t {
  /// Strict round-robin. Pathology worth knowing about: because enqueue and
  /// dequeue roles advance at the same rate (one core per `threshold`
  /// operations), round-robin can park both roles on the SAME core and keep
  /// them there — a stable fixed point that serializes the two sides and
  /// halves throughput. The ablation bench demonstrates this.
  kRoundRobin,
  /// Round-robin, but skip the core currently holding the dequeue segment.
  /// Reduces — but does not eliminate — co-residency: once both roles land
  /// on the SAME core, the skip condition never fires and they advance in
  /// lockstep.
  kAvoidDequeueCore,
  /// Place each new enqueue segment on the core "opposite" the current
  /// dequeue core ((deq + k/2) mod k). Self-stabilizing: when the dequeue
  /// role reaches a segment, the enqueue role is by construction filling a
  /// segment placed half a ring away, so the two sides stay on distinct
  /// cores — the Section 5 assumption that enqueues and dequeues proceed in
  /// parallel. This is the default.
  kOppositeDequeueCore,
};

/// Deliberately broken protocol variants for checker mutation testing: each
/// fault models a real protocol mistake and MUST be caught by the checkers
/// (tests/test_checker_mutation.cpp, tests/test_queue_protocol.cpp).
enum class QueueFault : std::uint8_t {
  kNone,
  /// Segment hand-off bug: when the dequeue role moves to the next segment
  /// (Algorithm 1's newDeqSeg), the new core serves its freshest buffered
  /// nodes first — as if the hand-off message fenced nothing and the
  /// successor's local order leaked. Breaks FIFO across the hand-off.
  kHandoffReorder,
  /// Response bug: the dequeue core occasionally re-serves the value it just
  /// dequeued without popping again — a stale-sentinel read after the
  /// segment advanced. One value reaches two dequeuers.
  kDoubleServe,
};

struct QueueProtocolOptions {
  /// Segment length threshold (Algorithm 1 line 13). A huge threshold keeps
  /// the queue in the single-segment ("short queue") regime, where one core
  /// serves both request types and throughput halves (end of Section 5.2).
  std::uint64_t segment_threshold = 1024;
  SegmentPlacement placement = SegmentPlacement::kOppositeDequeueCore;
  /// Section 5.1's further optimization: the enqueue core appends every
  /// enqueue of a drained batch as one "fat" node's worth of work, paying
  /// one local memory access per `fat_node_capacity` values.
  bool enqueue_combining = true;
  std::size_t fat_node_capacity = 8;  ///< values per cache-line array node
  QueueFault fault = QueueFault::kNone;  ///< mutation testing only
};

/// A vault's answer to one client request.
struct QueueReply {
  bool accepted = false;   ///< false => wrong core, the CPU must resend
  bool has_value = false;  ///< dequeue: a value was returned
  std::uint64_t value = 0;
};

/// Core-to-core protocol messages (Algorithm 1 newEnqSeg / newDeqSeg).
enum class Handoff : std::uint8_t { kNewEnqSeg, kNewDeqSeg };

/// Protocol events each vault counts (QueueProtocol::count totals them).
enum QueueCount : unsigned {
  kEnqOps,      ///< accepted enqueues
  kEnqBatches,  ///< enqueue service batches
  kDeqOps,      ///< accepted dequeues (incl. empty results)
  kEmptyDequeues,
  /// Ops served by a core holding BOTH special segments (the serialized
  /// regime; see SegmentPlacement::kRoundRobin).
  kCoResidentOps,
  kSegmentsCreated,    ///< newEnqSeg activations
  kSegmentsDestroyed,  ///< exhausted segments freed
  kMaxEnqBatch,        ///< largest enqueue batch: a maximum, not a sum
  kNumQueueCounts,
};

class QueueProtocol {
 public:
  /// Registry metrics are named `<metrics_prefix>.enq_ops` etc.
  QueueProtocol(std::size_t num_vaults, const QueueProtocolOptions& options,
                const std::string& metrics_prefix)
      : options_(options), vaults_(num_vaults), metrics_(metrics_prefix) {
    options_.fat_node_capacity =
        std::max<std::size_t>(1, options_.fat_node_capacity);
    for (std::size_t v = 0; v < num_vaults; ++v) {
      vaults_[v]->ops = &obs::Registry::instance().counter(
          metrics_prefix + ".vault" + std::to_string(v) + ".ops");
    }
  }

  QueueProtocol(const QueueProtocol&) = delete;
  QueueProtocol& operator=(const QueueProtocol&) = delete;

  /// Size the per-vault scratch for batches of up to `n` requests, so a
  /// serving core never allocates.
  void reserve_batches(std::size_t n) {
    for (auto& vs : vaults_) vs->replies.reserve(n);
  }

  /// Role directory: the cores currently holding the enqueue and dequeue
  /// segments. Stands in for the paper's notification broadcast; it may be
  /// stale, which is exactly the race the rejection path absorbs.
  std::size_t enq_core() const noexcept {
    return enq_cid_->load(std::memory_order_acquire);
  }
  std::size_t deq_core() const noexcept {
    return deq_cid_->load(std::memory_order_acquire);
  }
  /// Whether `vault` holds the enqueue segment (asked by its own core).
  bool holds_enq_role(std::size_t vault) const noexcept {
    return vaults_[vault]->enq_seg != nullptr;
  }

  /// Materialize the state Algorithm 1 reaches after enqueueing the values
  /// 0..n-1: a chain of segments round-robined over the vaults, each at most
  /// `segment_threshold` long, with next-segment links in place; the oldest
  /// holds the dequeue role, the youngest the enqueue role. n == 0 is the
  /// initial state of Section 5.1: one empty segment in vault 0 holding
  /// both. Call before any core runs; `port_of(v)` returns a port for v.
  template <class PortOf>
  void prefill(PortOf&& port_of, std::uint64_t n) {
    std::size_t core = 0;
    std::uint64_t next_value = 0;
    Segment* prev = nullptr;
    for (;;) {
      auto port = port_of(core);
      Segment* seg = new_segment(port);
      while (seg->enq_count < options_.segment_threshold && next_value < n) {
        push(port, *seg, next_value++);
        ++seg->enq_count;
      }
      if (prev == nullptr) {
        // Oldest segment: already the dequeue segment, so NOT in segQueue
        // (newDeqSeg pops segments out of segQueue as they take the role).
        vaults_[core]->deq_seg = seg;
        deq_cid_->store(core);
      } else {
        prev->next_seg_cid = core;
        append_to_seg_queue(*vaults_[core], seg);
      }
      prev = seg;
      if (next_value == n) break;
      core = (core + 1) % vaults_.size();
    }
    vaults_[core]->enq_seg = prev;
    enq_cid_->store(core);
  }

  /// Free every resident segment, for bindings whose vault memory outlives
  /// the queue. Call once no core runs any more.
  template <class PortOf>
  void release(PortOf&& port_of) {
    for (std::size_t v = 0; v < vaults_.size(); ++v) {
      auto port = port_of(v);
      VaultState& vs = *vaults_[v];
      // The enqueue segment is in segQueue unless it is the dequeue
      // segment, which left segQueue when it took the role.
      if (vs.deq_seg != nullptr) free_segment(port, vs.deq_seg);
      for (Segment* seg = vs.seg_queue_head; seg != nullptr;) {
        Segment* next = seg->next_in_queue;
        free_segment(port, seg);
        seg = next;
      }
      vs.enq_seg = vs.deq_seg = vs.seg_queue_head = vs.seg_queue_tail =
          nullptr;
    }
  }

  /// Serve `n` enqueues at the port's vault as one fat node's worth of work
  /// (Algorithm 1 lines 9-16; one request is the n == 1 case) and publish
  /// the replies with one shared ready time. Returns false, rejecting all
  /// of them, when this vault does not hold the enqueue role.
  template <class Port, class Request>
  bool serve_enqueues(Port& port, const Request* reqs, std::size_t n) {
    VaultState& vs = *vaults_[port.vault_id()];
    if (vs.enq_seg == nullptr) {
      port.trace("reject");
      const auto ready = port.reply_time();
      for (std::size_t i = 0; i < n; ++i) port.reply(reqs[i], {}, ready);
      return false;
    }
    Segment& seg = *vs.enq_seg;
    port.charge_local(fat_nodes(n));
    for (std::size_t i = 0; i < n; ++i) push(port, seg, reqs[i].value);
    seg.enq_count += n;
    bump(vs, kEnqOps, n);
    bump(vs, kEnqBatches, 1);
    if (vs.deq_seg != nullptr) bump(vs, kCoResidentOps, n);
    if (n > vs.counts[kMaxEnqBatch].load(std::memory_order_relaxed)) {
      vs.counts[kMaxEnqBatch].store(n, std::memory_order_relaxed);
    }
    vs.ops->add(n);
    metrics_.enq_ops.add(n);
    metrics_.enq_batches.add(1);
    metrics_.enq_batch.record(n);
    const auto ready = port.reply_time();
    for (std::size_t i = 0; i < n; ++i) port.reply(reqs[i], {true}, ready);
    port.stall_if_unpipelined();
    if (seg.enq_count > options_.segment_threshold) {
      // Hand the enqueue role off (Algorithm 1 lines 13-16).
      const std::size_t next = place_next_segment(port.vault_id());
      seg.next_seg_cid = next;
      vs.enq_seg = nullptr;
      metrics_.handoffs.add(1);
      port.send(next, Handoff::kNewEnqSeg);
    }
    return true;
  }

  /// Serve `n` dequeues at the port's vault (Algorithm 1 lines 23-35; one
  /// request is the n == 1 case). The popped values are consecutive, so the
  /// batch pays one local access per fat node's worth of them; all replies
  /// share one ready time.
  template <class Port, class Request>
  void serve_dequeues(Port& port, const Request* reqs, std::size_t n) {
    VaultState& vs = *vaults_[port.vault_id()];
    vs.replies.clear();
    std::uint64_t pops = 0;
    for (std::size_t i = 0; i < n; ++i) {
      vs.replies.push_back(pop_one(port, vs));
      pops += vs.replies.back().has_value ? 1 : 0;
    }
    if (pops > 0) port.charge_local(fat_nodes(pops));
    const auto ready = port.reply_time();
    for (std::size_t i = 0; i < n; ++i) port.reply(reqs[i], vs.replies[i], ready);
    if (pops > 0) port.stall_if_unpipelined();
  }

  /// Deliver a hand-off message to the port's vault: newEnqSeg (Algorithm
  /// 1 lines 17-22) opens a fresh enqueue segment here; newDeqSeg (lines
  /// 36-39) gives the dequeue role to this core's oldest segment.
  template <class Port>
  void deliver(Port& port, Handoff h) {
    const std::size_t v = port.vault_id();
    VaultState& vs = *vaults_[v];
    if (h == Handoff::kNewEnqSeg) {
      vs.enq_seg = new_segment(port);
      append_to_seg_queue(vs, vs.enq_seg);
      bump(vs, kSegmentsCreated, 1);
      port.trace("newEnqSeg");
      port.charge_local(1);  // allocation bookkeeping
      enq_cid_->store(v, std::memory_order_release);  // notify the CPUs
      return;
    }
    // Per-channel FIFO delivery guarantees the newEnqSeg that created the
    // next segment (sent earlier on the same channel) was processed first.
    assert(vs.seg_queue_head != nullptr &&
           "newDeqSeg arrived before the matching newEnqSeg");
    vs.deq_seg = vs.seg_queue_head;
    vs.seg_queue_head = vs.deq_seg->next_in_queue;
    if (vs.seg_queue_head == nullptr) vs.seg_queue_tail = nullptr;
    if (options_.fault == QueueFault::kHandoffReorder) {
      // Injected bug: the hand-off "forgot" the segment's order and the new
      // core serves its buffered values newest-first.
      reverse(*vs.deq_seg);
    }
    port.trace("newDeqSeg");
    deq_cid_->store(v, std::memory_order_release);
  }

  /// Racy snapshot of one event count over all vaults.
  std::uint64_t count(QueueCount c) const noexcept {
    std::uint64_t total = 0;
    for (const auto& vs : vaults_) {
      const std::uint64_t n = vs->counts[c].load(std::memory_order_relaxed);
      total = c == kMaxEnqBatch ? std::max(total, n) : total + n;
    }
    return total;
  }

 private:
  /// Values per storage chunk: a chunk (link + values) is 256 bytes, one of
  /// the vault allocator's recycled size classes, ~8.3 bytes per value.
  static constexpr std::uint32_t kChunkValues = 31;

  struct Chunk {
    Chunk* next;  ///< the next-younger chunk
    std::uint64_t values[kChunkValues];
  };

  /// Algorithm 1's segment: its values, oldest first, in a chain of chunks.
  /// A chunk is freed as soon as it is used up, so an empty segment holds
  /// none.
  struct Segment {
    Chunk* tail = nullptr;  ///< oldest chunk (dequeue side); null when empty
    Chunk* head = nullptr;  ///< newest chunk (enqueue side)
    std::uint32_t tail_pos = 0;   ///< next value to pop in `tail`
    std::uint32_t head_fill = 0;  ///< values written into `head`
    std::uint64_t enq_count = 0;  ///< total ever enqueued (threshold check)
    std::size_t next_seg_cid = ~std::size_t{0};
    Segment* next_in_queue = nullptr;  ///< this core's segQueue link
  };

  /// Per-vault state; touched only by that vault's PIM core.
  struct VaultState {
    Segment* enq_seg = nullptr;
    Segment* deq_seg = nullptr;
    Segment* seg_queue_head = nullptr;  ///< oldest segment created here
    Segment* seg_queue_tail = nullptr;
    std::uint64_t deq_serves = 0;     ///< QueueFault::kDoubleServe cadence
    std::vector<QueueReply> replies;  ///< serve_dequeues scratch
    obs::Counter* ops = nullptr;      ///< `<prefix>.vault<k>.ops`
    /// Written only by this vault's core; relaxed atomics so CPU threads
    /// may read a racy snapshot.
    std::atomic<std::uint64_t> counts[kNumQueueCounts] = {};
  };

  static void bump(VaultState& vs, QueueCount c, std::uint64_t n) noexcept {
    // Single writer: a relaxed load and store, no read-modify-write.
    vs.counts[c].store(vs.counts[c].load(std::memory_order_relaxed) + n,
                       std::memory_order_relaxed);
  }

  struct Metrics {
    explicit Metrics(const std::string& prefix)
        : enq_ops(reg().counter(prefix + ".enq_ops")),
          enq_batches(reg().counter(prefix + ".enq_batches")),
          handoffs(reg().counter(prefix + ".segment_handoffs")),
          segs_destroyed(reg().counter(prefix + ".segments_destroyed")),
          enq_batch(reg().histogram(prefix + ".enq_batch")) {}
    static obs::Registry& reg() { return obs::Registry::instance(); }

    obs::Counter& enq_ops;
    obs::Counter& enq_batches;
    obs::Counter& handoffs;  ///< newEnqSeg and newDeqSeg sends
    obs::Counter& segs_destroyed;
    obs::Histogram& enq_batch;
  };

  std::uint64_t fat_nodes(std::uint64_t values) const noexcept {
    return (values + options_.fat_node_capacity - 1) /
           options_.fat_node_capacity;
  }

  std::size_t place_next_segment(std::size_t self) const noexcept {
    const std::size_t k = vaults_.size();
    const std::size_t deq = deq_cid_->load(std::memory_order_relaxed);
    std::size_t next = (self + 1) % k;
    if (k > 1 && options_.placement == SegmentPlacement::kAvoidDequeueCore) {
      if (next == deq) next = (next + 1) % k;
    } else if (k > 1 && options_.placement ==
                            SegmentPlacement::kOppositeDequeueCore) {
      next = (deq + k / 2) % k;
      if (next == deq) next = (next + 1) % k;
    }
    return next;
  }

  /// Pop one value, answer empty, or pass the exhausted dequeue role along
  /// the chain and reject (Algorithm 1 lines 23-35). Charges nothing: the
  /// caller charges the fat-node reads of the whole batch.
  template <class Port>
  QueueReply pop_one(Port& port, VaultState& vs) {
    if (vs.deq_seg == nullptr) {
      port.trace("reject");
      return {};
    }
    Segment& seg = *vs.deq_seg;
    if (seg.tail != nullptr || vs.deq_seg == vs.enq_seg) {
      bump(vs, kDeqOps, 1);
      vs.ops->add(1);
      if (seg.tail == nullptr) {
        // Single-segment case: the queue really is empty right now.
        bump(vs, kEmptyDequeues, 1);
        return {true};
      }
      if (vs.enq_seg != nullptr) bump(vs, kCoResidentOps, 1);
      const std::uint64_t value = seg.tail->values[seg.tail_pos];
      // QueueFault::kDoubleServe: every 64th pop answers without popping,
      // so the next dequeue re-serves the same value.
      if (options_.fault != QueueFault::kDoubleServe ||
          ++vs.deq_serves % 64 != 0) {
        pop(port, seg);
      }
      return {true, true, value};
    }
    // Segment exhausted: pass the dequeue role to the core that created the
    // next segment, free the spent one, and make the CPU retry.
    const std::size_t next = seg.next_seg_cid;
    assert(next < vaults_.size() && "exhausted segment has no successor");
    vs.deq_seg = nullptr;
    free_segment(port, &seg);
    bump(vs, kSegmentsDestroyed, 1);
    metrics_.segs_destroyed.add(1);
    metrics_.handoffs.add(1);
    port.send(next, Handoff::kNewDeqSeg);
    port.trace("reject");
    return {};
  }

  static void append_to_seg_queue(VaultState& vs, Segment* seg) noexcept {
    (vs.seg_queue_tail != nullptr ? vs.seg_queue_tail->next_in_queue
                                  : vs.seg_queue_head) = seg;
    vs.seg_queue_tail = seg;
  }

  template <class Port>
  static Segment* new_segment(Port& port) {
    return ::new (port.allocate(sizeof(Segment))) Segment{};
  }

  template <class Port>
  static void free_segment(Port& port, Segment* seg) {
    while (seg->tail != nullptr) {
      Chunk* next = seg->tail->next;
      port.deallocate(seg->tail, sizeof(Chunk));
      seg->tail = next;
    }
    port.deallocate(seg, sizeof(Segment));
  }

  template <class Port>
  static void push(Port& port, Segment& seg, std::uint64_t value) {
    if (seg.tail == nullptr || seg.head_fill == kChunkValues) {
      auto* chunk = ::new (port.allocate(sizeof(Chunk))) Chunk;
      chunk->next = nullptr;
      if (seg.tail == nullptr) {
        seg.tail = chunk;
        seg.tail_pos = 0;
      } else {
        seg.head->next = chunk;
      }
      seg.head = chunk;
      seg.head_fill = 0;
    }
    seg.head->values[seg.head_fill++] = value;
  }

  template <class Port>
  static void pop(Port& port, Segment& seg) {
    Chunk* spent = seg.tail;
    if (++seg.tail_pos == (spent == seg.head ? seg.head_fill : kChunkValues)) {
      seg.tail = spent->next;  // null when `spent` was the head
      seg.tail_pos = 0;
      port.deallocate(spent, sizeof(Chunk));
    }
  }

  static void reverse(Segment& seg) {
    std::vector<std::uint64_t*> slots;
    for (Chunk* c = seg.tail; c != nullptr; c = c->next) {
      const std::uint32_t end = c == seg.head ? seg.head_fill : kChunkValues;
      for (std::uint32_t i = c == seg.tail ? seg.tail_pos : 0; i < end; ++i) {
        slots.push_back(&c->values[i]);
      }
    }
    for (std::size_t i = 0, j = slots.size(); i + 1 < j; ++i, --j) {
      std::swap(*slots[i], *slots[j - 1]);
    }
  }

  QueueProtocolOptions options_;
  std::vector<CachePadded<VaultState>> vaults_;
  CachePadded<std::atomic<std::size_t>> enq_cid_{0};
  CachePadded<std::atomic<std::size_t>> deq_cid_{0};
  Metrics metrics_;
};

}  // namespace pimds::core
