// PIM-managed FIFO queue (Section 5, Algorithm 1) on the real-thread
// runtime.
//
// The queue is a chain of segments, each resident in some vault. Two roles
// travel along the chain: the ENQUEUE segment (accepts new nodes) and the
// DEQUEUE segment (surrenders nodes); when they sit in different vaults,
// enqueues and dequeues are served by two PIM cores in parallel. The
// vault-side protocol — segments, newEnqSeg/newDeqSeg hand-off, rejection,
// fat-node combining — is core/queue_protocol.hpp, shared with the
// simulator; this class is its runtime binding.
//
// The message path batches at both crossings (Section 5.1 / 5.2):
//  - CPU side: co-located enqueue (and dequeue) requests combine so up to
//    RequestCombiner::kMaxCombine ride one crossbar message;
//  - PIM side: the core receives a whole drained batch from the runtime,
//    serves its enqueues as one fat node's worth of work and its dequeues
//    as consecutive fat-node reads, and pipelines the replies with a shared
//    delivery time (one fat response message).
//
// CPUs learn role locations from a shared directory (standing in for the
// paper's notification broadcast); a stale read leads to a rejected request
// and a retry — the protocol's correctness does not depend on freshness.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/cacheline.hpp"
#include "core/queue_protocol.hpp"
#include "runtime/combiner.hpp"
#include "runtime/system.hpp"

namespace pimds::core {

class PimFifoQueue {
 public:
  /// Protocol options (placement, threshold, fat-node combining — on by
  /// default here — and the mutation faults) plus the CPU-side knobs.
  struct Options : QueueProtocolOptions {
    /// CPU-side request combining: co-located waiting requests ride one
    /// crossbar message (off = one message per request, the seed path).
    bool cpu_combining = true;
    /// Combiner flush linger (see RequestCombiner::set_linger_ns): how long
    /// a flushing leader yields for stragglers before shipping a non-full
    /// batch. Default off: on an oversubscribed host one yield costs a full
    /// scheduler round trip, so the leader overshoots any microsecond-scale
    /// window without gathering anything. Enable only with cores to spare.
    std::uint64_t combine_linger_ns = 0;
  };

  /// Installs handlers on ALL vaults of `system`; construct before start().
  PimFifoQueue(runtime::PimSystem& system, Options options);
  explicit PimFifoQueue(runtime::PimSystem& system);

  PimFifoQueue(const PimFifoQueue&) = delete;
  PimFifoQueue& operator=(const PimFifoQueue&) = delete;

  /// Blocking in the bounded-retry sense: resends on stale-directory
  /// rejections until the owning core accepts.
  void enqueue(std::uint64_t value);

  /// Returns nullopt when the queue is observed empty.
  std::optional<std::uint64_t> dequeue();

  /// Racy stats snapshots.
  std::uint64_t approx_size() const noexcept {
    const std::uint64_t enqs = protocol_.count(kEnqOps);
    const std::uint64_t pops =
        protocol_.count(kDeqOps) - protocol_.count(kEmptyDequeues);
    return enqs >= pops ? enqs - pops : 0;
  }
  std::uint64_t rejections() const noexcept {
    return rejections_.value.load(std::memory_order_relaxed);
  }
  std::uint64_t segments_created() const noexcept {
    return protocol_.count(kSegmentsCreated);
  }
  std::uint64_t segments_destroyed() const noexcept {
    return protocol_.count(kSegmentsDestroyed);
  }
  /// Segments currently resident in the vaults: the initial segment plus
  /// every hand-off-created one, minus those destroyed when exhausted.
  /// After the system quiesces this is exactly what the vaults' net
  /// alloc−free balance must account for (values are all freed on
  /// dequeue), so the shutdown balance assertion compares against it.
  std::uint64_t live_segments() const noexcept {
    return 1 + segments_created() - segments_destroyed();
  }
  /// Largest enqueue batch combined into one fat node so far.
  std::uint64_t max_enqueue_batch() const noexcept {
    return protocol_.count(kMaxEnqBatch);
  }
  /// Largest CPU-side request batch shipped in one message (diagnostics).
  std::uint64_t max_request_batch() const noexcept {
    return std::max(enq_combiner_.max_batch(), deq_combiner_.max_batch());
  }

 private:
  /// One decoded client request: the enqueued value (0 for a dequeue) and
  /// the requester's ResponseSlot<QueueReply>.
  struct Request {
    std::uint64_t value;
    void* slot;
  };

  /// Per-vault scratch of one drain pass; touched only by that vault's core.
  struct Scratch {
    std::vector<Request> enqs;
    std::vector<Request> deqs;
    /// Hand-offs this core sent to itself, delivered after the batch.
    std::vector<Handoff> self_sends;
  };

  class Port;

  /// One client operation: send it (combined or direct) to the core the
  /// directory names, resending on rejection until a core accepts.
  QueueReply call(bool enq, std::uint64_t value);
  void handle_batch(runtime::PimCoreApi& api, const runtime::Message* msgs,
                    std::size_t n);

  runtime::PimSystem& system_;
  Options options_;
  QueueProtocol protocol_;
  std::vector<CachePadded<Scratch>> scratch_;
  runtime::RequestCombiner enq_combiner_;
  runtime::RequestCombiner deq_combiner_;
  CachePadded<std::atomic<std::uint64_t>> rejections_{0};
};

}  // namespace pimds::core
