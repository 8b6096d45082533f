#include "core/pim_fifo_queue.hpp"

#include "obs/obs.hpp"
#include "runtime/fat_arena.hpp"
#include "runtime/mailbox.hpp"

namespace pimds::core {

using runtime::fat_entries;
using runtime::FatEntry;
using runtime::Message;
using runtime::PimCoreApi;
using runtime::release_fat_payload;
using runtime::RequestCombiner;
using runtime::ResponseSlot;

namespace {
enum Kind : std::uint32_t {
  kEnq = 1,
  kDeq = 2,
  kHandoff = 3,   ///< core-to-core; the Handoff rides in Message::value
  kEnqBatch = 4,  ///< CPU-combined enqueues (fat payload in the message)
  kDeqBatch = 5,  ///< CPU-combined dequeues (fat payload in the message)
};
}  // namespace

/// The protocol port on a runtime PIM core (see core/queue_protocol.hpp).
class PimFifoQueue::Port {
 public:
  Port(PimCoreApi& api, std::vector<Handoff>& self_sends)
      : api_(api), self_sends_(self_sends) {}

  std::size_t vault_id() const noexcept { return api_.vault_id(); }

  /// A self-addressed hand-off never enters this core's own bounded
  /// mailbox — only this core drains it, so a full one would deadlock — but
  /// waits in a core-local list delivered after the current batch.
  void send(std::size_t core, Handoff h) {
    if (core == api_.vault_id()) {
      self_sends_.push_back(h);
      return;
    }
    Message m;
    m.kind = kHandoff;
    m.value = static_cast<std::uint64_t>(h);
    api_.send(core, m);
  }
  void charge_local(std::uint64_t n) const { api_.charge_local_access(n); }
  std::uint64_t reply_time() const { return api_.reply_deadline_ns(); }
  void reply(const Request& r, QueueReply reply, std::uint64_t ready) const {
    static_cast<ResponseSlot<QueueReply>*>(r.slot)->publish(reply, ready);
  }
  void stall_if_unpipelined() const { api_.stall_if_unpipelined(); }
  void trace(const char* event) const {
    obs::trace_instant_here(event, "queue", {"vault", api_.vault_id()});
  }
  void* allocate(std::size_t bytes) {
    return api_.vault().allocate(bytes, alignof(std::max_align_t));
  }
  void deallocate(void* p, std::size_t bytes) {
    api_.vault().deallocate(p, bytes, alignof(std::max_align_t));
  }

 private:
  PimCoreApi& api_;
  std::vector<Handoff>& self_sends_;
};

PimFifoQueue::PimFifoQueue(runtime::PimSystem& system)
    : PimFifoQueue(system, Options{}) {}

PimFifoQueue::PimFifoQueue(runtime::PimSystem& system, Options options)
    : system_(system),
      options_(options),
      protocol_(system.num_vaults(), options, "runtime.queue"),
      scratch_(system.num_vaults()) {
  // Scratch sized for a full drain pass up front: a serving core never
  // allocates, so its thread never needs a malloc arena of its own.
  const std::size_t max_requests =
      system.config().drain_batch * runtime::kMaxFatEntries;
  protocol_.reserve_batches(max_requests);
  for (auto& s : scratch_) {
    s->enqs.reserve(max_requests);
    s->deqs.reserve(max_requests);
    s->self_sends.reserve(2);
  }
  enq_combiner_.set_linger_ns(options_.combine_linger_ns);
  deq_combiner_.set_linger_ns(options_.combine_linger_ns);
  // Initial state (Section 5.1): one empty segment in vault 0 holding both
  // roles, allocated before the core threads start.
  PimCoreApi api0(system_, 0);
  protocol_.prefill(
      [&](std::size_t) { return Port(api0, scratch_[0]->self_sends); }, 0);
  for (std::size_t v = 0; v < system_.num_vaults(); ++v) {
    system_.set_batch_handler(
        v, [this](PimCoreApi& api, const Message* msgs, std::size_t n) {
          handle_batch(api, msgs, n);
        });
  }
}

/// One drain pass worth of messages. Enqueues and dequeues are each gathered
/// across the whole batch (Section 5.1 combining) and served together;
/// hand-off messages flush both gathers and are served in arrival order,
/// which preserves the per-channel FIFO the segment hand-off protocol
/// relies on. Reordering enqueues/dequeues behind other senders' operations
/// is linearizable: a CPU thread has at most one request in flight, so all
/// reordered operations are concurrent.
void PimFifoQueue::handle_batch(PimCoreApi& api, const Message* msgs,
                                std::size_t n) {
  static obs::Histogram& deq_batch =
      obs::Registry::instance().histogram("runtime.queue.deq_batch");
  Scratch& s = *scratch_[api.vault_id()];
  Port port(api, s.self_sends);
  const auto flush = [&] {
    if (!s.enqs.empty()) {
      protocol_.serve_enqueues(port, s.enqs.data(), s.enqs.size());
      s.enqs.clear();
    }
    if (!s.deqs.empty()) {
      deq_batch.record(s.deqs.size());
      protocol_.serve_dequeues(port, s.deqs.data(), s.deqs.size());
      s.deqs.clear();
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Message& m = msgs[i];
    switch (m.kind) {
      case kEnqBatch:
      case kDeqBatch: {
        // Already CPU-combined; the batch rides inside the message (inline
        // or spilled) — zero-copy decode.
        std::vector<Request>& gather = m.kind == kEnqBatch ? s.enqs : s.deqs;
        const FatEntry* entries = fat_entries(m);
        for (std::uint16_t j = 0; j < m.fat_count; ++j) {
          gather.push_back(Request{entries[j].value, entries[j].slot});
        }
        release_fat_payload(m);
        break;
      }
      case kEnq:
      case kDeq:
        (m.kind == kEnq ? s.enqs : s.deqs).push_back(Request{m.value, m.slot});
        break;
      default:
        flush();
        protocol_.deliver(port, static_cast<Handoff>(m.value));
        break;
    }
    // Without core-side combining every enqueue message is served on its
    // own (a CPU-combined one still as one fat node).
    if (!options_.enqueue_combining && !s.enqs.empty()) flush();
  }
  flush();
  for (const Handoff h : s.self_sends) protocol_.deliver(port, h);
  s.self_sends.clear();
}

void PimFifoQueue::enqueue(std::uint64_t value) { call(true, value); }

std::optional<std::uint64_t> PimFifoQueue::dequeue() {
  const QueueReply r = call(false, 0);
  if (!r.has_value) return std::nullopt;
  return r.value;
}

QueueReply PimFifoQueue::call(bool enq, std::uint64_t value) {
  ResponseSlot<QueueReply> slot;
  static_assert(sizeof(slot) == kCacheLineSize,
                "a reply hand-off must move exactly one cache line");
  const bool obs_on = obs::metrics_enabled();
  const std::uint64_t rid = obs::trace_enabled() ? obs::next_request_id() : 0;
  const std::uint64_t op_start = (obs_on || rid != 0) ? now_ns() : 0;
  static obs::Counter& rejected =
      obs::Registry::instance().counter("runtime.queue.rejections");
  const auto role_core = [this, enq] {
    return enq ? protocol_.enq_core() : protocol_.deq_core();
  };
  QueueReply r;
  for (;;) {
    if (options_.cpu_combining) {
      RequestCombiner::Entry e{};
      e.kind = enq ? kEnq : kDeq;
      e.value = value;
      e.slot = &slot;
#ifndef PIMDS_OBS_DISABLED
      e.req_id = rid;  // combined ops keep their trace correlation
#endif
      (enq ? enq_combiner_ : deq_combiner_).submit(e, [&](Message& m) {
        m.kind = enq ? kEnqBatch : kDeqBatch;
        system_.send(role_core(), m);
      });
    } else {
      const std::uint64_t attempt_start = obs_on ? now_ns() : 0;
      Message m;
      m.kind = enq ? kEnq : kDeq;
      m.value = value;
      m.slot = &slot;
#ifndef PIMDS_OBS_DISABLED
      m.req_id = rid;
#endif
      system_.send(role_core(), m);
      if (obs_on) {
        obs::record_runtime_phase(obs::Phase::kIssue,
                                  now_ns() - attempt_start);
      }
    }
    r = slot.await();
    if (r.accepted) break;
    rejections_.value.fetch_add(1, std::memory_order_relaxed);
    rejected.add(1);
    obs::trace_instant_here("cpu_retry", "queue");
  }
  if (obs_on) {
    obs::record_runtime_phase(obs::Phase::kTotal, now_ns() - op_start);
  }
  if (rid != 0) {
    obs::trace_complete_here("op", "queue", op_start, {"req", rid},
                             {"enq", enq ? 1u : 0u});
  }
  return r;
}

}  // namespace pimds::core
