// CPU-side request combining (the Section 4.1 combining optimization,
// mirrored on the native runtime's request path; the simulator twin is
// sim/flat_combining.hpp).
//
// Co-located CPU threads targeting the same PIM core share one combiner;
// whoever holds its (try-lock) combiner role gathers up to kMaxCombine
// requests into one fat Message and ships the whole batch across the
// crossbar as ONE message — the batch-per-crossing shape. The PIM core
// serves every entry and publishes each requester's response slot with one
// shared ready_ns: the batch's single fat response message.
//
// The batch travels zero-copy inside the Message itself (runtime/
// message.hpp): up to kMessageInlineFat entries ride inline (SBO), larger
// batches borrow a pooled FatArena block — either way the flush path does
// no per-op heap allocation. Each entry carries its requester's req_id, so
// combined ops keep their trace correlation.
//
// A requester first tries the combiner role outright (test-and-test-and-
// set). The winner ships its own entry first, then whatever records are
// already queued, in one message — uncontended, that is one lock line and
// the send, with no queue round trip of its own record. Only a loser
// publishes a record; one picked up by another thread's flush just waits
// on its own slot, and one left behind (batch filled up) keeps competing
// for the combiner role until it has been shipped, so no request can be
// stranded.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/cacheline.hpp"
#include "common/mpmc_queue.hpp"
#include "common/spinwait.hpp"
#include "common/timing.hpp"
#include "obs/phase.hpp"
#include "runtime/fat_arena.hpp"
#include "runtime/message.hpp"

namespace pimds::runtime {

class RequestCombiner {
 public:
  /// Cap on requests per crossbar message. 16 keys the batch at a few cache
  /// lines — the "fat node" regime of Section 5.1.
  static constexpr std::size_t kMaxCombine = kMaxFatEntries;

  /// One combined request: the fat-message entry itself (zero-copy — what
  /// a requester submits is exactly what the PIM core decodes).
  using Entry = FatEntry;

  explicit RequestCombiner(std::size_t queue_capacity = 1024)
      : queue_(queue_capacity) {}

  /// Flush linger: a leader whose first pop sweep came up short of
  /// kMaxCombine yields for up to this window picking up stragglers before
  /// shipping. Under latency injection, co-located requesters released by
  /// one fat response wake microseconds to tens of microseconds apart —
  /// a bounded linger re-clusters that scheduler dispersion into one fat
  /// message, and the vault then charges one local access for the lot.
  /// The leader yields (not spins) through the window, so the linger costs
  /// scheduler handoffs, not CPU. 0 (default) ships immediately. Caveat:
  /// when runnable threads outnumber cores, one yield alone can overshoot
  /// the whole window, so the linger only helps with cores to spare.
  void set_linger_ns(std::uint64_t ns) noexcept { linger_ns_ = ns; }

  RequestCombiner(const RequestCombiner&) = delete;
  RequestCombiner& operator=(const RequestCombiner&) = delete;

  /// Ship `entry` in some batch (ours or another thread's) and return once
  /// it is on the wire. The caller then awaits its response slot.
  /// `send` receives a Message whose fat payload holds the batch; it must
  /// set the opcode and transmit it (payload ownership moves with it — the
  /// receiver releases any spill via release_fat_payload).
  template <typename SendFn>
  void submit(const Entry& entry, SendFn&& send) {
    // The combiner_wait phase: submission to "shipped in some batch". On
    // the combined path this subsumes the issue phase (the structure's op
    // wrapper records issue only on the direct-send path, so the two never
    // double-count).
    const std::uint64_t t0 = obs::metrics_enabled() ? now_ns() : 0;
    if (try_lock()) {
      flush(&entry, send);
      unlock();
    } else {
      Record rec{};
      rec.entry = entry;
      queue_.push(&rec);
      SpinWait spin;
      while (!rec.shipped.load(std::memory_order_acquire)) {
        if (try_lock()) {
          flush(nullptr, send);
          unlock();
          spin.reset();
        } else {
          spin.wait();
        }
      }
    }
    if (t0 != 0) {
      obs::record_runtime_phase(obs::Phase::kCombinerWait, now_ns() - t0);
    }
  }

  /// Diagnostics.
  std::uint64_t batches_sent() const noexcept {
    return lock_.batches.load(std::memory_order_relaxed);
  }
  std::uint64_t requests_combined() const noexcept {
    return lock_.combined.load(std::memory_order_relaxed);
  }
  std::uint64_t max_batch() const noexcept {
    return lock_.max_batch.load(std::memory_order_relaxed);
  }

 private:
  /// A published request: the entry the flusher copies out and the flag it
  /// then sets share one line, so a hand-off touches one requester line.
  struct alignas(kCacheLineSize) Record {
    Entry entry;
    std::atomic<bool> shipped{false};
  };
  static_assert(sizeof(Record) == kCacheLineSize);

  /// The combiner lock and the stats only its holder writes: one line, so
  /// the holder's bookkeeping rides the line it already owns.
  struct alignas(kCacheLineSize) LockLine {
    std::atomic<bool> locked{false};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> combined{0};
    std::atomic<std::uint64_t> max_batch{0};
  };

  /// Test-and-test-and-set: a plain load keeps a contended lock line
  /// shared instead of bouncing it with failed exchanges.
  bool try_lock() noexcept {
    return !lock_.locked.load(std::memory_order_relaxed) &&
           !lock_.locked.exchange(true, std::memory_order_acquire);
  }
  void unlock() noexcept {
    lock_.locked.store(false, std::memory_order_release);
  }

  /// Lock held. Ships `own` (if any) first, then queued records, up to
  /// kMaxCombine in one message.
  template <typename SendFn>
  void flush(const Entry* own, SendFn&& send) {
    Record* picked[kMaxCombine];
    const std::uint32_t first = own != nullptr ? 1 : 0;
    std::uint32_t n = first;
    while (n < kMaxCombine) {
      std::optional<Record*> r = queue_.try_pop();
      if (!r) break;
      picked[n++] = *r;
    }
    if (n == 0) return;
    if (n < kMaxCombine && linger_ns_ != 0) {
      const std::uint64_t deadline = now_ns() + linger_ns_;
      while (n < kMaxCombine && now_ns() < deadline) {
        if (std::optional<Record*> r = queue_.try_pop()) {
          picked[n++] = *r;
        } else {
          std::this_thread::yield();
        }
      }
    }
    Message m;
    m.fat_count = static_cast<std::uint16_t>(n);
    FatEntry* entries = m.fat.inline_;
    if (n > kMessageInlineFat) {
      m.fat_spilled = 1;
      m.fat.spill = FatArena::instance().acquire();
      entries = m.fat.spill;
    }
    if (own != nullptr) entries[0] = *own;
    for (std::uint32_t i = first; i < n; ++i) entries[i] = picked[i]->entry;
    send(m);  // payload ownership moves to the PIM core
    // Only after the batch is on the wire may the requesters stop waiting
    // (their records are stack-allocated in submit()).
    for (std::uint32_t i = first; i < n; ++i) {
      picked[i]->shipped.store(true, std::memory_order_release);
    }
    // Holder-only writers: relaxed load+store, no read-modify-write.
    lock_.batches.store(lock_.batches.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    lock_.combined.store(lock_.combined.load(std::memory_order_relaxed) + n,
                         std::memory_order_relaxed);
    if (n > lock_.max_batch.load(std::memory_order_relaxed)) {
      lock_.max_batch.store(n, std::memory_order_relaxed);
    }
  }

  MpmcQueue<Record*> queue_;
  std::uint64_t linger_ns_ = 0;
  LockLine lock_;
};

}  // namespace pimds::runtime
