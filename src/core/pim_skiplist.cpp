#include "core/pim_skiplist.hpp"

#include <cassert>

#include "obs/obs.hpp"
#include "runtime/mailbox.hpp"

namespace pimds::core {

using runtime::Message;
using runtime::PimCoreApi;
using runtime::ResponseSlot;

/// The migration protocol's port on a runtime PIM core (see
/// core/migration_protocol.hpp).
class PimSkipList::Port {
 public:
  Port(PimSkipList& list, PimCoreApi& api)
      : api_(api), vs_(*list.vaults_[api.vault_id()]), list_(list) {}

  std::size_t vault_id() const noexcept { return api_.vault_id(); }

  bool execute(const Message& m) {
    list_.loadmap_.record(api_.vault_id(), m.key);
    assert(m.kind == kAdd || m.kind == kRemove || m.kind == kContains);
    std::uint64_t steps = 0;
    LocalSkipList& list = *vs_.list;
    const bool result = m.kind == kAdd      ? list.add(m.key, &steps)
                        : m.kind == kRemove ? list.remove(m.key, &steps)
                                            : list.contains(m.key, &steps);
    if (result && m.kind == kAdd) {
      vs_.keys.value.fetch_add(1, std::memory_order_relaxed);
    } else if (result && m.kind == kRemove) {
      vs_.keys.value.fetch_sub(1, std::memory_order_relaxed);
    }
    api_.charge_local_access(steps);
    return result;
  }
  std::optional<std::uint64_t> first_at_least(std::uint64_t key) const {
    return vs_.list->first_at_least(key);
  }
  void extract(std::uint64_t cursor) {
    std::uint64_t steps = 0;
    vs_.list->extract_first_at_least(cursor, &steps);
    api_.charge_local_access(steps);
    vs_.keys.value.fetch_sub(1, std::memory_order_relaxed);
  }
  void begin_incoming() { vs_.incoming_cursor = {}; }
  void insert_migrated(std::uint64_t key) {
    std::uint64_t steps = 0;
    const bool inserted =
        vs_.list->insert_ascending(vs_.incoming_cursor, key, &steps);
    api_.charge_local_access(steps);
    assert(inserted && "migrated key already present at target");
    (void)inserted;
    vs_.keys.value.fetch_add(1, std::memory_order_relaxed);
  }
  void send(std::size_t core, const MigMsg& mm) {
    Message m;
    m.kind = kMigBegin + static_cast<std::uint32_t>(mm.kind);
    m.key = mm.key;
    m.value = mm.hi;
    api_.send(core, m);  // stamps m.sender, which carries mm.from
  }
  void forward(std::size_t core, const Message& req) {
    Message fwd = req;
    fwd.kind = req.kind + (kFwdAdd - kAdd);
    api_.send(core, fwd);
  }
  void reply(const Message& req, SetReply r) {
    static_cast<ResponseSlot<SetReply>*>(req.slot)->publish(
        r, api_.reply_ready_ns());
  }
  void trace(const char* event, obs::TraceArg a, obs::TraceArg b) const {
    obs::trace_instant_here(event, "skiplist", a, b);
  }

 private:
  PimCoreApi& api_;
  VaultState& vs_;
  PimSkipList& list_;
};

PimSkipList::PimSkipList(runtime::PimSystem& system)
    : PimSkipList(system, Options{}) {}

PimSkipList::PimSkipList(runtime::PimSystem& system, Options options)
    : system_(system),
      options_(options),
      protocol_(system.num_vaults(), options.key_min, options.key_max,
                options.migrate_chunk, RebalanceFault::kNone,
                "runtime.skiplist"),
      loadmap_({.num_vaults = system.num_vaults(),
                .key_min = options.key_min,
                .key_max = options.key_max,
                .registry_prefix = "skiplist"}) {
  combine_range_ = std::make_unique<std::atomic<std::uint8_t>[]>(
      loadmap_.options().num_ranges);  // value-initialized: all off
  for (std::size_t v = 0; v < system_.num_vaults(); ++v) {
    combiners_.push_back(std::make_unique<runtime::RequestCombiner>());
    auto state = std::make_unique<VaultState>();
    // Every vault's local sentinel is the GLOBAL minimum (key_min - 1), not
    // its initial partition bound: migrations may later hand this vault a
    // range below the range it started with (Section 4.2.1), and the local
    // structure must be able to hold any key. Range routing is the
    // directory's job, not the local skip-list's.
    state->list = std::make_unique<LocalSkipList>(
        system_.vault(v), options_.key_min - 1, options_.seed + v);
    vaults_.push_back(std::move(state));
    // Batch handler: ride the runtime's batched mailbox drain (no per-
    // message head-of-line stall) but serve strictly in arrival order —
    // the migration protocol (kMigNode/kMigEnd vs. forwarded ops) depends
    // on per-channel FIFO, so no reordering or cross-message combining.
    system_.set_batch_handler(
        v, [this](PimCoreApi& api, const Message* msgs, std::size_t n) {
          Port port(*this, api);
          for (std::size_t i = 0; i < n; ++i) handle(port, msgs[i]);
        });
    system_.set_idle_handler(v, [this](PimCoreApi& api) {
      Port port(*this, api);
      return protocol_.step_migration(port);
    });
  }
}

bool PimSkipList::submit(Kind kind, std::uint64_t key) {
  assert(key >= options_.key_min && key <= options_.key_max &&
         "key outside the configured range");
  ResponseSlot<SetReply> slot;
  static_assert(sizeof(slot) == kCacheLineSize,
                "a reply hand-off must move exactly one cache line");
  for (;;) {
    const std::size_t vault = protocol_.directory().route(key);
    if (range_combining(key)) {
      runtime::RequestCombiner::Entry entry{};
      entry.kind = kind;
      entry.key = key;
      entry.slot = &slot;
      combiners_[vault]->submit(entry, [this, vault](Message& m) {
        m.kind = kOpBatch;
        system_.send(vault, m);
      });
    } else {
      Message m;
      m.kind = kind;
      m.key = key;
      m.slot = &slot;
      system_.send(vault, m);
    }
    const SetReply r = slot.await();
    if (r.accepted) return r.result;
    // Stale routing: the partition moved; the directory has (or will have)
    // the new owner. A combined entry routed on a stale read is rejected
    // per-op by the vault's owned-ranges gate, so the retry here re-routes
    // it exactly like a direct send.
  }
}

std::uint64_t PimSkipList::combined_batches() const noexcept {
  std::uint64_t n = 0;
  for (const auto& c : combiners_) n += c->batches_sent();
  return n;
}

std::uint64_t PimSkipList::combined_ops() const noexcept {
  std::uint64_t n = 0;
  for (const auto& c : combiners_) n += c->requests_combined();
  return n;
}

bool PimSkipList::add(std::uint64_t key) { return submit(kAdd, key); }
bool PimSkipList::remove(std::uint64_t key) { return submit(kRemove, key); }
bool PimSkipList::contains(std::uint64_t key) {
  return submit(kContains, key);
}

bool PimSkipList::migrate(std::uint64_t split_key, std::size_t to_vault) {
  if (to_vault >= system_.num_vaults() || split_key < options_.key_min ||
      split_key > options_.key_max) {
    return false;
  }
  if (!protocol_.try_claim_migration()) return false;  // one at a time
  const SentinelDirectory::Range range =
      protocol_.directory().partition_of(split_key);
  if (range.vault == to_vault) {
    protocol_.release_migration();
    return false;
  }
  ResponseSlot<SetReply> slot;
  Message m;
  m.kind = kMigStart;
  m.key = split_key;
  m.value = range.hi;
  m.sender = static_cast<std::uint32_t>(to_vault);
  m.slot = &slot;
  system_.send(range.vault, m);
  if (!slot.await().accepted) {
    protocol_.release_migration();
    return false;
  }
  return true;
}

void PimSkipList::handle(Port& port, const Message& m) {
  switch (m.kind) {
    case kAdd:
    case kRemove:
    case kContains:
      protocol_.serve(port, m);
      break;
    case kFwdAdd:
    case kFwdRemove:
    case kFwdContains: {
      Message op = m;
      op.kind = m.kind - (kFwdAdd - kAdd);
      protocol_.serve_forwarded(port, op);
      break;
    }
    case kOpBatch: {
      // Combined direct ops: decode each fat entry into a plain op message
      // and run it through the normal gate. The migration semantics hold
      // per entry (execute / forward / defer / reject individually); a
      // deferred entry is copied into the deferred list by value, so the
      // fat payload can be released as soon as the loop is done.
      const runtime::FatEntry* entries = runtime::fat_entries(m);
      for (std::uint16_t j = 0; j < m.fat_count; ++j) {
        Message op;
        op.kind = entries[j].kind;
        op.key = entries[j].key;
        op.slot = entries[j].slot;
#ifndef PIMDS_OBS_DISABLED
        op.req_id = entries[j].req_id;
#endif
        protocol_.serve(port, op);
      }
      runtime::release_fat_payload(m);
      break;
    }
    case kMigStart:
      // The CPU names the target in `sender` and the range end in `value`.
      protocol_.start(port, m, m.key, m.value, m.sender);
      break;
    case kMigBegin:
    case kMigNode:
    case kMigEnd:
      protocol_.deliver(
          port, MigMsg{static_cast<MigKind>(m.kind - kMigBegin), m.key,
                       m.value, m.sender});
      break;
    default:
      assert(false && "unknown skip-list opcode");
  }
  // Drive an outgoing migration forward even under request load.
  protocol_.step_migration(port);
}

std::vector<PimSkipList::VaultStats> PimSkipList::vault_stats() const {
  std::vector<VaultStats> out;
  out.reserve(vaults_.size());
  for (const auto& vs : vaults_) {
    out.push_back({vs->keys.value.load(std::memory_order_relaxed),
                   protocol_.count(kRequests, out.size())});
  }
  return out;
}

std::size_t PimSkipList::size() const noexcept {
  std::size_t total = 0;
  for (const auto& vs : vaults_) {
    total += vs->keys.value.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace pimds::core
