// Simulated PIM-managed FIFO queue (Algorithm 1): the PIM cores run the
// shared protocol core (core/queue_protocol.hpp) — the same handlers the
// real-thread runtime ships — through a port onto the simulator's engine
// Context, mailboxes and response slots; the CPU actors, the pre-fill and
// the latency attribution live here.
#include <cassert>
#include <deque>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/ds/queues.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

namespace {

using core::Handoff;
using core::QueueReply;

struct QMsg {
  enum class Kind : std::uint8_t { kEnq, kDeq, kHandoff, kStop };
  Kind kind = Kind::kStop;
  std::uint64_t value = 0;  ///< enqueued value, or the Handoff
  SimSlot<QueueReply>* reply = nullptr;
  // Trace context (obs/phase.hpp): the CPU's virtual send time, so the
  // serving core can attribute the mailbox_queue phase, and the causal
  // request id correlating CPU `op` spans with core-side events. 0 on
  // core-to-core protocol messages, which have no requester.
  Time issue_ns = 0;
  std::uint64_t req = 0;
};

/// The protocol port on a simulated PIM core (see core/queue_protocol.hpp).
/// Hand-offs, self-addressed ones included, travel through the mailboxes
/// and pay Lmessage like any other message.
struct SimPort {
  std::vector<Mailbox<QMsg>>* inboxes;
  Context* ctx;  ///< null until the core's fiber runs (pre-fill allocates only)
  std::size_t vault;
  double msg_ns;
  bool pipelining;
  /// Start of the current request's service: bounds its vault_service phase.
  Time serve_start = 0;

  std::size_t vault_id() const noexcept { return vault; }
  void send(std::size_t core, Handoff h) {
    (*inboxes)[core].send(
        *ctx, QMsg{QMsg::Kind::kHandoff, static_cast<std::uint64_t>(h)});
  }
  void charge_local(std::uint64_t n) { ctx->charge(MemClass::kPimLocal, n); }
  Time reply_time() const { return ctx->now() + static_cast<Time>(msg_ns); }
  void reply(const QMsg& req, QueueReply r, Time ready) {
    req.reply->set(*ctx, r, static_cast<double>(ready - ctx->now()));
    // Per-op attribution: the reply closes the request's vault_service
    // phase and adds the response_flight leg. In virtual time the phases
    // tile the requester's end-to-end latency exactly.
    if (req.issue_ns == 0) return;
    obs::record_sim_phase(obs::Phase::kVaultService, ctx->now() - serve_start);
    obs::record_sim_phase(obs::Phase::kResponseFlight,
                          static_cast<Time>(msg_ns));
  }
  void stall_if_unpipelined() {
    if (!pipelining) ctx->advance(msg_ns);
  }
  void trace(const char* event) { ctx->trace_instant(event, {"vault", vault}); }
  static void* allocate(std::size_t bytes) { return ::operator new(bytes); }
  static void deallocate(void* p, std::size_t) { ::operator delete(p); }
};

}  // namespace

PimQueueResult run_pim_queue(const QueueConfig& cfg,
                             const PimQueueOptions& opts) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);
  const std::size_t k = opts.num_vaults;
  assert(k >= 1);
  const double msg_ns = cfg.params.message();
  const std::size_t total_cpus = cfg.enqueuers + cfg.dequeuers;

  std::vector<Mailbox<QMsg>> inboxes(k);
  core::QueueProtocol queue(k, opts, "sim.pim_queue");
  const auto port_of = [&](std::size_t v) {
    return SimPort{&inboxes, nullptr, v, msg_ns, opts.pipelining};
  };
  // Pre-fill: materialize the state Algorithm 1 would have reached after
  // `initial_nodes` enqueues.
  queue.prefill(port_of, cfg.initial_nodes);

  PimQueueResult result;
  // Registry metrics (accumulate across runs in one process; benches that
  // want per-run numbers call Registry::reset() between runs).
  auto& registry = obs::Registry::instance();
  obs::Counter& c_rejections = registry.counter("sim.pim_queue.rejections");
  obs::Histogram& h_latency =
      registry.histogram("sim.pim_queue.op_latency_ns");

  for (std::size_t v = 0; v < k; ++v) {
    engine.spawn("pim-core" + std::to_string(v), [&, v](Context& ctx) {
      Mailbox<QMsg>& inbox = inboxes[v];
      SimPort port = port_of(v);
      port.ctx = &ctx;
      std::size_t stopped = 0;
      // Non-enqueue messages picked up while draining an enqueue batch
      // (Section 5.1 fat-node combining) are replayed in arrival order.
      std::deque<QMsg> replay;
      std::vector<QMsg> batch;
      // The serve start bounds each request's inbound leg: split exactly
      // into the Lmessage request_flight and the queueing remainder,
      // mailbox_queue.
      const auto record_arrival = [&](const QMsg& req_msg) {
        if (req_msg.issue_ns == 0) return;
        const Time wait = ctx.now() - req_msg.issue_ns;
        const Time flight = wait < static_cast<Time>(msg_ns)
                                ? wait
                                : static_cast<Time>(msg_ns);
        obs::record_sim_phase(obs::Phase::kRequestFlight, flight);
        obs::record_sim_phase(obs::Phase::kMailboxQueue, wait - flight);
        if (req_msg.req != 0 && obs::trace_enabled()) {
          ctx.trace_instant("req_dispatch", {"req", req_msg.req},
                            {"wait_ns", ctx.now() - req_msg.issue_ns});
        }
      };
      while (stopped < total_cpus) {
        QMsg m;
        if (!replay.empty()) {
          m = replay.front();
          replay.pop_front();
        } else {
          m = inbox.recv(ctx);
        }
        port.serve_start = ctx.now();
        record_arrival(m);
        switch (m.kind) {
          case QMsg::Kind::kEnq:
            if (opts.enqueue_combining && queue.holds_enq_role(v)) {
              // Drain every already-delivered enqueue into one fat node;
              // anything else goes to the replay queue. Batch members are
              // served now, so their arrival is recorded here.
              batch.assign(1, m);
              while (auto more = inbox.try_recv(ctx)) {
                if (more->kind == QMsg::Kind::kEnq) {
                  record_arrival(*more);
                  batch.push_back(*more);
                } else {
                  replay.push_back(*more);
                }
              }
              queue.serve_enqueues(port, batch.data(), batch.size());
              ctx.trace_complete("drain_batch", port.serve_start,
                                 {"n", batch.size()});
            } else if (queue.serve_enqueues(port, &m, 1) &&
                       obs::trace_enabled()) {
              ctx.trace_complete("vault_service", port.serve_start,
                                 {"vault", v});
            }
            break;
          case QMsg::Kind::kDeq:
            queue.serve_dequeues(port, &m, 1);
            break;
          case QMsg::Kind::kHandoff:
            queue.deliver(port, static_cast<Handoff>(m.value));
            break;
          case QMsg::Kind::kStop:
            ++stopped;
            break;
        }
      }
    });
  }

  std::uint64_t total_ops = 0;
  spawn_queue_clients(
      engine, cfg, total_ops,
      [&](Context& ctx, bool is_enq, std::uint64_t value,
          Time issued) -> std::uint64_t {
        const std::uint64_t rid =
            obs::trace_enabled() ? obs::next_request_id() : 0;
        SimSlot<QueueReply> reply;
        QueueReply r;
        for (;;) {
          // A rejected CPU re-reads the directory and resends the same
          // request.
          const std::size_t target =
              is_enq ? queue.enq_core() : queue.deq_core();
          inboxes[target].send(
              ctx, QMsg{is_enq ? QMsg::Kind::kEnq : QMsg::Kind::kDeq, value,
                        &reply, ctx.now(), rid});
          r = reply.await(ctx);
          if (r.accepted) break;
          ++result.rejections;
          c_rejections.add(1);
          ctx.trace_instant("cpu_retry", {"target", target});
        }
        h_latency.record(ctx.now() - issued);
        // End-to-end reference for the attribution report: across every
        // attempt the wait/service/flight phases tile [issued, now] exactly
        // (virtual time), so sum(phases) == sum(total) up to CPU-side gaps.
        obs::record_sim_phase(obs::Phase::kTotal, ctx.now() - issued);
        if (rid != 0) {
          ctx.trace_complete("op", issued, {"req", rid},
                             {"enq", is_enq ? 1u : 0u});
        }
        if (is_enq) return check::kRetTrue;
        return r.has_value ? r.value : check::kRetEmpty;
      },
      [&](Context& ctx) {
        for (Mailbox<QMsg>& inbox : inboxes) inbox.send(ctx, QMsg{});
      });

  engine.run();
  queue.release(port_of);
  result.run = {total_ops, cfg.duration_ns};
  result.segments_created = queue.count(core::kSegmentsCreated);
  result.empty_dequeues = queue.count(core::kEmptyDequeues);
  result.co_resident_ops = queue.count(core::kCoResidentOps);
  result.enq_ops = queue.count(core::kEnqOps);
  result.deq_ops = queue.count(core::kDeqOps);
  result.enq_batches = queue.count(core::kEnqBatches);
  return result;
}

}  // namespace pimds::sim
