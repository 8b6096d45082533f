// The shared Algorithm 1 protocol core (core/queue_protocol.hpp) driven
// through a recording fake port: every send, charge, reply, stall and trace
// the handlers make is asserted exactly, with no runtime or simulator
// underneath. Then the runtime binding on real threads with the protocol's
// mutation faults switched on, which the queue linearizability checker must
// flag.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "check/linearizability.hpp"
#include "core/pim_fifo_queue.hpp"
#include "core/queue_protocol.hpp"

namespace pimds::core {
namespace {

struct Request {
  std::uint64_t value;
  int id;
};

struct Sent {
  std::size_t core;
  Handoff h;
  bool operator==(const Sent&) const = default;
};

struct Replied {
  int id;
  bool accepted;
  bool has_value;
  std::uint64_t value;
  int batch;  ///< reply_time() call it shared
  bool operator==(const Replied&) const = default;
};

/// Everything the handlers did through the port, in order.
struct Log {
  std::vector<Sent> sends;
  std::vector<std::uint64_t> charges;
  std::vector<Replied> replies;
  std::vector<std::string> traces;
  int batches = 0;
  int stalls = 0;
  std::pmr::monotonic_buffer_resource memory;

  void clear() {
    sends.clear();
    charges.clear();
    replies.clear();
    traces.clear();
    batches = 0;
    stalls = 0;
  }
};

struct FakePort {
  Log* log;
  std::size_t vault;

  std::size_t vault_id() const { return vault; }
  void send(std::size_t core, Handoff h) { log->sends.push_back({core, h}); }
  void charge_local(std::uint64_t n) { log->charges.push_back(n); }
  int reply_time() { return ++log->batches; }
  void reply(const Request& r, QueueReply q, int batch) {
    log->replies.push_back({r.id, q.accepted, q.has_value, q.value, batch});
  }
  void stall_if_unpipelined() { ++log->stalls; }
  void trace(const char* event) { log->traces.emplace_back(event); }
  void* allocate(std::size_t bytes) { return log->memory.allocate(bytes); }
  void deallocate(void*, std::size_t) {}
};

/// Two vaults, segments of 2, default (opposite-dequeue-core) placement,
/// started from the initial state: one empty segment in vault 0 holding
/// both roles.
class QueueProtocolTest : public ::testing::Test {
 protected:
  QueueProtocolTest() : queue_(2, options(), "test_queue_protocol") {
    queue_.prefill([&](std::size_t v) { return port(v); }, 0);
  }

  static QueueProtocolOptions options() {
    QueueProtocolOptions o;
    o.segment_threshold = 2;
    return o;
  }

  FakePort port(std::size_t v) { return FakePort{&log_, v}; }

  bool enqueue(std::size_t v, std::vector<Request> reqs) {
    FakePort p = port(v);
    return queue_.serve_enqueues(p, reqs.data(), reqs.size());
  }
  void dequeue(std::size_t v, std::vector<Request> reqs) {
    FakePort p = port(v);
    queue_.serve_dequeues(p, reqs.data(), reqs.size());
  }
  void deliver(std::size_t v, Handoff h) {
    FakePort p = port(v);
    queue_.deliver(p, h);
  }

  Log log_;
  QueueProtocol queue_;
};

TEST_F(QueueProtocolTest, EnqueueCrossingTheThresholdHandsOff) {
  ASSERT_TRUE(enqueue(0, {{10, 0}, {11, 1}, {12, 2}}));
  // One fat node's worth of work, one shared ready time, one stall (the
  // replies carried work), then newEnqSeg to the core opposite the dequeue
  // core (vault 0 of 2 -> vault 1).
  EXPECT_EQ(log_.charges, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(log_.replies, (std::vector<Replied>{{0, true, false, 0, 1},
                                                {1, true, false, 0, 1},
                                                {2, true, false, 0, 1}}));
  EXPECT_EQ(log_.stalls, 1);
  EXPECT_EQ(log_.sends, (std::vector<Sent>{{1, Handoff::kNewEnqSeg}}));
  EXPECT_FALSE(queue_.holds_enq_role(0));
  EXPECT_EQ(queue_.enq_core(), 0u);  // until the successor takes the role

  log_.clear();
  deliver(1, Handoff::kNewEnqSeg);
  EXPECT_EQ(log_.charges, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(log_.traces, (std::vector<std::string>{"newEnqSeg"}));
  EXPECT_TRUE(log_.sends.empty());
  EXPECT_EQ(queue_.enq_core(), 1u);
  EXPECT_EQ(queue_.count(kSegmentsCreated), 1u);
  EXPECT_EQ(queue_.count(kEnqOps), 3u);
  EXPECT_EQ(queue_.count(kMaxEnqBatch), 3u);
}

TEST_F(QueueProtocolTest, ExhaustedDequeueSegmentHandsOffAndRejects) {
  ASSERT_TRUE(enqueue(0, {{10, 0}, {11, 1}, {12, 2}}));
  deliver(1, Handoff::kNewEnqSeg);
  log_.clear();

  dequeue(0, {{0, 3}, {0, 4}, {0, 5}, {0, 6}});
  // Three pops, then the spent segment passes the dequeue role to the core
  // holding the next segment and the fourth request is rejected. The pops
  // are charged as one fat node after the batch; all replies share one
  // ready time.
  EXPECT_EQ(log_.sends, (std::vector<Sent>{{1, Handoff::kNewDeqSeg}}));
  EXPECT_EQ(log_.charges, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(log_.replies, (std::vector<Replied>{{3, true, true, 10, 1},
                                                {4, true, true, 11, 1},
                                                {5, true, true, 12, 1},
                                                {6, false, false, 0, 1}}));
  EXPECT_EQ(log_.stalls, 1);
  EXPECT_EQ(log_.traces, (std::vector<std::string>{"reject"}));
  EXPECT_EQ(queue_.count(kSegmentsDestroyed), 1u);

  log_.clear();
  deliver(1, Handoff::kNewDeqSeg);
  EXPECT_EQ(queue_.deq_core(), 1u);
  EXPECT_TRUE(log_.charges.empty());
  // Vault 1 now holds both roles over an empty segment: a dequeue there is
  // accepted as empty, costing no access and no stall.
  log_.clear();
  dequeue(1, {{0, 7}});
  EXPECT_TRUE(log_.charges.empty());
  EXPECT_EQ(log_.replies, (std::vector<Replied>{{7, true, false, 0, 1}}));
  EXPECT_EQ(log_.stalls, 0);
  EXPECT_EQ(queue_.count(kEmptyDequeues), 1u);
  EXPECT_EQ(queue_.count(kDeqOps), 4u);
}

TEST_F(QueueProtocolTest, SelfAddressedHandoffGoesThroughSend) {
  // Walk the roles apart: enqueue role on vault 0, dequeue role on vault 1.
  ASSERT_TRUE(enqueue(0, {{10, 0}, {11, 1}, {12, 2}}));
  deliver(1, Handoff::kNewEnqSeg);
  dequeue(0, {{0, 3}, {0, 4}, {0, 5}, {0, 6}});
  deliver(1, Handoff::kNewDeqSeg);
  ASSERT_TRUE(enqueue(1, {{13, 7}, {14, 8}, {15, 9}}));
  deliver(0, Handoff::kNewEnqSeg);
  ASSERT_EQ(queue_.enq_core(), 0u);
  ASSERT_EQ(queue_.deq_core(), 1u);

  // The core opposite the dequeue core (1) is vault 0 itself: the hand-off
  // is still a send, and the role stays released until it is delivered.
  log_.clear();
  ASSERT_TRUE(enqueue(0, {{16, 10}, {17, 11}, {18, 12}}));
  EXPECT_EQ(log_.sends, (std::vector<Sent>{{0, Handoff::kNewEnqSeg}}));
  EXPECT_FALSE(queue_.holds_enq_role(0));
  EXPECT_FALSE(enqueue(0, {{19, 13}}));

  deliver(0, Handoff::kNewEnqSeg);
  EXPECT_TRUE(enqueue(0, {{19, 14}}));
  EXPECT_EQ(queue_.count(kSegmentsCreated), 3u);
}

TEST_F(QueueProtocolTest, StaleRoleRequestsAreRejected) {
  // Vault 1 holds neither role: both request kinds bounce back at no cost.
  EXPECT_FALSE(enqueue(1, {{10, 0}, {11, 1}}));
  dequeue(1, {{0, 2}});
  EXPECT_EQ(log_.replies, (std::vector<Replied>{{0, false, false, 0, 1},
                                                {1, false, false, 0, 1},
                                                {2, false, false, 0, 2}}));
  EXPECT_TRUE(log_.charges.empty());
  EXPECT_TRUE(log_.sends.empty());
  EXPECT_EQ(log_.stalls, 0);
  EXPECT_EQ(log_.traces, (std::vector<std::string>{"reject", "reject"}));
  EXPECT_EQ(queue_.count(kEnqOps) + queue_.count(kDeqOps), 0u);
}

/// The runtime queue on real threads with a protocol fault: two producers
/// fill the queue through small segments, then two consumers drain it. The
/// fill completes first so every segment is full when it takes the dequeue
/// role, and each kHandoffReorder reversal is visible. The final drain
/// records its empty dequeue, so a lost value is a violation too.
check::CheckResult run_runtime_queue(QueueFault fault) {
  runtime::PimSystem::Config config;
  config.num_vaults = 2;
  runtime::PimSystem system(config);
  PimFifoQueue::Options options;
  options.segment_threshold = 32;
  options.fault = fault;
  PimFifoQueue queue(system, options);
  system.start();
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 1000;
  check::HistoryRecorder recorder(kProducers + kConsumers);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      check::ThreadLog& log = recorder.log(p);
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value = (static_cast<std::uint64_t>(p) << 32) | i;
        log.begin(check::kEnq, value);
        queue.enqueue(value);
        log.end(check::kRetTrue);
      }
    });
  }
  for (auto& t : threads) t.join();
  threads.clear();
  // Signed: a re-served value can drive the count below zero.
  std::atomic<std::int64_t> remaining{kProducers * kPerProducer};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      check::ThreadLog& log = recorder.log(kProducers + c);
      while (remaining.load() > 0) {
        log.begin(check::kDeq, 0);
        if (const auto v = queue.dequeue()) {
          log.end(*v);
          remaining.fetch_sub(1);
        } else {
          log.abandon();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // A re-served value leaves another one behind: drain it.
  check::ThreadLog& drain = recorder.log(kProducers);
  for (;;) {
    drain.begin(check::kDeq, 0);
    const auto v = queue.dequeue();
    drain.end(v.value_or(check::kRetEmpty));
    if (!v) break;
  }
  system.stop();
  return check::check_queue_history(recorder.collect());
}

TEST(RuntimeQueueFaults, CorrectProtocolPassesTheChecker) {
  const check::CheckResult r = run_runtime_queue(QueueFault::kNone);
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(RuntimeQueueFaults, DoubleServeIsFlagged) {
  EXPECT_EQ(run_runtime_queue(QueueFault::kDoubleServe).verdict,
            check::Verdict::kNotLinearizable);
}

TEST(RuntimeQueueFaults, HandoffReorderIsFlagged) {
  EXPECT_EQ(run_runtime_queue(QueueFault::kHandoffReorder).verdict,
            check::Verdict::kNotLinearizable);
}

}  // namespace
}  // namespace pimds::core
