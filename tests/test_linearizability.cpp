// The linearizability oracle (src/check/): hand-built histories exercising
// each sequential spec and each violation class, then recorded histories
// from every real-thread queue and set in the library, then simulator runs
// recorded through the same types — one checker for both worlds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/faa_queue.hpp"
#include "baselines/fc_structures.hpp"
#include "baselines/hoh_list.hpp"
#include "baselines/lazy_list.hpp"
#include "baselines/lockfree_skiplist.hpp"
#include "baselines/ms_queue.hpp"
#include "check/history.hpp"
#include "check/linearizability.hpp"
#include "check/spec.hpp"
#include "core/pim_fifo_queue.hpp"
#include "core/pim_linked_list.hpp"
#include "core/pim_skiplist.hpp"
#include "sim/ds/linked_lists.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim_test_util.hpp"

namespace pimds {
namespace {

// TSan slows the recording runs by an order of magnitude AND lengthens the
// genuinely-concurrent windows of the set histories, whose per-key WGL
// search permutes them. Shrink the workloads so the sanitizer CI leg
// finishes; schedule diversity, not volume, is what the TSan runs add.
#if defined(__SANITIZE_THREAD__)
#define PIMDS_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIMDS_TSAN_BUILD 1
#endif
#endif
#ifdef PIMDS_TSAN_BUILD
constexpr std::uint64_t kQueuePerProducer = 300;
constexpr std::uint64_t kSetOpsPerThread = 400;
#else
constexpr std::uint64_t kQueuePerProducer = 2500;
constexpr std::uint64_t kSetOpsPerThread = 1200;
#endif

check::Event ev(std::uint32_t op, std::uint64_t arg, std::uint64_t ret,
                std::uint64_t begin, std::uint64_t end,
                std::uint32_t thread = 0) {
  check::Event e;
  e.op = op;
  e.thread = thread;
  e.arg = arg;
  e.ret = ret;
  e.begin = begin;
  e.end = end;
  return e;
}

check::History history_of(std::vector<check::Event> events) {
  check::History h;
  h.events = std::move(events);
  return h;
}

// ---------------------------------------------------------------------------
// The queue checker (check_queue_history, an O(n log n) sweep) on
// hand-built histories, then cross-validated against the WGL search over
// QueueSpec on many small random ones.
// ---------------------------------------------------------------------------

TEST(QueueSpecCheck, AcceptsSequentialFifoHistory) {
  std::vector<check::Event> events;
  std::uint64_t t = 1;
  for (std::uint64_t v = 1; v <= 10; ++v) {
    events.push_back(ev(check::kEnq, v, check::kRetTrue, t, t + 1));
    t += 2;
  }
  for (std::uint64_t v = 1; v <= 10; ++v) {
    events.push_back(ev(check::kDeq, 0, v, t, t + 1));
    t += 2;
  }
  const auto r = check::check_queue_history(history_of(std::move(events)));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(QueueSpecCheck, AcceptsConcurrentEnqueuesServedInEitherOrder) {
  // enq(1) and enq(2) overlap in real time, so a dequeuer may see 2 first.
  const auto r = check::check_queue_history(history_of({
      ev(check::kEnq, 1, check::kRetTrue, 0, 10, 0),
      ev(check::kEnq, 2, check::kRetTrue, 5, 15, 1),
      ev(check::kDeq, 0, 2, 20, 21, 2),
      ev(check::kDeq, 0, 1, 22, 23, 2),
  }));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(QueueSpecCheck, RejectsDuplicateDequeue) {
  const auto r = check::check_queue_history(history_of({
      ev(check::kEnq, 7, check::kRetTrue, 0, 1),
      ev(check::kDeq, 0, 7, 2, 3),
      ev(check::kDeq, 0, 7, 4, 5),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
  EXPECT_FALSE(r.error.empty());
}

TEST(QueueSpecCheck, RejectsInventedValue) {
  const auto r = check::check_queue_history(history_of({
      ev(check::kEnq, 7, check::kRetTrue, 0, 1),
      ev(check::kDeq, 0, 8, 2, 3),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
}

TEST(QueueSpecCheck, RejectsFifoReorderAcrossSequentialEnqueues) {
  // enq(1) completes strictly before enq(2) begins, yet 2 is served first.
  const auto r = check::check_queue_history(history_of({
      ev(check::kEnq, 1, check::kRetTrue, 0, 1, 0),
      ev(check::kEnq, 2, check::kRetTrue, 2, 3, 1),
      ev(check::kDeq, 0, 2, 4, 5, 2),
      ev(check::kDeq, 0, 1, 6, 7, 2),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
}

TEST(QueueSpecCheck, EmptyDequeueRequiresAnEmptyWindow) {
  // deq -> empty strictly after enq(1) completed, nothing dequeued before:
  // no linearization point has an empty queue.
  const auto bad = check::check_queue_history(history_of({
      ev(check::kEnq, 1, check::kRetTrue, 0, 1, 0),
      ev(check::kDeq, 0, check::kRetEmpty, 2, 3, 1),
  }));
  EXPECT_EQ(bad.verdict, check::Verdict::kNotLinearizable);

  // Overlapping the enqueue, the empty result is fine: the dequeue can
  // linearize before the enqueue takes effect.
  const auto good = check::check_queue_history(history_of({
      ev(check::kEnq, 1, check::kRetTrue, 0, 10, 0),
      ev(check::kDeq, 0, check::kRetEmpty, 2, 5, 1),
      ev(check::kDeq, 0, 1, 12, 13, 1),
  }));
  EXPECT_TRUE(good.ok()) << good.error;
}

TEST(QueueSpecCheck, InitialStateExpressesPrefilledQueue) {
  check::QueueSpec::State initial;
  initial.items = {10, 11};
  EXPECT_TRUE(check::check_queue_history(history_of({
                                             ev(check::kDeq, 0, 10, 0, 1),
                                             ev(check::kDeq, 0, 11, 2, 3),
                                         }),
                                         initial)
                  .ok());
  EXPECT_FALSE(check::check_queue_history(history_of({
                                              ev(check::kDeq, 0, 11, 0, 1),
                                          }),
                                          initial)
                   .ok())
      << "pre-filled values must come out in order";
}

TEST(QueueSpecCheck, LostValueBeforeAFinalEmptyIsNotLinearizable) {
  // A value enqueued and never dequeued IS linearizable on its own: "the
  // history just ended" is a legal explanation.
  const auto open = check::check_queue_history(history_of({
      ev(check::kEnq, 7, check::kRetTrue, 0, 1),
  }));
  EXPECT_TRUE(open.ok()) << open.error;

  // A recorded final empty dequeue (the end of a drain) closes that door:
  // the value had to be in the queue when the drain saw it empty.
  const auto drained = check::check_queue_history(history_of({
      ev(check::kEnq, 7, check::kRetTrue, 0, 1),
      ev(check::kDeq, 0, check::kRetEmpty, 2, 3),
  }));
  EXPECT_EQ(drained.verdict, check::Verdict::kNotLinearizable);
  EXPECT_NE(drained.error.find("never dequeued"), std::string::npos)
      << drained.error;
}

TEST(QueueSpecCheck, DuplicateEnqueuedValueThrows) {
  EXPECT_THROW(check::check_queue_history(history_of({
                   ev(check::kEnq, 7, check::kRetTrue, 0, 1),
                   ev(check::kEnq, 7, check::kRetTrue, 2, 3),
               })),
               std::invalid_argument);
  check::QueueSpec::State initial;
  initial.items = {7};
  EXPECT_THROW(check::check_queue_history(
                   history_of({ev(check::kEnq, 7, check::kRetTrue, 0, 1)}),
                   initial),
               std::invalid_argument);
}

TEST(QueueSpecCheck, TinyBudgetReportsLimitReachedNotAVerdict) {
  check::CheckOptions opts;
  opts.max_explored = 1;
  const auto r = check::check_history<check::QueueSpec>(
      history_of({
          ev(check::kEnq, 1, 1, 0, 1),
          ev(check::kEnq, 2, 1, 2, 3),
          ev(check::kDeq, 0, 1, 4, 5),
          ev(check::kDeq, 0, 2, 6, 7),
      }),
      {}, opts);
  EXPECT_EQ(r.verdict, check::Verdict::kLimitReached);
  EXPECT_FALSE(r.ok());
}

/// A small random queue history over values 1.., with a pre-filled prefix
/// (values 100..): a sequential queue run at a random point inside each
/// op's interval, then mutated (swapped, emptied or invented results,
/// shifted intervals). Short time spans make tied timestamps common.
check::History random_queue_history(std::mt19937_64& rng,
                                    check::QueueSpec::State& initial) {
  initial.items.clear();
  for (std::uint64_t i = 0, k = rng() % 3; i < k; ++i) {
    initial.items.push_back(100 + i);
  }
  const std::size_t n = 1 + rng() % 10;
  const std::uint64_t span = 4 + rng() % 30;
  std::vector<check::Event> events(n);
  std::vector<std::uint64_t> point(n);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t begin = rng() % span;
    const std::uint64_t len = rng() % 8;
    point[i] = begin + rng() % (len + 1);
    events[i] = ev(rng() % 2 == 0 ? check::kEnq : check::kDeq, 0, 0, begin,
                   begin + len);
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return point[a] < point[b]; });
  std::deque<std::uint64_t> queue(initial.items.begin(), initial.items.end());
  std::uint64_t next = 1;
  for (const std::size_t i : order) {
    check::Event& e = events[i];
    if (e.op == check::kEnq) {
      e.arg = next++;
      e.ret = check::kRetTrue;
      queue.push_back(e.arg);
    } else if (queue.empty()) {
      e.ret = check::kRetEmpty;
    } else {
      e.ret = queue.front();
      queue.pop_front();
    }
  }
  for (std::uint64_t m = 0, k = rng() % 4; m < k; ++m) {
    check::Event& e = events[rng() % n];
    check::Event& other = events[rng() % n];
    const std::uint64_t shift = rng() % 4;
    switch (rng() % 5) {
      case 0:
        if (e.op == check::kDeq && other.op == check::kDeq) {
          std::swap(e.ret, other.ret);
        }
        break;
      case 1:
        if (e.op == check::kDeq) e.ret = check::kRetEmpty;
        break;
      case 2:
        if (e.op == check::kDeq) e.ret = 1 + rng() % (next + 1);
        break;
      case 3:
        e.begin += shift;
        e.end += shift + rng() % 3;
        break;
      default:
        e.begin -= std::min(e.begin, shift);
        break;
    }
  }
  return history_of(std::move(events));
}

TEST(QueueSpecCheck, SweepAgreesWithTheSearchOnRandomHistories) {
  std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
  std::uint64_t linearizable = 0;
  constexpr std::uint64_t kHistories = 25'000;
  for (std::uint64_t i = 0; i < kHistories; ++i) {
    check::QueueSpec::State initial;
    const check::History h = random_queue_history(rng, initial);
    const auto search = check::check_history<check::QueueSpec>(h, initial);
    ASSERT_NE(search.verdict, check::Verdict::kLimitReached);
    const auto sweep = check::check_queue_history(h, initial);
    ASSERT_EQ(sweep.verdict, search.verdict)
        << "history #" << i << ": sweep says \"" << sweep.error
        << "\", search says \"" << search.error << "\"";
    linearizable += search.ok();
  }
  // Both verdicts must be well represented for the agreement to mean much.
  EXPECT_GT(linearizable, kHistories / 4);
  EXPECT_LT(linearizable, kHistories * 9 / 10);
}

// ---------------------------------------------------------------------------
// SetSpec and MapSpec on hand-built histories.
// ---------------------------------------------------------------------------

TEST(SetSpecCheck, AcceptsSequentialPerKeyHistoryAndPartitions) {
  const auto r = check::check_set_history(history_of({
      // Setup insert: key 5 present from the start (time-0 event).
      ev(check::kAdd, 5, check::kRetTrue, 0, 0),
      ev(check::kContains, 5, check::kRetTrue, 1, 2),
      ev(check::kRemove, 5, check::kRetTrue, 3, 4),
      ev(check::kContains, 5, check::kRetFalse, 5, 6),
      ev(check::kAdd, 5, check::kRetTrue, 7, 8),
      // Independent key: its events check in a separate partition.
      ev(check::kAdd, 9, check::kRetTrue, 1, 2),
      ev(check::kRemove, 9, check::kRetTrue, 3, 4),
  }));
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.partitions, 2u);
}

TEST(SetSpecCheck, RejectsContainsContradictingSetupInsert) {
  const auto r = check::check_set_history(history_of({
      ev(check::kAdd, 5, check::kRetTrue, 0, 0),
      ev(check::kContains, 5, check::kRetFalse, 1, 2),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
  EXPECT_NE(r.error.find("key 5"), std::string::npos) << r.error;
}

TEST(SetSpecCheck, RejectsDoubleSuccessfulAdd) {
  const auto r = check::check_set_history(history_of({
      ev(check::kAdd, 3, check::kRetTrue, 0, 1),
      ev(check::kAdd, 3, check::kRetTrue, 2, 3),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
}

TEST(SetSpecCheck, AcceptsContainsFalseOverlappingTheAdd) {
  const auto r = check::check_set_history(history_of({
      ev(check::kAdd, 9, check::kRetTrue, 0, 10, 0),
      ev(check::kContains, 9, check::kRetFalse, 1, 2, 1),
      ev(check::kContains, 9, check::kRetTrue, 12, 13, 1),
  }));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(MapSpecCheck, LastWriterWinsReadsAndErase) {
  const auto good = check::check_history<check::MapSpec>(history_of({
      ev(check::kAdd, 4, /*written value=*/42, 0, 1),
      ev(check::kContains, 4, 42, 2, 3),
      ev(check::kAdd, 4, 43, 4, 5),
      ev(check::kContains, 4, 43, 6, 7),
      ev(check::kRemove, 4, check::kRetTrue, 8, 9),
      ev(check::kContains, 4, check::kRetEmpty, 10, 11),
  }));
  EXPECT_TRUE(good.ok()) << good.error;

  const auto bad = check::check_history<check::MapSpec>(history_of({
      ev(check::kAdd, 4, 42, 0, 1),
      ev(check::kContains, 4, 43, 2, 3),
  }));
  EXPECT_EQ(bad.verdict, check::Verdict::kNotLinearizable);
}

// ---------------------------------------------------------------------------
// Real-thread harnesses: record check/ histories from every queue and set
// in the library, then check them. Values are tagged per producer so every
// enqueued value is unique, as the queue checker requires.
// ---------------------------------------------------------------------------

/// Producers and consumers run concurrently; once they are done a single
/// thread drains the queue and records the final empty dequeue, so a value
/// the queue lost is a violation as well as one it reordered.
template <typename Queue>
check::History record_queue_run(Queue& queue, int producers, int consumers,
                                std::uint64_t per_producer) {
  check::HistoryRecorder recorder(producers + consumers + 1);
  std::atomic<int> producers_done{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      check::ThreadLog& log = recorder.log(p);
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        const std::uint64_t value =
            ((static_cast<std::uint64_t>(p) + 1) << 48) | i;
        log.begin(check::kEnq, value);
        queue.enqueue(value);
        log.end(check::kRetTrue);
      }
      producers_done.fetch_add(1);
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      check::ThreadLog& log = recorder.log(producers + c);
      std::uint64_t empties = 0;
      for (;;) {
        log.begin(check::kDeq, 0);
        const auto v = queue.dequeue();
        if (v.has_value()) {
          log.end(*v);
          empties = 0;
        } else {
          // An empty result doesn't mutate the abstract queue, so sampling
          // is sound — recording every probe of this spin loop would bloat
          // the history without adding checking power.
          if (empties++ % 256 == 0) {
            log.end(check::kRetEmpty);
          } else {
            log.abandon();
          }
          if (producers_done.load() == producers) break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  check::ThreadLog& drain = recorder.log(producers + consumers);
  for (;;) {
    drain.begin(check::kDeq, 0);
    const auto v = queue.dequeue();
    drain.end(v.value_or(check::kRetEmpty));
    if (!v) break;
  }
  return recorder.collect();
}

TEST(CheckedQueueHistories, MsQueueIsLinearizable) {
  baselines::MsQueue q;
  const auto r = check::check_queue_history(record_queue_run(q, 2, 2, kQueuePerProducer));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedQueueHistories, FaaQueueIsLinearizable) {
  baselines::FaaQueue q;
  const auto r = check::check_queue_history(record_queue_run(q, 2, 2, kQueuePerProducer));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedQueueHistories, FcQueueIsLinearizable) {
  baselines::FcQueue q;
  const auto r = check::check_queue_history(record_queue_run(q, 2, 2, kQueuePerProducer));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedQueueHistories, PimFifoQueueIsLinearizable) {
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimFifoQueue queue(system, {{128}});
  system.start();
  const auto r =
      check::check_queue_history(record_queue_run(queue, 2, 2, kQueuePerProducer));
  system.stop();
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedQueueHistories, PimFifoQueueWithFatNodesIsLinearizable) {
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimFifoQueue::Options options;
  options.segment_threshold = 128;
  options.enqueue_combining = true;
  core::PimFifoQueue queue(system, options);
  system.start();
  const auto r =
      check::check_queue_history(record_queue_run(queue, 2, 2, kQueuePerProducer));
  system.stop();
  EXPECT_TRUE(r.ok()) << r.error;
}

/// Drive any add/remove/contains set with recording threads over a small
/// key range (small ranges maximize per-key contention, which is where
/// linearizability bugs live) and return the merged history.
template <typename Set>
check::History record_set_run(Set& set, int num_threads,
                              std::uint64_t ops_per_thread,
                              std::uint64_t key_range, std::uint64_t seed) {
  check::HistoryRecorder recorder(num_threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      check::ThreadLog& log = recorder.log(t);
      std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t));
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const std::uint64_t key = 1 + rng() % key_range;
        const std::uint64_t dice = rng() % 10;
        if (dice < 3) {
          log.begin(check::kAdd, key);
          const bool ok = set.add(key);
          log.end(ok ? check::kRetTrue : check::kRetFalse);
        } else if (dice < 6) {
          log.begin(check::kRemove, key);
          const bool ok = set.remove(key);
          log.end(ok ? check::kRetTrue : check::kRetFalse);
        } else {
          log.begin(check::kContains, key);
          const bool ok = set.contains(key);
          log.end(ok ? check::kRetTrue : check::kRetFalse);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return recorder.collect();
}

template <typename Set>
void expect_set_linearizable(Set& set) {
  const auto r = check::check_set_history(
      record_set_run(set, 4, kSetOpsPerThread, /*key_range=*/48, /*seed=*/0x5eed));
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.partitions, 1u);
}

TEST(CheckedSetHistories, LazyListIsLinearizable) {
  baselines::LazyList set;
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, HohListIsLinearizable) {
  baselines::HohList set;
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, LockFreeSkipListIsLinearizable) {
  baselines::LockFreeSkipList set;
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, FcLinkedListIsLinearizable) {
  baselines::FcLinkedList set(/*combining=*/true);
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, FcSkipListIsLinearizable) {
  baselines::FcSkipList set(/*key_range=*/64, /*partitions=*/4);
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, PimLinkedListIsLinearizable) {
  runtime::PimSystem::Config config;
  config.num_vaults = 1;
  runtime::PimSystem system(config);
  core::PimLinkedList list(system, {0, /*combining=*/true, 64});
  system.start();
  expect_set_linearizable(list);
  system.stop();
}

TEST(CheckedSetHistories, PimSkipListIsLinearizable) {
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimSkipList::Options options;
  options.key_max = 1 << 12;
  core::PimSkipList list(system, options);
  system.start();
  expect_set_linearizable(list);
  system.stop();
}

// ---------------------------------------------------------------------------
// Simulator harnesses: the same recorder plugged into virtual-time runs.
// Virtual timestamps are globally ordered by construction of the engine, so
// the histories check with the identical code path.
// ---------------------------------------------------------------------------

TEST(CheckedSimHistories, PimListRunIsLinearizable) {
  sim::ListConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.num_cpus = 4;
  cfg.duration_ns = 300'000;
  cfg.key_range = 128;
  cfg.initial_size = 64;
  check::HistoryRecorder recorder(cfg.num_cpus + 1);
  cfg.recorder = &recorder;
  sim::run_pim_list(cfg, /*combining=*/true);
  const auto r = check::check_set_history(recorder.collect());
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedSimHistories, PimSkipListRunIsLinearizable) {
  sim::SkipListConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.num_cpus = 6;
  cfg.duration_ns = 300'000;
  cfg.key_range = 1 << 10;
  cfg.initial_size = 256;
  check::HistoryRecorder recorder(cfg.num_cpus + 1);
  cfg.recorder = &recorder;
  sim::run_pim_skiplist(cfg, /*partitions=*/4);
  const auto r = check::check_set_history(recorder.collect());
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.partitions, 1u);
}

TEST(CheckedSimHistories, LockFreeSkipListRunIsLinearizable) {
  sim::SkipListConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.num_cpus = 6;
  cfg.duration_ns = 300'000;
  cfg.key_range = 1 << 10;
  cfg.initial_size = 256;
  check::HistoryRecorder recorder(cfg.num_cpus + 1);
  cfg.recorder = &recorder;
  sim::run_lockfree_skiplist(cfg);
  const auto r = check::check_set_history(recorder.collect());
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedSimHistories, FaaQueueRunIsLinearizable) {
  sim::QueueConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.enqueuers = 3;
  cfg.dequeuers = 3;
  cfg.duration_ns = 200'000;
  cfg.initial_nodes = 64;
  check::HistoryRecorder recorder(cfg.enqueuers + cfg.dequeuers);
  cfg.recorder = &recorder;
  sim::run_faa_queue(cfg);
  check::QueueSpec::State initial;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i)
    initial.items.push_back(i);
  const auto r =
      check::check_queue_history(recorder.collect(), std::move(initial));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedSimHistories, MsQueueRunIsLinearizable) {
  sim::QueueConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.enqueuers = 2;
  cfg.dequeuers = 2;
  cfg.duration_ns = 50'000;
  cfg.initial_nodes = 128;
  check::HistoryRecorder recorder(cfg.enqueuers + cfg.dequeuers);
  cfg.recorder = &recorder;
  sim::run_ms_queue(cfg);
  check::QueueSpec::State initial;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i)
    initial.items.push_back(i);
  const auto r =
      check::check_queue_history(recorder.collect(), std::move(initial));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedSimHistories, PimQueueRunIsLinearizable) {
  sim::QueueConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.enqueuers = 3;
  cfg.dequeuers = 3;
  cfg.duration_ns = 200'000;
  cfg.initial_nodes = 200;
  check::HistoryRecorder recorder(cfg.enqueuers + cfg.dequeuers);
  cfg.recorder = &recorder;
  sim::PimQueueOptions opts;
  opts.segment_threshold = 64;
  sim::run_pim_queue(cfg, opts);
  check::QueueSpec::State initial;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i)
    initial.items.push_back(i);
  const auto r =
      check::check_queue_history(recorder.collect(), std::move(initial));
  EXPECT_TRUE(r.ok()) << r.error;
}

}  // namespace
}  // namespace pimds
