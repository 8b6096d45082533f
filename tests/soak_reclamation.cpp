// Churn/soak driver for the reclamation seam: sustained insert/delete
// churn over every lock-free baseline while a rotating "parked reader"
// periodically stalls inside a guard — the exact workload that makes
// unbounded-garbage bugs (and the EBR stalled-reader pathology) visible.
//
// Assertions, checked continuously and at exit:
//   - bounded RSS: resident-set growth over the run stays under a ceiling
//     (a reclamation leak grows RSS linearly with churn);
//   - bounded retire backlog: each domain's in_flight count returns below
//     a threshold once stalls clear and flush() runs.
//
// Hours-capable but minutes-default:
//   soak_reclamation [--seconds N] [--policy ebr|hp|both]
//                    [--rss-ceiling-mb M] [--threads T]
// The ctest registration runs a short smoke (--seconds 2 per policy); CI's
// soak job runs it under ASan/LSan; nightly/manual runs pass larger
// --seconds. Exit code 0 = all assertions held.
//
// A watchdog turns a hang into a diagnosis: once the run outlives its time
// budget by kGraceSeconds, it prints the phase in progress and each churn
// thread's op count (a thread stuck in one operation stops counting) and
// exits with code 3.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "baselines/faa_queue.hpp"
#include "baselines/lazy_list.hpp"
#include "baselines/lockfree_skiplist.hpp"
#include "baselines/ms_queue.hpp"
#include "common/cacheline.hpp"
#include "common/reclaim.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"

namespace {

using namespace pimds;
using namespace pimds::baselines;

int g_failures = 0;

constexpr double kGraceSeconds = 30.0;

/// What the watchdog reports: the churn phase in progress and each churn
/// thread's op count within it.
struct Progress {
  std::atomic<const char*> phase{"warm-up"};
  std::atomic<const char*> policy{""};
  std::unique_ptr<CachePadded<std::atomic<std::uint64_t>>[]> ops;
  unsigned threads = 0;
};
Progress g_progress;

#define SOAK_CHECK(cond, ...)                          \
  do {                                                 \
    if (!(cond)) {                                     \
      std::fprintf(stderr, "SOAK FAIL: " __VA_ARGS__); \
      std::fprintf(stderr, " [%s]\n", #cond);          \
      ++g_failures;                                    \
    }                                                  \
  } while (0)

/// Resident set size in bytes via /proc/self/statm (0 if unreadable, e.g.
/// on non-Linux hosts — the RSS assertion is then skipped).
std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long rss_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &size_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::size_t>(rss_pages) *
         static_cast<std::size_t>(page > 0 ? page : 4096);
}

struct SoakConfig {
  double seconds = 120.0;  // minutes-default; ctest/CI pass a short value
  std::string policy = "both";
  std::size_t rss_ceiling_mb = 256;  // growth allowance over the baseline
  unsigned threads = 4;
};

/// One churn phase over one structure instance: `threads` workers mutate
/// under a mixed workload while one extra thread repeatedly parks inside a
/// guard for ~10ms at a time (the reclamation stall generator).
template <typename MakeStructure, typename Op>
void churn_phase(const char* what, ReclaimPolicy policy, double seconds,
                 unsigned threads, MakeStructure make, Op op) {
  auto structure = make(policy);
  Reclaimer& reclaimer = structure->reclaimer();
  g_progress.phase.store(what);
  g_progress.policy.store(to_string(policy));
  for (unsigned t = 0; t < threads; ++t) g_progress.ops[t].value.store(0);
  std::atomic<bool> stop{false};
  std::atomic<bool> drain{false};
  std::atomic<unsigned> churning{threads};
  std::atomic<std::uint64_t> total_ops{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0x50ac ^ (t * 0x9e37u));
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        op(*structure, rng);
        g_progress.ops[t].value.store(++n, std::memory_order_relaxed);
      }
      total_ops.fetch_add(n, std::memory_order_relaxed);
      churning.fetch_sub(1, std::memory_order_release);
      // Retire lists (EBR limbo / HP retire buffers) are per-thread, so
      // each worker drains its own backlog — this is the "backlog returns
      // to bounded once the stall clears" check. The flush must wait until
      // the parker is gone (drain flag) AND every sibling has left its
      // final op's guard, or an EBR advance would stall on a still-pinned
      // reader and silently skip the drain.
      while (!drain.load(std::memory_order_acquire) ||
             churning.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
      }
      reclaimer.flush();
    });
  }
  // Stall generator: parks a guard, holds it, releases, repeats. Under EBR
  // this forces epoch stalls; under HP it must NOT unbound the backlog.
  std::thread parker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      {
        ReclaimGuard guard(reclaimer);
        const std::uint64_t t0 = now_ns();
        while (now_ns() - t0 < 10'000'000 &&
               !stop.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const std::uint64_t t0 = now_ns();
  std::uint64_t max_in_flight = 0;
  while (static_cast<double>(now_ns() - t0) * 1e-9 < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const ReclaimStats s = reclaimer.stats();
    if (s.in_flight > max_in_flight) max_in_flight = s.in_flight;
  }
  stop.store(true);
  parker.join();  // the stall source must be gone before workers drain
  drain.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  // Every mutator flushed its own backlog with no guard pinned anywhere:
  // nothing proportional to the churn volume may remain in flight. The
  // small slack covers retire-vs-free counter tearing while flushes raced.
  const ReclaimStats s = reclaimer.stats();
  const std::uint64_t backlog_bound = 64 * (threads + 2);
  SOAK_CHECK(s.in_flight <= backlog_bound,
             "%s/%s: retire backlog %llu exceeds bound %llu after quiesce",
             what, to_string(policy),
             static_cast<unsigned long long>(s.in_flight),
             static_cast<unsigned long long>(backlog_bound));
  SOAK_CHECK(s.freed <= s.retired, "%s/%s: freed %llu > retired %llu", what,
             to_string(policy), static_cast<unsigned long long>(s.freed),
             static_cast<unsigned long long>(s.retired));
  std::printf(
      "  %-22s %-3s  %8.2f Mops  retired %10llu  freed %10llu  "
      "in-flight %6llu (peak %8llu)  stalls %llu\n",
      what, to_string(policy),
      static_cast<double>(total_ops.load()) / seconds * 1e-6,
      static_cast<unsigned long long>(s.retired),
      static_cast<unsigned long long>(s.freed),
      static_cast<unsigned long long>(s.in_flight),
      static_cast<unsigned long long>(max_in_flight),
      static_cast<unsigned long long>(s.stalls));
}

void run_policy(ReclaimPolicy policy, const SoakConfig& cfg) {
  // Four structures share the time budget; each phase gets its own
  // instance so teardown (reclaim_all) is exercised every cycle.
  const double per = cfg.seconds / 4.0;
  std::printf("policy %s (%.1fs per structure, %u churn threads + parker):\n",
              to_string(policy), per, cfg.threads);

  churn_phase(
      "lazy_list", policy, per, cfg.threads,
      [](ReclaimPolicy p) { return std::make_unique<LazyList>(p); },
      [](LazyList& l, Xoshiro256& rng) {
        const std::uint64_t key = rng.next_in(1, 512);
        switch (rng.next_below(3)) {
          case 0: l.add(key); break;
          case 1: l.remove(key); break;
          default: l.contains(key);
        }
      });
  churn_phase(
      "lockfree_skiplist", policy, per, cfg.threads,
      [](ReclaimPolicy p) { return std::make_unique<LockFreeSkipList>(p); },
      [](LockFreeSkipList& l, Xoshiro256& rng) {
        const std::uint64_t key = rng.next_in(1, 4096);
        switch (rng.next_below(3)) {
          case 0: l.add(key); break;
          case 1: l.remove(key); break;
          default: l.contains(key);
        }
      });
  churn_phase(
      "ms_queue", policy, per, cfg.threads,
      [](ReclaimPolicy p) { return std::make_unique<MsQueue>(p); },
      [](MsQueue& q, Xoshiro256& rng) {
        if (rng.next_bool(0.5)) {
          q.enqueue(rng.next() >> 2);
        } else {
          q.dequeue();
        }
      });
  churn_phase(
      "faa_queue", policy, per, cfg.threads,
      [](ReclaimPolicy p) { return std::make_unique<FaaQueue>(p); },
      [](FaaQueue& q, Xoshiro256& rng) {
        if (rng.next_bool(0.5)) {
          q.enqueue(rng.next() >> 2);
        } else {
          q.dequeue();
        }
      });
}

/// Runs until stop() or, past `budget_s` + kGraceSeconds, reports the hung
/// phase and ends the process with exit code 3.
class Watchdog {
 public:
  explicit Watchdog(double budget_s)
      : thread_([this, budget_s] {
          const std::uint64_t t0 = now_ns();
          const double limit = budget_s + kGraceSeconds;
          while (!done_.load()) {
            const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
            if (elapsed > limit) report_and_exit(elapsed, budget_s);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        }) {}
  ~Watchdog() { stop(); }

  void stop() {
    done_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  [[noreturn]] static void report_and_exit(double elapsed, double budget_s) {
    std::fprintf(stderr,
                 "SOAK FAIL: watchdog: still running after %.1fs (budget "
                 "%.1fs + %.0fs grace), in phase %s/%s; churn thread op "
                 "counts:",
                 elapsed, budget_s, kGraceSeconds, g_progress.phase.load(),
                 g_progress.policy.load());
    for (unsigned t = 0; t < g_progress.threads; ++t) {
      std::fprintf(stderr, " t%u=%llu", t,
                   static_cast<unsigned long long>(
                       g_progress.ops[t].value.load()));
    }
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
    std::_Exit(3);
  }

  std::atomic<bool> done_{false};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  SoakConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--seconds") == 0) {
      if (const char* v = next()) cfg.seconds = std::atof(v);
    } else if (std::strcmp(arg, "--policy") == 0) {
      if (const char* v = next()) cfg.policy = v;
    } else if (std::strcmp(arg, "--rss-ceiling-mb") == 0) {
      if (const char* v = next()) {
        cfg.rss_ceiling_mb = static_cast<std::size_t>(std::atoll(v));
      }
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (const char* v = next()) {
        cfg.threads = static_cast<unsigned>(std::atoi(v));
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seconds N] [--policy ebr|hp|both]\n"
                   "          [--rss-ceiling-mb M] [--threads T]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.policy != "ebr" && cfg.policy != "hp" && cfg.policy != "both") {
    std::fprintf(stderr, "--policy must be ebr, hp, or both\n");
    return 2;
  }
  std::printf("soak_reclamation: %.1fs total per policy, policy=%s, "
              "rss ceiling +%zu MB\n",
              cfg.seconds, cfg.policy.c_str(), cfg.rss_ceiling_mb);

  constexpr double kWarmSeconds = 0.2;
  g_progress.threads = cfg.threads;
  g_progress.ops = std::make_unique<CachePadded<std::atomic<std::uint64_t>>[]>(
      cfg.threads);
  Watchdog watchdog(kWarmSeconds +
                    cfg.seconds * (cfg.policy == "both" ? 2.0 : 1.0));

  // RSS baseline after a warm-up churn burst, so allocator warm-up and
  // thread stacks don't count against the ceiling.
  {
    SoakConfig warm = cfg;
    warm.seconds = kWarmSeconds;
    run_policy(ReclaimPolicy::kEbr, warm);
  }
  const std::size_t rss_before = rss_bytes();

  if (cfg.policy != "hp") run_policy(ReclaimPolicy::kEbr, cfg);
  if (cfg.policy != "ebr") run_policy(ReclaimPolicy::kHp, cfg);
  watchdog.stop();

  const std::size_t rss_after = rss_bytes();
  if (rss_before != 0 && rss_after != 0) {
    const std::size_t growth =
        rss_after > rss_before ? rss_after - rss_before : 0;
    std::printf("RSS: %.1f MB -> %.1f MB (growth %.1f MB, ceiling %zu MB)\n",
                rss_before / 1048576.0, rss_after / 1048576.0,
                growth / 1048576.0, cfg.rss_ceiling_mb);
    SOAK_CHECK(growth <= cfg.rss_ceiling_mb * 1048576u,
               "RSS grew %.1f MB over the run (ceiling %zu MB) — "
               "reclamation is leaking under churn",
               growth / 1048576.0, cfg.rss_ceiling_mb);
  } else {
    std::printf("RSS: /proc/self/statm unavailable; RSS assertion skipped\n");
  }

  if (g_failures == 0) {
    std::printf("soak_reclamation: PASS\n");
    return 0;
  }
  std::fprintf(stderr, "soak_reclamation: %d assertion(s) failed\n",
               g_failures);
  return 1;
}
