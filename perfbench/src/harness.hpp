// Shared machinery of the repository benchmark: the metric sink, the
// persistent closed-loop client pool, the timed leg runner, benchmark-side
// spans, and the host fingerprint.
//
// Everything here sits outside the library: it drives the public API and
// times it from the caller's side.
#pragma once

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/timing.hpp"

namespace perfbench {

using pimds::cpu_relax;
using pimds::now_ns;
using pimds::Summary;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span dump of a traced run.
  std::string out_dir = ".";
  /// Seeded output fault for the self-test: "" (none), "duplicate" or
  /// "lose" (queue workload only).
  std::string fault;
};

/// Named metrics with units, in insertion-independent (sorted) order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Entry{value, unit};
  }
  std::string to_json() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

/// Outcome of one workload run: metrics plus the output-check tally. A
/// failure is a call that threw or hung, or a violated output check; the
/// run is correct when there is none.
struct Result {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Fixed set of client threads that live for the whole process, so every
/// leg of a run reuses the same mailbox lanes (a new sender thread would
/// claim a fresh lane per mailbox). Client i is pinned to CPU first_cpu + i
/// when the host has that many CPUs.
class ClientPool {
 public:
  ClientPool(std::size_t clients, std::size_t first_cpu);
  ~ClientPool();

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  std::size_t size() const noexcept { return threads_.size(); }

  /// Run job(client) on every client and wait for all of them. A client
  /// still busy after `timeout_s` means a call hung: the process reports
  /// it on stderr and exits nonzero, since a blocked thread cannot be
  /// reclaimed. Rethrows the first exception a client raised.
  void run(const std::function<void(std::size_t)>& job,
           double timeout_s = 120.0);

 private:
  void loop(std::size_t id);

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

/// One benchmark-side span: a public call made by one client.
struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t name;  ///< index into SpanLog::names
  std::uint32_t client;
};

/// One client's spans, on a cache line of its own.
struct alignas(64) ClientSpans {
  std::vector<Span> spans;
};

/// In-memory spans of a traced run; written out once, when the run ends.
/// Every call span's parent is the workload root span.
struct SpanLog {
  std::string root_name;
  std::uint64_t root_start_ns = 0;
  std::uint64_t root_end_ns = 0;
  std::vector<std::string> names;
  std::vector<ClientSpans> per_client;

  /// Writes `<stem>.spans.bin` (packed Span records) and `<stem>.spans.json`
  /// (names, root span, record layout, host fingerprint). Returns false on
  /// an I/O error.
  bool write(const std::string& stem, const std::string& fingerprint) const;
};

/// What one closed-loop leg measured. Latencies are per call, as the
/// caller sees them; slices split the leg into equal time windows whose
/// medians make the figures robust to a single scheduler hiccup.
struct LegResult {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  ///< threw, or took longer than the deadline
  std::uint64_t call_ns = 0;  ///< summed duration of every call
  std::vector<double> slice_ops_s;
  std::vector<double> slice_p50_ns;
  std::vector<double> slice_p99_ns;
  std::uint64_t samples = 0;

  double ops_s() const noexcept {
    return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
  }
};

/// Call latencies in a few KiB: log-linear buckets, exact below 128 ns,
/// then 64 per power of two (width under 1/64 of the value). Calls of
/// 2^31 ns or more, failed by the deadline anyway, share the last bucket.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) noexcept {
    ++count_;
    ++buckets_[index(ns)];
  }
  void merge(const LatencyHistogram& other) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  /// Quantile at rank floor(q * (n - 1)), interpolated linearly by rank
  /// inside its bucket.
  double percentile(double q) const;

 private:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxBits = 31;
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t ns) noexcept {
    if (ns < kSub) return ns;
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(ns));
    if (e >= kMaxBits) return kBuckets - 1;
    return (e - kSubBits + 1) * kSub + ((ns >> (e - kSubBits)) & (kSub - 1));
  }

  std::array<std::uint32_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// A call slower than this counts as hung (failed), even if it returns.
inline constexpr std::uint64_t kCallDeadlineNs = 1'000'000'000;

/// Run `op(client)` in a closed loop on every pool client for `seconds`.
/// `op` returns the index of the public call it made (its span name).
/// With `latency`, every call is timed; with `spans`, every call is also
/// recorded as a span.
template <typename Op>
LegResult run_leg(ClientPool& pool, double seconds, std::size_t slices,
                  bool latency, SpanLog* spans, Op&& op) {
  // Per-client results, each on its own cache line.
  struct alignas(64) ClientLeg {
    std::vector<LatencyHistogram> lat;   ///< per slice
    std::vector<std::uint64_t> bounds;   ///< calls done at each slice end
    std::uint64_t ops = 0, failed = 0, call_ns = 0, end = 0;
  };
  const std::size_t n = pool.size();
  slices = std::max<std::size_t>(slices, 1);
  std::vector<ClientLeg> legs(n);
  for (ClientLeg& l : legs) {
    if (latency) l.lat.resize(slices);
    l.bounds.reserve(slices);
  }
  const auto dur = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t slice_ns = std::max<std::uint64_t>(dur / slices, 1);
  const std::uint64_t t0 = now_ns() + 200'000;  // common start instant
  const std::uint64_t t_end = t0 + dur;
  pool.run(
      [&](std::size_t c) {
        auto& my_lat = legs[c].lat;
        auto& my_bounds = legs[c].bounds;
        std::vector<Span>* my_spans =
            spans != nullptr ? &spans->per_client[c].spans : nullptr;
        std::uint64_t my_ops = 0, my_failed = 0, my_call_ns = 0;
        std::uint64_t next_bound = t0 + slice_ns;
        while (now_ns() < t0) cpu_relax();
        std::uint64_t t = now_ns();
        while (t < t_end) {
          const std::uint64_t start = t;
          std::uint32_t call = 0;
          try {
            call = op(c);
          } catch (...) {
            ++my_failed;
          }
          t = now_ns();
          const std::uint64_t ns = t - start;
          my_call_ns += ns;
          if (ns > kCallDeadlineNs) ++my_failed;
          if (latency) my_lat[my_bounds.size()].record(ns);
          if (my_spans != nullptr) {
            my_spans->push_back(
                Span{start, t, call, static_cast<std::uint32_t>(c)});
          }
          ++my_ops;
          while (t >= next_bound && my_bounds.size() + 1 < slices) {
            my_bounds.push_back(my_ops);
            next_bound += slice_ns;
          }
        }
        while (my_bounds.size() < slices) my_bounds.push_back(my_ops);
        legs[c].ops = my_ops;
        legs[c].failed = my_failed;
        legs[c].call_ns = my_call_ns;
        legs[c].end = t;
      },
      seconds + 60.0);
  LegResult r;
  std::uint64_t end = t0;
  for (const ClientLeg& l : legs) {
    r.ops += l.ops;
    r.failed += l.failed;
    r.call_ns += l.call_ns;
    end = std::max(end, l.end);
  }
  r.seconds = static_cast<double>(end - t0) * 1e-9;
  const double slice_s = static_cast<double>(slice_ns) * 1e-9;
  for (std::size_t s = 0; s < slices; ++s) {
    std::uint64_t in_slice = 0;
    for (const ClientLeg& l : legs) {
      in_slice += l.bounds[s] - (s == 0 ? 0 : l.bounds[s - 1]);
    }
    r.slice_ops_s.push_back(static_cast<double>(in_slice) / slice_s);
    if (!latency) continue;
    LatencyHistogram merged;
    for (const ClientLeg& l : legs) merged.merge(l.lat[s]);
    if (merged.count() > 0) {
      r.samples += merged.count();
      r.slice_p50_ns.push_back(merged.percentile(0.50));
      r.slice_p99_ns.push_back(merged.percentile(0.99));
    }
  }
  return r;
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// One-line JSON host fingerprint: nproc, CPU model, build type, obs
/// build flag, compiler and the run's seed.
std::string fingerprint_json(std::uint64_t seed);

}  // namespace perfbench
