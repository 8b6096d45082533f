#include "harness.hpp"

#include <cpuid.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/thread_utils.hpp"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// CPU brand string via CPUID (no file access needed).
std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

}  // namespace

std::string Metrics::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, e] : values_) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": {\"value\": " +
           json_number(e.value) + ", \"unit\": \"" + json_escape(e.unit) +
           "\"}";
  }
  return out + "}";
}

ClientPool::ClientPool(std::size_t clients, std::size_t first_cpu) {
  const bool pin = pimds::hardware_threads() >= first_cpu + clients;
  for (std::size_t i = 0; i < clients; ++i) {
    threads_.emplace_back([this, i, pin, first_cpu] {
      if (pin) pimds::pin_to_cpu(first_cpu + i);
      loop(i);
    });
  }
}

ClientPool::~ClientPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

void ClientPool::run(const std::function<void(std::size_t)>& job,
                     double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &job;
  error_ = nullptr;
  pending_ = threads_.size();
  ++generation_;
  wake_.notify_all();
  const auto limit = std::chrono::duration<double>(timeout_s);
  if (!done_.wait_for(lock, limit, [this] { return pending_ == 0; })) {
    std::fprintf(stderr,
                 "perfbench: a client call hung for more than %.0f s; "
                 "aborting the run\n",
                 timeout_s);
    std::fflush(stderr);
    std::_Exit(3);
  }
  job_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

void ClientPool::loop(std::size_t id) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(id);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !error_) error_ = error;
    if (--pending_ == 0) done_.notify_all();
  }
}

bool SpanLog::write(const std::string& stem,
                    const std::string& fingerprint) const {
  std::uint64_t count = 0;
  if (std::FILE* f = std::fopen((stem + ".spans.bin").c_str(), "wb")) {
    for (const auto& [spans] : per_client) {
      if (!spans.empty() &&
          std::fwrite(spans.data(), sizeof(Span), spans.size(), f) !=
              spans.size()) {
        std::fclose(f);
        return false;
      }
      count += spans.size();
    }
    if (std::fclose(f) != 0) return false;
  } else {
    return false;
  }
  std::string names_json;
  for (std::size_t i = 0; i < names.size(); ++i) {
    names_json += (i == 0 ? "\"" : ", \"") + json_escape(names[i]) + "\"";
  }
  std::FILE* f = std::fopen((stem + ".spans.json").c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"root\": {\"name\": \"%s\", \"start_ns\": %llu, "
               "\"end_ns\": %llu},\n"
               " \"names\": [%s],\n"
               " \"spans\": %llu,\n"
               " \"record\": \"little-endian u64 start_ns, u64 end_ns, u32 "
               "name index, u32 client; parent = root\",\n"
               " \"fingerprint\": %s}\n",
               json_escape(root_name).c_str(),
               static_cast<unsigned long long>(root_start_ns),
               static_cast<unsigned long long>(root_end_ns),
               names_json.c_str(), static_cast<unsigned long long>(count),
               fingerprint.c_str());
  return std::fclose(f) == 0;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::floor(q * static_cast<double>(count_ - 1)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (seen + buckets_[i] <= rank) {
      seen += buckets_[i];
      continue;
    }
    if (i < 2 * kSub) return static_cast<double>(i);  // 1 ns wide: exact
    const std::size_t e = i / kSub + kSubBits - 1;
    const double width = std::ldexp(1.0, static_cast<int>(e - kSubBits));
    const double lo = std::ldexp(1.0, static_cast<int>(e)) +
                      static_cast<double>(i % kSub) * width;
    return lo + width * (static_cast<double>(rank - seen) + 0.5) /
                    static_cast<double>(buckets_[i]);
  }
  return 0.0;
}

double peak_rss_mb() {
  // The process's own high-water mark, VmHWM. getrusage's ru_maxrss keeps
  // the peak of the process image this one was exec'd from, so under a
  // Python launcher it reads the launcher's footprint, not the benchmark's.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fingerprint_json(std::uint64_t seed) {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + json_escape(cpu_model()) +
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\", \"pimds_obs\": \"ON\", \"compiler\": \"" PERFBENCH_COMPILER
         "\", \"seed\": " +
         std::to_string(seed) + "}";
}

}  // namespace perfbench
