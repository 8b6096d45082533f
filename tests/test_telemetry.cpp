// Tests for the live telemetry plane (ISSUE 8): windowed delta snapshots
// through the background Sampler (JSONL schema + self-metering), the
// FlightRecorder bounded ring, the LoadMap per-vault/per-range accounting
// with its SpaceSaving hot-key sketch, and the observe-only AutoRebalancer
// consuming LoadMap reports end-to-end on the real-thread runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "core/auto_rebalancer.hpp"
#include "core/pim_skiplist.hpp"
#include "obs/obs.hpp"
#include "runtime/system.hpp"

namespace pimds::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

TEST(TelemetryLine, CarriesSchemaCountersAndOnlyNonEmptyHistograms) {
  auto& r = Registry::instance();
  r.counter("test_tel.line_c").add(5);
  r.histogram("test_tel.line_h");  // registered but empty this window
  DeltaBaseline baseline;
  (void)r.delta_snapshot(baseline);
  r.counter("test_tel.line_c").add(2);
  r.histogram("test_tel.line_hot").record(100);
  const MetricsSnapshot delta = r.delta_snapshot(baseline);
  const std::string line = telemetry_line(delta, 3, 1'000'000'000, 25'000'000);
  EXPECT_NE(line.find("\"schema\":\"pimds.telemetry.v1\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"seq\":3"), std::string::npos);
  EXPECT_NE(line.find("\"interval_ns\":25000000"), std::string::npos);
  // Counters appear even at zero (schema-stable); the windowed value is
  // the delta, not the cumulative count.
  EXPECT_NE(line.find("\"test_tel.line_c\":2"), std::string::npos) << line;
  // Empty histograms are omitted; non-empty ones carry the percentiles.
  EXPECT_EQ(line.find("test_tel.line_h\""), std::string::npos) << line;
  EXPECT_NE(line.find("test_tel.line_hot"), std::string::npos);
  EXPECT_NE(line.find("\"p999\""), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one line per window";
}

TEST(FlightRecorder, RingKeepsMostRecentAndCountsDropped) {
  FlightRecorder fr(4);
  for (int i = 0; i < 10; ++i) {
    fr.push("{\"seq\":" + std::to_string(i) + "}");
  }
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.total(), 10u);
  const std::string path =
      ::testing::TempDir() + "test_telemetry_flight.json";
  ASSERT_TRUE(fr.dump(path));
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"schema\": \"pimds.flight.v1\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"dropped\": 6"), std::string::npos) << text;
  // Oldest retained first, newest last; evicted seqs are gone.
  EXPECT_EQ(text.find("{\"seq\":5}"), std::string::npos);
  const auto p6 = text.find("{\"seq\":6}");
  const auto p9 = text.find("{\"seq\":9}");
  ASSERT_NE(p6, std::string::npos);
  ASSERT_NE(p9, std::string::npos);
  EXPECT_LT(p6, p9);
  std::remove(path.c_str());
}

TEST(Sampler, EmitsValidJsonlAndMetersItself) {
  auto& r = Registry::instance();
  const std::string path =
      ::testing::TempDir() + "test_telemetry_sampler.jsonl";
  TelemetryOptions opts;
  opts.path = path;
  opts.interval_ms = 10;
  Sampler sampler(opts);
  sampler.start();
  ASSERT_TRUE(sampler.ok());
  Counter& c = r.counter("test_tel.sampler_c");
  for (int i = 0; i < 8; ++i) {
    c.add(10);
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
  }
  sampler.stop();
  EXPECT_GE(sampler.samples(), 3u);

  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), sampler.samples());
  std::uint64_t prev_seq = 0;
  std::uint64_t sum = 0;
  bool first = true;
  for (const auto& line : lines) {
    EXPECT_EQ(line.find("{\"schema\":\"pimds.telemetry.v1\""), 0u) << line;
    // seq strictly increasing from 1.
    const auto at = line.find("\"seq\":");
    ASSERT_NE(at, std::string::npos);
    const std::uint64_t seq = std::strtoull(line.c_str() + at + 6, nullptr, 10);
    if (!first) {
      EXPECT_GT(seq, prev_seq);
    }
    first = false;
    prev_seq = seq;
    const auto cat = line.find("\"test_tel.sampler_c\":");
    ASSERT_NE(cat, std::string::npos) << line;
    sum += std::strtoull(line.c_str() + cat + 21, nullptr, 10);
  }
  // Windowed deltas across all lines sum to the total count (the final
  // stop() window flushes the tail), never double-counting.
  EXPECT_EQ(sum, 80u);
  // Self-metering: the sampler's own cost is in the stream it emits.
  EXPECT_NE(slurp(path).find("\"telemetry.samples\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Sampler, MemoryOnlyModeFeedsTheFlightRing) {
  TelemetryOptions opts;  // no path: flight ring only
  opts.interval_ms = 5;
  opts.flight_capacity = 8;
  Sampler sampler(opts);
  sampler.start();
  Registry::instance().counter("test_tel.mem_only").add(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  sampler.stop();
  EXPECT_GE(sampler.samples(), 2u);
  EXPECT_GE(sampler.flight().size(), 2u);
  EXPECT_LE(sampler.flight().size(), 8u);
  const std::string path =
      ::testing::TempDir() + "test_telemetry_memdump.json";
  ASSERT_TRUE(sampler.dump_flight(path));
  EXPECT_NE(slurp(path).find("pimds.flight.v1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LoadMap, RangeGridCoversTheKeySpace) {
  LoadMap::Options opts;
  opts.num_vaults = 2;
  opts.key_min = 0;
  opts.key_max = 1023;
  opts.num_ranges = 8;
  opts.registry_prefix = "";
  LoadMap map(opts);
  EXPECT_EQ(map.range_of(0), 0u);
  EXPECT_EQ(map.range_of(1023), 7u);
  EXPECT_EQ(map.range_of(2000), 7u);  // clamped above
  // Buckets tile the space: lo(0) == key_min, hi(last) == key_max,
  // adjacent buckets are contiguous.
  EXPECT_EQ(map.range_lo(0), 0u);
  EXPECT_EQ(map.range_hi(7), 1023u);
  for (std::size_t b = 0; b + 1 < 8; ++b) {
    EXPECT_EQ(map.range_hi(b) + 1, map.range_lo(b + 1)) << "bucket " << b;
  }
  // Every key maps into the bucket whose bounds contain it.
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t key = rng.next_below(1024);
    const std::size_t b = map.range_of(key);
    EXPECT_GE(key, map.range_lo(b));
    EXPECT_LE(key, map.range_hi(b));
  }
}

TEST(LoadMap, ReportFindsTheHotVaultAndHotKeys) {
  LoadMap::Options opts;
  opts.num_vaults = 4;
  opts.key_min = 1;
  opts.key_max = 1 << 12;
  opts.registry_prefix = "";
  opts.top_k = 3;
  LoadMap map(opts);
  // Vault 0 takes 10x the traffic, concentrated on keys 1 and 2.
  for (int i = 0; i < 1000; ++i) {
    map.record(0, (i & 1) != 0 ? 1 : 2);
    if (i % 10 == 0) {
      map.record(1, 2000);
      map.record(2, 3000);
      map.record(3, 4000);
    }
  }
  LoadMap::HotVaultReport rep = map.report();
  EXPECT_EQ(rep.hottest, 0u);
  EXPECT_EQ(rep.window_ops, 1300u);
  EXPECT_EQ(rep.hottest_ops, 1000u);
  EXPECT_GT(rep.imbalance_ratio, 2.5);  // 1000 / 325 ~ 3.08
  ASSERT_EQ(rep.per_vault_ops.size(), 4u);
  EXPECT_EQ(rep.per_vault_ops[0], 1000u);
  ASSERT_FALSE(rep.hot_ranges.empty());
  EXPECT_EQ(map.range_of(1),
            map.range_of(rep.hot_ranges[0].lo));  // head range is hottest
  // The sketch surfaces the two heavy keys (counts are over-estimates).
  ASSERT_GE(rep.hot_keys.size(), 2u);
  EXPECT_TRUE((rep.hot_keys[0].key == 1 && rep.hot_keys[1].key == 2) ||
              (rep.hot_keys[0].key == 2 && rep.hot_keys[1].key == 1))
      << "hot keys: " << rep.hot_keys[0].key << ", " << rep.hot_keys[1].key;
  EXPECT_GE(rep.hot_keys[0].count, 500u);
  EXPECT_FALSE(rep.summary().empty());

  // Windowing: a second report over no new traffic is all zeros.
  rep = map.report();
  EXPECT_EQ(rep.window_ops, 0u);
  EXPECT_DOUBLE_EQ(rep.imbalance_ratio, 0.0);
}

TEST(LoadMap, UniformLoadReportsLowImbalance) {
  LoadMap::Options opts;
  opts.num_vaults = 4;
  opts.key_min = 0;
  opts.key_max = 4000;
  opts.registry_prefix = "";
  LoadMap map(opts);
  for (std::uint64_t k = 0; k < 4000; ++k) {
    map.record(static_cast<std::size_t>(k % 4), k);
  }
  const LoadMap::HotVaultReport rep = map.report();
  EXPECT_EQ(rep.window_ops, 4000u);
  EXPECT_NEAR(rep.imbalance_ratio, 1.0, 0.01);
}

TEST(LoadMap, RegistersPerVaultCountersUnderThePrefix) {
  LoadMap::Options opts;
  opts.num_vaults = 2;
  opts.registry_prefix = "test_tel.lm";
  {
    LoadMap map(opts);
    map.record(0, 10);
    map.record(0, 11);
    map.record(1, 12);
    const MetricsSnapshot snap = Registry::instance().snapshot();
    const auto* v0 = snap.find_counter("test_tel.lm.vault0.ops");
    ASSERT_NE(v0, nullptr);
    EXPECT_EQ(v0->value, 2u);
    const auto* v1 = snap.find_counter("test_tel.lm.vault1.ops");
    ASSERT_NE(v1, nullptr);
    EXPECT_EQ(v1->value, 1u);
  }
  // Registration is scoped to the LoadMap's lifetime.
  const MetricsSnapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.find_counter("test_tel.lm.vault0.ops"), nullptr);
}

TEST(ObserveOnlyRebalancer, FlagsZipfHotVaultWithoutMigrating) {
  // End-to-end: real-thread runtime, Zipf keys (rank 0 -> key 1 -> vault
  // 0 hot), observe-only policy. It must log would-trigger decisions and
  // leave the partition table untouched.
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimSkipList::Options options;
  options.key_max = 1 << 14;
  core::PimSkipList list(system, options);
  system.start();

  core::AutoRebalancer::Options ropts;
  ropts.observe_only = true;
  ropts.period = std::chrono::milliseconds(20);
  ropts.log_decisions = false;  // keep ctest output quiet
  core::AutoRebalancer observer(list, ropts);
  observer.start();

  Xoshiro256 rng(21);
  ZipfGenerator zipf(1 << 14, 0.99);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (observer.would_trigger_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = zipf.next(rng) + 1;
      if ((i & 7) == 0) {
        list.add(key);
      } else {
        list.contains(key);
      }
    }
  }
  observer.stop();
  system.stop();

  EXPECT_GT(observer.would_trigger_count(), 0u)
      << "theta=0.99 must push vault 0 past the imbalance threshold";
  EXPECT_EQ(observer.migrations_triggered(), 0u) << "observe-only migrated";
  EXPECT_EQ(list.partitions().size(), 4u)
      << "partition table must be untouched";
  const auto rep = observer.last_report();
  EXPECT_EQ(rep.hottest, 0u) << rep.summary();
  EXPECT_GE(rep.imbalance_ratio, ropts.imbalance_ratio) << rep.summary();
}

}  // namespace
}  // namespace pimds::obs
