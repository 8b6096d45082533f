// The shared Section 4.2.1 migration protocol (core/migration_protocol.hpp)
// driven through a recording fake port: every execution, reply, send,
// forward, extraction, insertion and trace the handlers make is asserted in
// order, with no runtime or simulator underneath. Then the shared rebalance
// decision (core::MigrationPolicy, core::suggest_split) on hand-built
// windows. Each of the five RebalanceFault mutants is pinned to its exact
// deviation from the clean protocol or policy.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/migration_protocol.hpp"

namespace pimds::core {
namespace {

struct Request {
  std::uint64_t key = 0;
  int id = 0;
  char op = 'c';  ///< 'a'dd, 'r'emove, 'c'ontains
};

/// The vault lists behind the port plus everything the handlers did, in
/// order, one line per port call.
struct World {
  std::vector<std::set<std::uint64_t>> lists;
  std::vector<std::string> log;
};

std::string id_of(const Request& r) { return "#" + std::to_string(r.id); }

struct FakePort {
  World* w;
  std::size_t v;

  void note(const std::string& what) {
    w->log.push_back("v" + std::to_string(v) + " " + what);
  }

  std::size_t vault_id() const { return v; }
  bool execute(const Request& r) {
    note("exec " + id_of(r));
    std::set<std::uint64_t>& list = w->lists[v];
    switch (r.op) {
      case 'a': return list.insert(r.key).second;
      case 'r': return list.erase(r.key) == 1;
      default: return list.count(r.key) == 1;
    }
  }
  std::optional<std::uint64_t> first_at_least(std::uint64_t key) const {
    const auto it = w->lists[v].lower_bound(key);
    if (it == w->lists[v].end()) return std::nullopt;
    return *it;
  }
  void extract(std::uint64_t cursor) {
    const auto it = w->lists[v].lower_bound(cursor);
    note("extract " + std::to_string(*it));
    w->lists[v].erase(it);
  }
  void begin_incoming() { note("begin_incoming"); }
  void insert_migrated(std::uint64_t key) {
    note("insert " + std::to_string(key));
    w->lists[v].insert(key);
  }
  void send(std::size_t core, const MigMsg& m) {
    const char* kind = m.kind == MigKind::kBegin  ? "begin"
                       : m.kind == MigKind::kNode ? "node"
                                                  : "end";
    std::string what = "-> v" + std::to_string(core) + " " + kind + " " +
                       std::to_string(m.key);
    if (m.kind == MigKind::kBegin) what += ".." + std::to_string(m.hi);
    note(what + " from v" + std::to_string(m.from));
  }
  void forward(std::size_t core, const Request& r) {
    note("-> v" + std::to_string(core) + " fwd " + id_of(r));
  }
  void reply(const Request& r, SetReply s) {
    note("reply " + id_of(r) + (s.accepted ? " ok " : " reject ") +
         std::to_string(s.result));
  }
  void trace(const char* event, obs::TraceArg, obs::TraceArg) {
    note(std::string("trace ") + event);
  }
};

using Log = std::vector<std::string>;

/// Four vaults owning [1, 1000), [1000, 2000), [2000, 3000), [3000, ...),
/// two keys per migration step. Vault 0 holds 500, 600 and 700.
class MigrationProtocolTest : public ::testing::Test {
 protected:
  explicit MigrationProtocolTest(RebalanceFault fault = RebalanceFault::kNone)
      : protocol_(4, /*key_min=*/1, /*key_max=*/3999, /*migrate_chunk=*/2,
                  fault, "test_migration_protocol") {
    world_.lists.resize(4);
    world_.lists[0] = {500, 600, 700};
  }

  FakePort port(std::size_t v) { return FakePort{&world_, v}; }

  /// Log lines since the previous call.
  Log take() {
    Log out;
    out.swap(world_.log);
    return out;
  }

  void serve(std::size_t v, int id, std::uint64_t key, char op = 'c') {
    FakePort p = port(v);
    protocol_.serve(p, Request{key, id, op});
  }
  void forwarded(std::size_t v, int id, std::uint64_t key, char op = 'c') {
    FakePort p = port(v);
    protocol_.serve_forwarded(p, Request{key, id, op});
  }
  void start(std::size_t v, int id, std::uint64_t lo, std::uint64_t hi,
             std::size_t target) {
    FakePort p = port(v);
    protocol_.start(p, Request{lo, id}, lo, hi, target);
  }
  void deliver(std::size_t v, MigKind kind, std::uint64_t key,
               std::uint64_t hi, std::size_t from) {
    FakePort p = port(v);
    protocol_.deliver(p, MigMsg{kind, key, hi, from});
  }
  bool step(std::size_t v) {
    FakePort p = port(v);
    return protocol_.step_migration(p);
  }

  /// Claim the guard and start moving [500, 1000) from vault 0 to vault 2.
  void start_500_to_2() {
    ASSERT_TRUE(protocol_.try_claim_migration());
    start(0, 99, 500, 1000, 2);
    take();
  }

  World world_;
  MigrationProtocol<Request> protocol_;
};

TEST_F(MigrationProtocolTest, OwnedKeysExecuteAndOthersAreRejected) {
  serve(0, 1, 10, 'a');
  serve(0, 2, 1500);
  EXPECT_EQ(take(), (Log{"v0 exec #1", "v0 reply #1 ok 1",
                         "v0 reply #2 reject 0"}));
  EXPECT_EQ(protocol_.count(kRequests, 0), 1u);
  EXPECT_EQ(protocol_.count(kRejections), 1u);
}

TEST_F(MigrationProtocolTest, StartAnnouncesTheRangeAndReplies) {
  ASSERT_TRUE(protocol_.try_claim_migration());
  start(0, 9, 500, 1000, 2);
  EXPECT_EQ(take(), (Log{"v0 trace mig_start",
                         "v0 -> v2 begin 500..1000 from v0",
                         "v0 reply #9 ok 1"}));
  EXPECT_TRUE(protocol_.migrating_out(0));
  EXPECT_EQ(protocol_.directory().route(500), 0u)
      << "the CPUs are redirected only when the hand-over completes";
}

TEST_F(MigrationProtocolTest, StartIsRefusedWhileMigratingOrForForeignRanges) {
  start(0, 1, 1500, 2000, 3);  // vault 0 does not own 1500
  EXPECT_EQ(take(), (Log{"v0 reply #1 reject 0"}));
  start_500_to_2();
  start(0, 2, 200, 500, 3);  // vault 0 is already the source of one
  EXPECT_EQ(take(), (Log{"v0 reply #2 reject 0"}));
  deliver(2, MigKind::kBegin, 500, 1000, 0);
  take();
  start(2, 3, 2500, 3000, 1);  // vault 2 is already a target
  EXPECT_EQ(take(), (Log{"v2 reply #3 reject 0"}));
  EXPECT_FALSE(protocol_.migrating_out(2));
}

TEST_F(MigrationProtocolTest, SteppingMovesOneChunkAtATimeThenHandsOver) {
  start_500_to_2();
  EXPECT_TRUE(step(0));
  EXPECT_EQ(take(), (Log{"v0 extract 500", "v0 -> v2 node 500 from v0",
                         "v0 extract 600", "v0 -> v2 node 600 from v0"}));
  EXPECT_TRUE(step(0));
  EXPECT_EQ(take(), (Log{"v0 extract 700", "v0 -> v2 node 700 from v0",
                         "v0 trace mig_complete",
                         "v0 -> v2 end 500 from v0"}));
  EXPECT_FALSE(protocol_.migrating_out(0));
  EXPECT_EQ(protocol_.directory().route(500), 2u);
  EXPECT_EQ(protocol_.directory().route(499), 0u);
  EXPECT_EQ(protocol_.count(kMigratedKeys), 3u);
  EXPECT_FALSE(step(0)) << "nothing left to do once handed over";
  EXPECT_TRUE(take().empty());
  // The source's own view gave the range up with the hand-over.
  serve(0, 1, 600);
  start(0, 2, 500, 1000, 3);
  EXPECT_EQ(take(), (Log{"v0 reply #1 reject 0", "v0 reply #2 reject 0"}));
  EXPECT_TRUE(protocol_.migration_busy())
      << "only the target's kMigEnd releases the guard";
}

TEST_F(MigrationProtocolTest, SourceForwardsMigratedKeysAndServesTheRest) {
  start_500_to_2();
  step(0);  // 500 and 600 are gone; the cursor is at 601
  take();
  serve(0, 1, 550, 'a');
  serve(0, 2, 650);
  serve(0, 3, 1500);
  EXPECT_EQ(take(), (Log{"v0 -> v2 fwd #1", "v0 trace mig_forward",
                         "v0 exec #2", "v0 reply #2 ok 0",
                         "v0 reply #3 reject 0"}));
  EXPECT_EQ(protocol_.count(kForwarded), 1u);
  EXPECT_EQ(protocol_.count(kRequests), 1u)
      << "a forwarded op counts where it executes, not at the source";
  forwarded(2, 1, 550, 'a');
  EXPECT_EQ(take(), (Log{"v2 exec #1", "v2 reply #1 ok 1"}));
  EXPECT_EQ(protocol_.count(kRequests, 2), 1u);
}

TEST_F(MigrationProtocolTest, TargetDefersTheIncomingRangeAndReplaysInOrder) {
  start_500_to_2();
  deliver(2, MigKind::kBegin, 500, 1000, 0);
  EXPECT_EQ(take(), (Log{"v2 begin_incoming", "v2 trace mig_begin"}));
  serve(2, 1, 700);
  serve(2, 2, 510, 'a');
  serve(2, 3, 2500);   // its own range: served at once
  serve(2, 4, 1100);   // not its range, incoming or owned
  EXPECT_EQ(take(), (Log{"v2 exec #3", "v2 reply #3 ok 0",
                         "v2 reply #4 reject 0"}));
  EXPECT_EQ(protocol_.count(kDeferred), 2u);
  deliver(2, MigKind::kNode, 500, 0, 0);
  deliver(2, MigKind::kNode, 700, 0, 0);
  EXPECT_EQ(take(), (Log{"v2 insert 500", "v2 insert 700"}));
  deliver(2, MigKind::kEnd, 500, 0, 0);
  EXPECT_EQ(take(), (Log{"v2 exec #1", "v2 reply #1 ok 1", "v2 exec #2",
                         "v2 reply #2 ok 1"}));
  EXPECT_FALSE(protocol_.migration_busy());
  EXPECT_EQ(protocol_.count(kRequests, 2), 3u)
      << "deferred ops count once, on replay";
  serve(2, 5, 999);
  EXPECT_EQ(take(), (Log{"v2 exec #5", "v2 reply #5 ok 0"}))
      << "the granted range is the target's own now";
}

TEST_F(MigrationProtocolTest, TheGuardAdmitsOneMigrationAtATime) {
  EXPECT_FALSE(protocol_.migration_busy());
  EXPECT_TRUE(protocol_.try_claim_migration());
  EXPECT_FALSE(protocol_.try_claim_migration());
  protocol_.release_migration();
  EXPECT_TRUE(protocol_.try_claim_migration());
}

class StaleServeTest : public MigrationProtocolTest {
 protected:
  StaleServeTest() : MigrationProtocolTest(RebalanceFault::kStaleServe) {}
};

TEST_F(StaleServeTest, SourceAnswersMigratedKeysFromItsStaleCopy) {
  start_500_to_2();
  step(0);
  take();
  serve(0, 1, 550, 'a');
  EXPECT_EQ(take(), (Log{"v0 exec #1", "v0 reply #1 ok 1"}))
      << "clean: v0 -> v2 fwd #1";
  EXPECT_EQ(protocol_.count(kForwarded), 0u);
}

class NoDeferTest : public MigrationProtocolTest {
 protected:
  NoDeferTest() : MigrationProtocolTest(RebalanceFault::kNoDefer) {}
};

TEST_F(NoDeferTest, PublishesAtStartAndServesTheIncompleteCopy) {
  start_500_to_2();
  EXPECT_EQ(protocol_.directory().route(500), 2u)
      << "clean: the directory moves only at hand-over";
  deliver(2, MigKind::kBegin, 500, 1000, 0);
  take();
  serve(2, 1, 700);
  EXPECT_EQ(take(), (Log{"v2 exec #1", "v2 reply #1 ok 0"}))
      << "clean: deferred until kMigEnd (700 has not arrived yet)";
  EXPECT_EQ(protocol_.count(kDeferred), 0u);
}

class DirectoryBeforeGrantTest : public MigrationProtocolTest {
 protected:
  DirectoryBeforeGrantTest()
      : MigrationProtocolTest(RebalanceFault::kDirectoryBeforeGrant) {}
};

TEST_F(DirectoryBeforeGrantTest, GateTrustsTheDirectoryOverTheGrant) {
  start_500_to_2();
  EXPECT_EQ(protocol_.directory().route(500), 2u);
  // A direct request that overtook kMigBegin: the clean gate rejects it by
  // the target's own view; the broken gate answers from the empty list.
  serve(2, 1, 700);
  EXPECT_EQ(take(), (Log{"v2 exec #1", "v2 reply #1 ok 0"}))
      << "clean: v2 reply #1 reject 0";
  EXPECT_EQ(protocol_.count(kRejections), 0u);
}

// ---------------------------------------------------------------------------
// The rebalance decision.
// ---------------------------------------------------------------------------

SentinelDirectory four_way() {
  return SentinelDirectory({{1, 0}, {1000, 1}, {2000, 2}, {3000, 3}});
}

RebalanceParams params(RebalanceFault fault = RebalanceFault::kNone) {
  RebalanceParams p;
  p.imbalance_enter = 2.0;
  p.cooldown_periods = 2;
  p.min_window_ops = 100;
  p.max_migrations = 2;
  p.key_max = 3999;
  p.fault = fault;
  return p;
}

/// Vault 0 hot, vault 3 cold, everything in [1, 999].
obs::LoadMap::HotVaultReport hot_window() {
  obs::LoadMap::HotVaultReport rep;
  rep.window_ops = 1000;
  rep.hottest = 0;
  rep.coldest = 3;
  rep.imbalance_ratio = 3.0;
  rep.hot_ranges = {{1, 999, 900}};
  return rep;
}

TEST(MigrationPolicy, GatesInOrderThenProposesTheSplit) {
  const SentinelDirectory dir = four_way();
  MigrationPolicy policy(4, params());
  obs::LoadMap::HotVaultReport rep = hot_window();
  rep.window_ops = 99;
  EXPECT_FALSE(policy.decide(rep, dir, false)) << "noise floor";
  rep = hot_window();
  rep.coldest = 0;
  EXPECT_FALSE(policy.decide(rep, dir, false)) << "hottest == coldest";
  rep = hot_window();
  rep.imbalance_ratio = 1.99;
  EXPECT_FALSE(policy.decide(rep, dir, false)) << "below the enter threshold";
  rep = hot_window();
  EXPECT_FALSE(policy.decide(rep, dir, true)) << "a migration is in flight";
  const std::optional<SplitProposal> p = policy.decide(rep, dir, false);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->split, 500u) << "midpoint of the hot range";
  EXPECT_EQ(p->hi, 1000u);
  EXPECT_EQ(p->source, 0u);
  EXPECT_EQ(p->target, 3u);
  policy.accepted(*p);
  EXPECT_EQ(policy.migrations(), 1u);
  EXPECT_FALSE(policy.decide(rep, dir, false)) << "cooldown: 1 window left";
  ASSERT_TRUE(policy.decide(rep, dir, false)) << "cooled down";
  policy.accepted(*p);
  EXPECT_FALSE(policy.decide(rep, dir, false));
  EXPECT_FALSE(policy.decide(rep, dir, false));
  EXPECT_FALSE(policy.decide(rep, dir, false)) << "max_migrations reached";
}

TEST(MigrationPolicy, ThrashIgnoresTheThresholdAndTheCooldown) {
  const SentinelDirectory dir = four_way();
  MigrationPolicy policy(4, params(RebalanceFault::kThrash));
  obs::LoadMap::HotVaultReport rep = hot_window();
  rep.imbalance_ratio = 1.0;  // clean: below the enter threshold
  const std::optional<SplitProposal> p = policy.decide(rep, dir, false);
  ASSERT_TRUE(p.has_value());
  policy.accepted(*p);
  EXPECT_TRUE(policy.decide(rep, dir, false))
      << "clean: the source cools down for cooldown_periods windows";
}

TEST(MigrationPolicy, SplitOffByOneMovesTheDominantKeyWithTheSuffix) {
  const SentinelDirectory dir = four_way();
  obs::LoadMap::HotVaultReport rep = hot_window();
  rep.hot_keys = {{/*key=*/1, /*count=*/600}, {40, 300}};
  EXPECT_EQ(suggest_split(rep, 0, dir, 3999), 2u)
      << "clean: the dominant key's successor";
  EXPECT_EQ(suggest_split(rep, 0, dir, 3999, RebalanceFault::kSplitOffByOne),
            1u)
      << "the key itself, here the partition's sentinel: a whole-partition "
         "move";
  MigrationPolicy policy(4, params(RebalanceFault::kSplitOffByOne));
  const std::optional<SplitProposal> p = policy.decide(rep, dir, false);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->split, 1u);
  EXPECT_EQ(p->hi, 1000u);
}

TEST(MigrationPolicy, NothingSplittableYieldsNoProposal) {
  // Vault 0 owns only [1, 2): no split strictly above its sentinel.
  const SentinelDirectory dir({{1, 0}, {2, 1}});
  obs::LoadMap::HotVaultReport rep = hot_window();
  rep.coldest = 1;
  rep.hot_ranges = {{1, 1, 900}};
  EXPECT_EQ(suggest_split(rep, 0, dir, 3999), 0u);
  MigrationPolicy policy(2, params());
  EXPECT_FALSE(policy.decide(rep, dir, false));
}

}  // namespace
}  // namespace pimds::core
