#include "sim/churn_sim.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "rel/generator.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

RangeCacheSystem MakeSystem(uint64_t seed, int replication = 1) {
  SystemConfig cfg;
  cfg.num_peers = 40;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, seed);
  cfg.criterion = MatchCriterion::kContainment;
  cfg.descriptor_replication = replication;
  cfg.seed = seed;
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 1000, 1));
  CHECK(sys.ok()) << sys.status();
  return std::move(sys).ValueUnsafe();
}

std::function<PartitionKey()> UniformQueries(uint64_t seed) {
  auto gen = std::make_shared<UniformRangeGenerator>(0, 1000, seed);
  return [gen] { return PartitionKey{"Numbers", "key", gen->Next()}; };
}

TEST(ChurnSimTest, RejectsBadSliceCount) {
  auto sys = MakeSystem(1);
  ChurnSimulator sim(&sys, UniformQueries(2), ChurnScenarioConfig{});
  EXPECT_TRUE(sim.Run(0).status().IsInvalidArgument());
}

TEST(ChurnSimTest, NoChurnScenarioJustQueries) {
  auto sys = MakeSystem(3);
  ChurnScenarioConfig cfg;
  cfg.duration_s = 100;
  cfg.query_rate_hz = 3.0;
  cfg.join_rate_hz = 0.0;
  cfg.leave_rate_hz = 0.0;
  cfg.seed = 3;
  ChurnSimulator sim(&sys, UniformQueries(4), cfg);
  auto report = sim.Run(5);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->protocol_errors, 0u);
  // ~300 queries expected; Poisson, so allow slack.
  EXPECT_GT(report->total_queries, 200u);
  EXPECT_LT(report->total_queries, 420u);
  ASSERT_EQ(report->slices.size(), 5u);
  for (const ChurnTimeSlice& s : report->slices) {
    EXPECT_EQ(s.alive_at_end, 40u);
    EXPECT_EQ(s.joins + s.departures, 0u);
  }
  // The cache warms up: later slices match more often than the first.
  const auto& first = report->slices.front();
  const auto& last = report->slices.back();
  ASSERT_GT(first.queries, 0u);
  ASSERT_GT(last.queries, 0u);
  EXPECT_GT(static_cast<double>(last.matched) / static_cast<double>(last.queries),
            static_cast<double>(first.matched) /
                static_cast<double>(first.queries));
}

TEST(ChurnSimTest, ChurnChangesMembership) {
  auto sys = MakeSystem(5);
  ChurnScenarioConfig cfg;
  cfg.duration_s = 200;
  cfg.query_rate_hz = 1.0;
  cfg.join_rate_hz = 0.2;
  cfg.leave_rate_hz = 0.1;
  cfg.stabilize_period_s = 10;
  cfg.seed = 5;
  ChurnSimulator sim(&sys, UniformQueries(6), cfg);
  auto report = sim.Run(4);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->protocol_errors, 0u);
  uint64_t joins = 0, departures = 0;
  for (const ChurnTimeSlice& s : report->slices) {
    joins += s.joins;
    departures += s.departures;
  }
  EXPECT_GT(joins, 10u);
  EXPECT_GT(departures, 5u);
  // Net growth expected (join rate double the leave rate).
  EXPECT_GT(report->slices.back().alive_at_end, 40u);
}

TEST(ChurnSimTest, MinPeersFloorIsRespected) {
  auto sys = MakeSystem(7);
  ChurnScenarioConfig cfg;
  cfg.duration_s = 300;
  cfg.query_rate_hz = 0.5;
  cfg.join_rate_hz = 0.0;
  cfg.leave_rate_hz = 1.0;  // aggressive departures
  cfg.min_peers = 25;
  cfg.stabilize_period_s = 5;
  cfg.seed = 7;
  ChurnSimulator sim(&sys, UniformQueries(8), cfg);
  auto report = sim.Run(3);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->protocol_errors, 0u);
  EXPECT_GE(sys.overlay().num_alive(), 25u);
}

TEST(ChurnSimTest, DeterministicForSeeds) {
  auto run = [] {
    auto sys = MakeSystem(9);
    ChurnScenarioConfig cfg;
    cfg.duration_s = 60;
    cfg.query_rate_hz = 2.0;
    cfg.join_rate_hz = 0.1;
    cfg.leave_rate_hz = 0.1;
    cfg.seed = 9;
    ChurnSimulator sim(&sys, UniformQueries(10), cfg);
    auto report = sim.Run(3);
    CHECK(report.ok());
    std::string digest;
    for (const ChurnTimeSlice& s : report->slices) {
      digest += std::to_string(s.queries) + "/" + std::to_string(s.matched) +
                "/" + std::to_string(s.joins) + "/" +
                std::to_string(s.departures) + ";";
    }
    return digest;
  };
  EXPECT_EQ(run(), run());
}

TEST(ChurnSimTest, RecoveryRateTurnsCrashesIntoTransients) {
  auto sys = MakeSystem(11, /*replication=*/2);
  ChurnScenarioConfig cfg;
  cfg.duration_s = 300;
  cfg.query_rate_hz = 2.0;
  cfg.join_rate_hz = 0.0;
  cfg.leave_rate_hz = 0.1;
  cfg.fail_fraction = 1.0;     // every departure is abrupt...
  cfg.recover_rate_hz = 0.05;  // ...and comes back through replay
  cfg.stabilize_period_s = 10;
  cfg.min_peers = 20;
  cfg.seed = 11;
  ChurnSimulator sim(&sys, UniformQueries(12), cfg);
  auto report = sim.Run(4);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->protocol_errors, 0u);
  uint64_t crashes = 0, recoveries = 0, repaired = 0;
  for (const ChurnTimeSlice& s : report->slices) {
    crashes += s.crashes;
    recoveries += s.recoveries;
    repaired += s.descriptors_repaired;
  }
  EXPECT_GT(crashes, 0u) << "abrupt departures should crash, not remove";
  EXPECT_GT(recoveries, 0u) << "the recovery process should fire";
  EXPECT_LE(recoveries, crashes);
  // Recovered peers replayed their durable state (and possibly pulled
  // more from replicas); the system-level counters agree.
  EXPECT_EQ(sys.metrics().peer_crashes, crashes);
  EXPECT_EQ(sys.metrics().peer_recoveries, recoveries);
  EXPECT_EQ(sys.metrics().recovery_descriptors_repaired, repaired);
  // Crashed-but-not-yet-recovered peers stay out of the alive count.
  EXPECT_EQ(sys.overlay().num_alive(), 40u - (crashes - recoveries));
}

TEST(ChurnSimTest, ReplicationHelpsUnderChurn) {
  // Under identical churn scenarios, descriptor replication should
  // never hurt and typically raises the match rate (descriptors
  // survive owner departures). Aggregate over a few seeds to smooth
  // the randomness.
  double matched_r1 = 0, matched_r3 = 0;
  for (uint64_t seed = 20; seed < 24; ++seed) {
    for (int repl : {1, 3}) {
      auto sys = MakeSystem(seed, repl);
      ChurnScenarioConfig cfg;
      cfg.duration_s = 300;
      cfg.query_rate_hz = 2.0;
      cfg.join_rate_hz = 0.08;
      cfg.leave_rate_hz = 0.08;
      cfg.fail_fraction = 1.0;  // all departures abrupt
      cfg.stabilize_period_s = 10;
      cfg.seed = seed;
      ChurnSimulator sim(&sys, UniformQueries(seed ^ 0xFF), cfg);
      auto report = sim.Run(2);
      ASSERT_TRUE(report.ok());
      uint64_t matched = 0, queries = 0;
      for (const ChurnTimeSlice& s : report->slices) {
        matched += s.matched;
        queries += s.queries;
      }
      ASSERT_GT(queries, 0u);
      const double rate =
          static_cast<double>(matched) / static_cast<double>(queries);
      (repl == 1 ? matched_r1 : matched_r3) += rate;
    }
  }
  EXPECT_GE(matched_r3, matched_r1 - 0.02);
}

TEST(LiveChurnScheduleTest, DeterministicPerSeedAndTimeOrdered) {
  ChurnScenarioConfig cfg;
  cfg.duration_s = 120.0;
  cfg.join_rate_hz = 0.2;
  cfg.leave_rate_hz = 0.1;
  cfg.fail_fraction = 0.5;
  cfg.seed = 42;

  const auto a = GenerateLiveChurnSchedule(cfg);
  const auto b = GenerateLiveChurnSchedule(cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_s, b[i].t_s);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_GT(a[i].t_s, 0.0);
    EXPECT_LE(a[i].t_s, cfg.duration_s);
    if (i > 0) {
      EXPECT_GE(a[i].t_s, a[i - 1].t_s);
    }
  }

  cfg.seed = 43;
  const auto c = GenerateLiveChurnSchedule(cfg);
  EXPECT_TRUE(a.size() != c.size() ||
              !std::equal(a.begin(), a.end(), c.begin(),
                          [](const LiveChurnEvent& x, const LiveChurnEvent& y) {
                            return x.t_s == y.t_s && x.kind == y.kind;
                          }));
}

TEST(LiveChurnScheduleTest, RatesShapeTheMix) {
  ChurnScenarioConfig cfg;
  cfg.duration_s = 2000.0;
  cfg.join_rate_hz = 0.1;
  cfg.leave_rate_hz = 0.1;
  cfg.fail_fraction = 1.0;  // every departure is a kill
  cfg.seed = 7;
  size_t joins = 0, kills = 0, restarts = 0;
  for (const LiveChurnEvent& e : GenerateLiveChurnSchedule(cfg)) {
    joins += e.kind == LiveChurnEventKind::kJoin;
    kills += e.kind == LiveChurnEventKind::kKill;
    restarts += e.kind == LiveChurnEventKind::kRestart;
  }
  // ~200 events per process; equality of rates holds loosely, the
  // fail_fraction split exactly.
  EXPECT_GT(joins, 100u);
  EXPECT_GT(kills, 100u);
  EXPECT_EQ(restarts, 0u);

  cfg.fail_fraction = 0.0;  // every departure is a graceful restart
  kills = 0;
  restarts = 0;
  for (const LiveChurnEvent& e : GenerateLiveChurnSchedule(cfg)) {
    kills += e.kind == LiveChurnEventKind::kKill;
    restarts += e.kind == LiveChurnEventKind::kRestart;
  }
  EXPECT_EQ(kills, 0u);
  EXPECT_GT(restarts, 100u);

  // Zero rates produce an empty schedule, not a hang.
  cfg.join_rate_hz = 0.0;
  cfg.leave_rate_hz = 0.0;
  EXPECT_TRUE(GenerateLiveChurnSchedule(cfg).empty());
}

}  // namespace
}  // namespace p2prange
