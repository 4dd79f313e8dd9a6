// The scenario engine: event ordering, compact-model routing against
// the oracle, determinism under a seed, churn-mode recall, the
// byte-budget gauges, and the single-threaded-by-design contract.
#include "sim/engine/scenario_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "sim/engine/compact_overlay.h"
#include "sim/engine/event_queue.h"

namespace p2prange {
namespace sim {
namespace {

// ---------------------------------------------------------------- events

TEST(EventQueueTest, PopsInTimeThenInsertionOrder) {
  EventQueue q;
  q.Push(5.0, EventType::kCrash, 1);
  q.Push(1.0, EventType::kQuery, 2);
  q.Push(5.0, EventType::kRecover, 3);  // same time: after the crash
  q.Push(3.0, EventType::kQuery, 4);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.max_depth(), 4u);

  Event e;
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kQuery);
  EXPECT_EQ(e.subject, 2u);
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kQuery);
  EXPECT_EQ(e.subject, 4u);
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kCrash);
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kRecover);
  EXPECT_EQ(e.subject, 3u);
  EXPECT_FALSE(q.Pop(&e));
  EXPECT_EQ(q.max_depth(), 4u);  // high-water mark survives draining
}

TEST(EventQueueTest, EventsStayPacked) {
  EXPECT_EQ(sizeof(Event), 24u);
}

// ------------------------------------------------------- compact models

class CompactOverlayTest : public ::testing::TestWithParam<overlay::Kind> {};

TEST_P(CompactOverlayTest, RouteLandsOnOwner) {
  auto net = MakeCompactOverlay(GetParam(), 500, 3, 2);
  ASSERT_TRUE(net.ok()) << net.status();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const uint32_t id = rng.Next32();
    const uint32_t owner = (*net)->Owner(id);
    ASSERT_LT(owner, (*net)->num_peers());
    EXPECT_TRUE((*net)->IsAlive(owner));
    int hops = 0;
    const uint32_t routed =
        (*net)->Route((*net)->RandomAliveSlot(rng), id, &hops);
    EXPECT_EQ(routed, owner);
    EXPECT_GE(hops, 0);
  }
}

TEST_P(CompactOverlayTest, OwnerSkipsDeadSlots) {
  auto net = MakeCompactOverlay(GetParam(), 64, 5, 2);
  ASSERT_TRUE(net.ok()) << net.status();
  Rng rng(11);
  for (int i = 0; i < 24; ++i) {
    (*net)->SetAlive((*net)->RandomAliveSlot(rng), false);
  }
  EXPECT_EQ((*net)->num_alive(), 40u);
  for (int i = 0; i < 100; ++i) {
    const uint32_t owner = (*net)->Owner(rng.Next32());
    EXPECT_TRUE((*net)->IsAlive(owner));
  }
}

TEST_P(CompactOverlayTest, StaysUnderTwentyBytesPerPeer) {
  const size_t n = 20000;
  auto net = MakeCompactOverlay(GetParam(), n, 1, 2);
  ASSERT_TRUE(net.ok()) << net.status();
  EXPECT_LT((*net)->MemoryBytes() / n, 20u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CompactOverlayTest,
                         ::testing::Values(overlay::Kind::kChord,
                                           overlay::Kind::kCan,
                                           overlay::Kind::kTapestry),
                         [](const ::testing::TestParamInfo<overlay::Kind>& i) {
                           return std::string(overlay::KindName(i.param));
                         });

TEST(AliveIndexTest, CountsSelectsAndWraps) {
  AliveIndex idx(10);
  EXPECT_EQ(idx.num_alive(), 10u);
  idx.Set(0, false);
  idx.Set(9, false);
  idx.Set(4, false);
  EXPECT_EQ(idx.num_alive(), 7u);
  EXPECT_EQ(idx.CountBefore(5), 3u);   // 1,2,3
  EXPECT_EQ(idx.CountIn(4, 10), 4u);   // 5,6,7,8
  EXPECT_EQ(idx.NextAliveWrapping(9), 1u);  // wraps past dead 9 and 0
  EXPECT_EQ(idx.NextAliveWrapping(4), 5u);
  EXPECT_EQ(idx.SelectAlive(0), 1u);
  EXPECT_EQ(idx.SelectAlive(6), 8u);
  idx.Set(0, true);
  EXPECT_EQ(idx.SelectAlive(0), 0u);
}

// ------------------------------------------------------------- scenarios

ScenarioConfig SmallConfig(overlay::Kind kind, ChurnMode churn,
                           WorkloadShape shape = WorkloadShape::kUniform) {
  ScenarioConfig config;
  config.kind = kind;
  config.shape = shape;
  config.churn = churn;
  config.num_peers = 300;
  config.num_queries = 600;
  config.domain = 20000;
  config.seed = 5;
  return config;
}

TEST(ScenarioEngineTest, ValidatesConfig) {
  ScenarioConfig bad = SmallConfig(overlay::Kind::kChord, ChurnMode::kNone);
  bad.num_peers = 1;
  EXPECT_FALSE(ScenarioEngine::Make(bad).ok());
  bad = SmallConfig(overlay::Kind::kChord, ChurnMode::kNone);
  bad.crash_wave_fraction = 0.9;
  EXPECT_FALSE(ScenarioEngine::Make(bad).ok());
  // ZipfRangeGenerator would CHECK-abort on this one.
  bad = SmallConfig(overlay::Kind::kChord, ChurnMode::kNone,
                    WorkloadShape::kZipf);
  bad.zipf_mean_width = 0.5;
  EXPECT_TRUE(ScenarioEngine::Make(bad).status().IsInvalidArgument());
}

TEST(ScenarioEngineTest, QueryStreamReplaysWithinTheDomain) {
  for (const WorkloadShape shape :
       {WorkloadShape::kUniform, WorkloadShape::kZipf,
        WorkloadShape::kHotspot}) {
    const ScenarioConfig config =
        SmallConfig(overlay::Kind::kChord, ChurnMode::kNone, shape);
    auto a = MakeQueryStream(config);
    auto b = MakeQueryStream(config);
    for (int i = 0; i < 500; ++i) {
      const Range r = a();
      ASSERT_EQ(r, b()) << WorkloadShapeName(shape);
      ASSERT_LE(r.hi(), config.domain) << WorkloadShapeName(shape);
    }
  }
}

TEST(ScenarioEngineTest, DeterministicUnderSeed) {
  const ScenarioConfig config =
      SmallConfig(overlay::Kind::kChord, ChurnMode::kChurn);
  auto a = ScenarioEngine::Make(config);
  auto b = ScenarioEngine::Make(config);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = a->Run();
  auto rb = b->Run();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->ToJson(), rb->ToJson());
  EXPECT_GT(ra->queries, 0u);
}

class ScenarioChurnTest : public ::testing::TestWithParam<overlay::Kind> {};

TEST_P(ScenarioChurnTest, NonzeroRecallUnderChurn) {
  auto engine =
      ScenarioEngine::Make(SmallConfig(GetParam(), ChurnMode::kChurn));
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto report = engine->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->queries, 600u);
  EXPECT_GT(report->crashes, 0u);
  EXPECT_GT(report->recoveries, 0u);
  EXPECT_GT(report->recall_sum, 0.0)
      << overlay::KindName(GetParam()) << " produced no cache hits";
  EXPECT_GT(report->hops, 0u);
  EXPECT_GT(report->bytes, 0u);
}

TEST_P(ScenarioChurnTest, CrashWaveReportsRecoveryWindows) {
  ScenarioConfig config = SmallConfig(GetParam(), ChurnMode::kCrashWave);
  config.num_queries = 1200;
  config.crash_wave_fraction = 0.2;
  // Keep the wave-settle window (2x this) inside the ~1200 ms horizon
  // so the after-wave recall window actually sees queries.
  config.recover_delay_ms = 100.0;
  auto engine = ScenarioEngine::Make(config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto report = engine->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->crashes, 0u);
  EXPECT_EQ(report->recoveries, report->crashes);
  EXPECT_GE(report->recall_before_wave, 0.0);
  EXPECT_GE(report->recall_during_wave, 0.0);
  EXPECT_GE(report->recall_after_wave, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ScenarioChurnTest,
                         ::testing::Values(overlay::Kind::kChord,
                                           overlay::Kind::kCan,
                                           overlay::Kind::kTapestry),
                         [](const ::testing::TestParamInfo<overlay::Kind>& i) {
                           return std::string(overlay::KindName(i.param));
                         });

TEST(ScenarioEngineTest, WorkloadShapesAllComplete) {
  for (const WorkloadShape shape :
       {WorkloadShape::kUniform, WorkloadShape::kZipf,
        WorkloadShape::kHotspot}) {
    auto engine = ScenarioEngine::Make(
        SmallConfig(overlay::Kind::kChord, ChurnMode::kNone, shape));
    ASSERT_TRUE(engine.ok());
    auto report = engine->Run();
    ASSERT_TRUE(report.ok()) << WorkloadShapeName(shape);
    EXPECT_EQ(report->queries, 600u) << WorkloadShapeName(shape);
    EXPECT_GT(report->recall_sum, 0.0) << WorkloadShapeName(shape);
  }
}

TEST(ScenarioEngineTest, GaugesFlowIntoSystemMetrics) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  auto report = engine->Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->bytes_per_peer, 0u);
  EXPECT_GT(report->event_queue_depth, 0u);

  SystemMetrics m;
  report->FillMetrics(&m);
  EXPECT_EQ(m.bytes_per_peer, report->bytes_per_peer);
  EXPECT_EQ(m.event_queue_depth, report->event_queue_depth);
  EXPECT_EQ(m.range_lookups, report->queries);
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"bytes_per_peer\":"), std::string::npos);
  EXPECT_NE(json.find("\"event_queue_depth\":"), std::string::npos);
}

TEST(ScenarioEngineTest, ReportJsonCarriesEveryField) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  auto report = engine->Run();
  ASSERT_TRUE(report.ok());
  const std::string json = report->ToJson();
  for (const char* key :
       {"queries", "exact_hits", "approx_hits", "misses", "mean_recall",
        "mean_hops", "messages", "bytes", "publishes", "descriptors_stored",
        "stale_evictions", "crashes", "recoveries", "recovery_ms",
        "bytes_per_peer", "event_queue_depth", "end_time_ms"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\":"), std::string::npos)
        << key;
  }
}

TEST(ScenarioEngineTest, SingleThreadedByDesign) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->on_owner_thread());
  std::atomic<bool> other_thread_owns{true};
  std::thread probe(
      [&] { other_thread_owns = engine->on_owner_thread(); });
  probe.join();
  // Run() CHECK-fails off the owner thread instead of taking locks;
  // the ownership probe is the testable half of that contract.
  EXPECT_FALSE(other_thread_owns);
}

TEST(ScenarioEngineTest, RunIsSingleShot) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_DEATH_IF_SUPPORTED(static_cast<void>(engine->Run()), "");
}

}  // namespace
}  // namespace sim
}  // namespace p2prange
