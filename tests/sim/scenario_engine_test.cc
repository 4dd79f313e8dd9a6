// The scenario engine: event ordering, compact-model routing against
// the oracle, determinism under a seed, churn-mode recall, the
// byte-budget gauges, and the single-threaded-by-design contract.
#include "sim/engine/scenario_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

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

// AliveIndex against a std::vector<bool> reference: every query the
// index answers, recomputed by a scan, after each seeded edit phase.
void ExpectMatchesReference(const AliveIndex& idx, const std::vector<bool>& ref,
                            const std::string& where) {
  const uint32_t n = static_cast<uint32_t>(ref.size());
  ASSERT_EQ(idx.size(), ref.size()) << where;
  std::vector<uint32_t> alive;
  std::vector<size_t> before(n + 1, 0);  // before[e] = alive slots in [0, e)
  for (uint32_t s = 0; s < n; ++s) {
    ASSERT_EQ(idx.IsAlive(s), ref[s]) << where << " slot " << s;
    if (ref[s]) alive.push_back(s);
    before[s + 1] = alive.size();
  }
  ASSERT_EQ(idx.num_alive(), alive.size()) << where;
  // CountIn from every slot when n is small, else from each word
  // boundary and its neighbours, to every end.
  std::vector<uint32_t> begins;
  for (uint32_t b = 0; b <= n; ++b) {
    const uint32_t r = b % 64;
    if (n <= 130 || r <= 1 || r == 63 || b == n) begins.push_back(b);
  }
  for (uint32_t e = 0; e <= n; ++e) {
    ASSERT_EQ(idx.CountBefore(e), before[e]) << where << " end " << e;
  }
  for (const uint32_t b : begins) {
    for (uint32_t e = 0; e <= n; ++e) {
      ASSERT_EQ(idx.CountIn(b, e), e > b ? before[e] - before[b] : 0)
          << where << " [" << b << ", " << e << ")";
    }
  }
  if (alive.empty()) return;  // NextAliveWrapping/SelectAlive need one
  for (size_t k = 0; k < alive.size(); ++k) {
    ASSERT_EQ(idx.SelectAlive(k), alive[k]) << where << " k " << k;
  }
  for (uint32_t s = 0; s < n; ++s) {
    const uint32_t want =
        before[s] < alive.size() ? alive[before[s]] : alive[0];
    ASSERT_EQ(idx.NextAliveWrapping(s), want) << where << " from " << s;
  }
}

TEST(AliveIndexTest, MatchesVectorBoolReferenceUnderSeededEdits) {
  for (const size_t n : {1u, 63u, 64u, 65u, 130u, 4097u}) {
    Rng rng(0xA11CE ^ n);
    AliveIndex idx(n);
    std::vector<bool> ref(n, true);
    auto set = [&](uint32_t slot, bool alive) {
      idx.Set(slot, alive);
      ref[slot] = alive;
    };
    const std::string tag = "n=" + std::to_string(n);
    ExpectMatchesReference(idx, ref, tag + " all alive");
    // Random toggles at a few densities, repeated sets included.
    for (const uint64_t dead_per_16 : {2u, 8u, 15u}) {
      for (size_t i = 0; i < 3 * n; ++i) {
        const uint32_t slot = static_cast<uint32_t>(rng.NextBounded(n));
        set(slot, rng.NextBounded(16) >= dead_per_16);
      }
      ExpectMatchesReference(idx, ref,
                             tag + " density " + std::to_string(dead_per_16));
    }
    // Only each word's first slot alive: every step from inside a word
    // crosses 63 dead slots, and from the last word it wraps to slot 0
    // past live slots behind it in the same word.
    for (uint32_t s = 0; s < n; ++s) set(s, s % 64 == 0);
    ExpectMatchesReference(idx, ref, tag + " word heads");
    // Two whole dead words after each live one: the search past the
    // slot's word and the next, wrapping at the end.
    for (uint32_t s = 0; s < n; ++s) set(s, (s / 64) % 3 == 0 && s % 7 == 0);
    ExpectMatchesReference(idx, ref, tag + " dead words");
    // A single survivor at each end and in the middle.
    for (const uint32_t survivor :
         {0u, static_cast<uint32_t>(n / 2), static_cast<uint32_t>(n - 1)}) {
      for (uint32_t s = 0; s < n; ++s) set(s, s == survivor);
      ExpectMatchesReference(idx, ref,
                             tag + " survivor " + std::to_string(survivor));
    }
    for (uint32_t s = 0; s < n; ++s) set(s, false);
    ExpectMatchesReference(idx, ref, tag + " all dead");
  }
}

// The id-rank directory is std::lower_bound over the sorted ids.
TEST(CompactOverlayRankTest, RankOfIdMatchesLowerBound) {
  for (const size_t n : {1u, 2u, 3u, 65536u, 65537u, 100000u}) {
    auto net = MakeCompactOverlay(overlay::Kind::kChord, n, 9, 2);
    ASSERT_TRUE(net.ok()) << net.status();
    std::vector<uint32_t> ids(n);
    for (size_t s = 0; s < n; ++s) {
      ids[s] = (*net)->id_of(static_cast<uint32_t>(s));
    }
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    auto expect_rank = [&](uint32_t probe) {
      const auto want = static_cast<uint32_t>(
          std::lower_bound(ids.begin(), ids.end(), probe) - ids.begin());
      ASSERT_EQ((*net)->RankOfId(probe), want) << "n=" << n << " id " << probe;
    };
    expect_rank(0);
    expect_rank(std::numeric_limits<uint32_t>::max());
    for (const uint32_t id : ids) {
      expect_rank(id - 1);
      expect_rank(id);
      expect_rank(id + 1);
    }
  }
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

// Every counter of nine small cells, {chord, can, tapestry} x {none,
// churn, crash-wave}, as the binary-search overlay and the scalar hash
// kernel produced them. The word-packed alive index, the id directory
// and the lane-batched hash kernel are pure speedups, so none of these
// may move. bytes_per_peer is left out: it measures the engine's own
// index structures, which those changes resize.
TEST(ScenarioEngineTest, CountersMatchParentGoldens) {
  struct Golden {
    overlay::Kind kind;
    ChurnMode churn;
    const char* json;
  };
  const Golden goldens[] = {
      {overlay::Kind::kChord, ChurnMode::kNone,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":683,\"misses\":817,"
       "\"mean_recall\":0.416,\"hops\":47601,\"mean_hops\":31.734,"
       "\"messages\":77601,\"bytes\":5416464,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":0,\"crashes\":0,"
       "\"recoveries\":0,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1500,"
       "\"end_time_ms\":1500}"},
      {overlay::Kind::kChord, ChurnMode::kChurn,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":682,\"misses\":818,"
       "\"mean_recall\":0.415487,\"hops\":47526,\"mean_hops\":31.684,"
       "\"messages\":77526,\"bytes\":5411664,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":3,\"crashes\":29,"
       "\"recoveries\":29,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1529,"
       "\"end_time_ms\":1850}"},
      {overlay::Kind::kChord, ChurnMode::kCrashWave,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":675,\"misses\":825,"
       "\"mean_recall\":0.411013,\"hops\":47351,\"mean_hops\":31.5673,"
       "\"messages\":77351,\"bytes\":5400464,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":33,\"crashes\":100,"
       "\"recoveries\":100,\"recall_before_wave\":0.252034,"
       "\"recall_during_wave\":0.511179,\"recall_after_wave\":0.560482,"
       "\"recovery_ms\":1,\"event_queue_depth\":1700,\"end_time_ms\":1500}"},
      {overlay::Kind::kCan, ChurnMode::kNone,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":683,\"misses\":817,"
       "\"mean_recall\":0.416,\"hops\":165466,\"mean_hops\":110.311,"
       "\"messages\":195466,\"bytes\":12959824,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":0,\"crashes\":0,"
       "\"recoveries\":0,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1500,"
       "\"end_time_ms\":1500}"},
      {overlay::Kind::kCan, ChurnMode::kChurn,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":682,\"misses\":818,"
       "\"mean_recall\":0.415333,\"hops\":167188,\"mean_hops\":111.459,"
       "\"messages\":197188,\"bytes\":13070032,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":3,\"crashes\":29,"
       "\"recoveries\":29,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1529,"
       "\"end_time_ms\":1850}"},
      {overlay::Kind::kCan, ChurnMode::kCrashWave,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":674,\"misses\":826,"
       "\"mean_recall\":0.410147,\"hops\":165030,\"mean_hops\":110.02,"
       "\"messages\":195030,\"bytes\":12931920,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":33,\"crashes\":100,"
       "\"recoveries\":100,\"recall_before_wave\":0.252034,"
       "\"recall_during_wave\":0.509087,\"recall_after_wave\":0.564186,"
       "\"recovery_ms\":1,\"event_queue_depth\":1700,\"end_time_ms\":1500}"},
      {overlay::Kind::kTapestry, ChurnMode::kNone,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":683,\"misses\":817,"
       "\"mean_recall\":0.416,\"hops\":23720,\"mean_hops\":15.8133,"
       "\"messages\":53720,\"bytes\":3888080,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":0,\"crashes\":0,"
       "\"recoveries\":0,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1500,"
       "\"end_time_ms\":1500}"},
      {overlay::Kind::kTapestry, ChurnMode::kChurn,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":681,\"misses\":819,"
       "\"mean_recall\":0.414821,\"hops\":23697,\"mean_hops\":15.798,"
       "\"messages\":53697,\"bytes\":3886608,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":3,\"crashes\":29,"
       "\"recoveries\":29,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1529,"
       "\"end_time_ms\":1850}"},
      {overlay::Kind::kTapestry, ChurnMode::kCrashWave,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":671,\"misses\":829,"
       "\"mean_recall\":0.408784,\"hops\":23692,\"mean_hops\":15.7947,"
       "\"messages\":53692,\"bytes\":3886288,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":32,\"crashes\":100,"
       "\"recoveries\":100,\"recall_before_wave\":0.252034,"
       "\"recall_during_wave\":0.508254,\"recall_after_wave\":0.550537,"
       "\"recovery_ms\":1,\"event_queue_depth\":1700,\"end_time_ms\":1500}"},
  };
  for (const Golden& g : goldens) {
    ScenarioConfig config;
    config.kind = g.kind;
    config.churn = g.churn;
    config.num_peers = 2000;
    config.num_queries = 1500;
    config.domain = 20000;
    config.seed = 21;
    auto engine = ScenarioEngine::Make(config);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto report = engine->Run();
    ASSERT_TRUE(report.ok()) << report.status();
    std::string json = report->ToJson();
    const size_t at = json.find("\"bytes_per_peer\":");
    ASSERT_NE(at, std::string::npos);
    json.erase(at, json.find(',', at) + 1 - at);
    EXPECT_EQ(json, g.json) << overlay::KindName(g.kind) << " / "
                            << ChurnModeName(g.churn);
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
