// Fault-tolerance acceptance tests: abrupt crashes, permanent kills,
// and mid-query failures injected against a full RangeCacheSystem.
// Queries must degrade — visible in SystemMetrics and in the
// RangeLookupOutcome bookkeeping — but never return an error the
// source could have answered.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "chord/ring.h"
#include "core/system.h"
#include "rel/generator.h"
#include "sim/fault_injector.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

PartitionKey NumbersKey(uint32_t lo, uint32_t hi) {
  return PartitionKey{"Numbers", "key", Range(lo, hi)};
}

SystemConfig FaultyConfig(uint64_t seed) {
  SystemConfig cfg;
  cfg.num_peers = 48;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, seed);
  cfg.seed = seed;
  return cfg;
}

RangeCacheSystem MakeNumbersSystem(const SystemConfig& cfg) {
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(2000, 0, 1000, 5));
  EXPECT_TRUE(sys.ok()) << sys.status();
  return std::move(sys).ValueUnsafe();
}

// --- Config validation ------------------------------------------------

TEST(FaultPolicyTest, ValidateRejectsBadFields) {
  FaultPolicy p;
  EXPECT_TRUE(p.Validate().ok());
  p.max_retries = -1;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  for (double budget : {-2.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
    p = FaultPolicy{};
    p.op_budget_ms = budget;
    EXPECT_TRUE(p.Validate().IsInvalidArgument()) << budget;
  }
}

TEST(FaultPolicyTest, SystemMakeValidatesPolicy) {
  SystemConfig cfg = FaultyConfig(3);
  cfg.fault.max_retries = -2;
  EXPECT_TRUE(RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 10, 1))
                  .status()
                  .IsInvalidArgument());
}

TEST(LatencyModelTest, ValidateRejectsBadModels) {
  LatencyModel m;
  EXPECT_TRUE(m.Validate().ok());
  m.loss_rate = 1.0;  // would drop every message
  EXPECT_TRUE(m.Validate().IsInvalidArgument());
  m = LatencyModel{};
  m.loss_rate = -0.1;
  EXPECT_TRUE(m.Validate().IsInvalidArgument());
  m = LatencyModel{};
  m.base_ms = -5.0;
  EXPECT_TRUE(m.Validate().IsInvalidArgument());
}

TEST(LatencyModelTest, ChordRingMakeValidatesModel) {
  overlay::OverlayParams cfg;
  cfg.latency.loss_rate = 1.5;
  EXPECT_TRUE(chord::ChordRing::Make(16, 11, cfg).status().IsInvalidArgument());
  cfg = overlay::OverlayParams{};
  cfg.latency.jitter_ms = -1.0;
  EXPECT_TRUE(chord::ChordRing::Make(16, 11, cfg).status().IsInvalidArgument());
  cfg = overlay::OverlayParams{};
  cfg.max_message_retries = -1;
  EXPECT_TRUE(chord::ChordRing::Make(16, 11, cfg).status().IsInvalidArgument());
}

// --- Stale-descriptor plumbing ----------------------------------------

TEST(StaleRepairTest, BucketStoreEraseStaleRemovesAllCopies) {
  BucketStore store;
  const PartitionKey key = NumbersKey(100, 200);
  const NetAddress dead{7, 7}, live{8, 8};
  EXPECT_TRUE(store.Insert(11, PartitionDescriptor{key, dead}));
  EXPECT_TRUE(store.Insert(22, PartitionDescriptor{key, dead}));
  EXPECT_TRUE(store.Insert(33, PartitionDescriptor{NumbersKey(100, 200), live}));
  EXPECT_TRUE(store.Insert(11, PartitionDescriptor{NumbersKey(0, 50), dead}));
  ASSERT_EQ(store.num_descriptors(), 4u);

  EXPECT_EQ(store.EraseStale(key, dead), 2u);
  EXPECT_EQ(store.num_descriptors(), 2u);
  // The live holder's copy and the other range survive.
  EXPECT_TRUE(store.ContainsExact(33, key));
  EXPECT_TRUE(store.ContainsExact(11, NumbersKey(0, 50)));
  EXPECT_FALSE(store.ContainsExact(11, key));
  EXPECT_EQ(store.EraseStale(key, dead), 0u) << "idempotent";
}

TEST(StaleRepairTest, PeerEraseEqDescriptor) {
  Peer peer(overlay::PeerInfo{}, 0);
  peer.StoreEqDescriptor(5, EqDescriptor{"k1", NetAddress{1, 1}});
  peer.StoreEqDescriptor(5, EqDescriptor{"k2", NetAddress{2, 2}});
  EXPECT_FALSE(peer.EraseEqDescriptor(5, "k1", NetAddress{9, 9}))
      << "holder must match";
  EXPECT_TRUE(peer.EraseEqDescriptor(5, "k1", NetAddress{1, 1}));
  EXPECT_FALSE(peer.FindEqDescriptor(5, "k1").has_value());
  EXPECT_TRUE(peer.FindEqDescriptor(5, "k2").has_value());
}

// --- Crash / recover at the system layer ------------------------------

TEST(CrashRecoverTest, SourceCannotCrashAndDoubleCrashRejected) {
  auto sys = MakeNumbersSystem(FaultyConfig(9));
  EXPECT_TRUE(sys.CrashPeer(sys.source_address()).IsInvalidArgument());
  auto victim = sys.overlay().RandomAliveAddress();
  ASSERT_TRUE(victim.ok());
  while (*victim == sys.source_address()) {
    victim = sys.overlay().RandomAliveAddress();
    ASSERT_TRUE(victim.ok());
  }
  ASSERT_TRUE(sys.CrashPeer(*victim).ok());
  EXPECT_TRUE(sys.CrashPeer(*victim).IsInvalidArgument());
  EXPECT_TRUE(sys.RecoverPeer(*victim).ok());
  EXPECT_TRUE(sys.RecoverPeer(*victim).IsInvalidArgument());
}

TEST(CrashRecoverTest, RecoveredPeerKeepsItsDescriptors) {
  SystemConfig cfg = FaultyConfig(21);
  auto sys = MakeNumbersSystem(cfg);
  // Populate caches; find a peer holding descriptors.
  Rng rng(21);
  UniformRangeGenerator gen(0, 1000, 21);
  for (int i = 0; i < 30; ++i) {
    const Range r = gen.Next();
    ASSERT_TRUE(sys.LookupRange(NumbersKey(r.lo(), r.hi())).ok());
  }
  NetAddress loaded{};
  size_t before = 0;
  for (int i = 0; i < 200 && before == 0; ++i) {
    auto addr = sys.overlay().RandomAliveAddress();
    ASSERT_TRUE(addr.ok());
    if (*addr == sys.source_address()) continue;
    const Peer* p = sys.peer(*addr);
    ASSERT_NE(p, nullptr);
    if (p->store().num_descriptors() > 0) {
      loaded = *addr;
      before = p->store().num_descriptors();
    }
  }
  ASSERT_GT(before, 0u) << "no peer accumulated descriptors";
  ASSERT_TRUE(sys.CrashPeer(loaded).ok());
  EXPECT_FALSE(sys.overlay().IsAlive(loaded));
  ASSERT_TRUE(sys.RecoverPeer(loaded).ok());
  EXPECT_TRUE(sys.overlay().IsAlive(loaded));
  EXPECT_EQ(sys.peer(loaded)->store().num_descriptors(), before)
      << "crash/recover must not lose state";
  // The recovered node routes again.
  auto outcome = sys.LookupRangeFrom(loaded, NumbersKey(100, 200));
  EXPECT_TRUE(outcome.ok()) << outcome.status();
}

// Crashes every owner of the in-flight query at the "probe" step —
// after routing resolved them, before they answer (the moment the ring
// cannot route around).
void CrashOwnersMidQuery(RangeCacheSystem* sys,
                         const std::vector<NetAddress>& owners,
                         const NetAddress& origin) {
  sys->set_step_hook([sys, owners, origin](const char* stage) {
    if (std::string(stage) != "probe") return;
    for (const NetAddress& owner : owners) {
      if (owner == sys->source_address() || owner == origin) continue;
      sys->CrashPeer(owner).IgnoreError();  // idempotent across probes
    }
  });
}

TEST(CrashRecoverTest, CrashedOwnersDegradeLookupsInsteadOfFailingThem) {
  SystemConfig cfg = FaultyConfig(33);
  auto sys = MakeNumbersSystem(cfg);
  ASSERT_TRUE(sys.LookupRange(NumbersKey(300, 400)).ok());
  auto probe = sys.LookupRange(NumbersKey(300, 400));
  ASSERT_TRUE(probe.ok());
  const NetAddress origin = sys.source_address();
  CrashOwnersMidQuery(&sys, probe->probed_owners, origin);
  auto degraded = sys.LookupRangeFrom(origin, NumbersKey(300, 400));
  sys.set_step_hook(nullptr);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_GT(degraded->probes_failed, 0);
  EXPECT_GT(sys.metrics().probes_failed, 0u);
  EXPECT_GT(sys.metrics().degraded_lookups, 0u);
}

TEST(CrashRecoverTest, ReplicationFailsOverToSuccessors) {
  SystemConfig cfg = FaultyConfig(45);
  cfg.descriptor_replication = 3;
  auto sys = MakeNumbersSystem(cfg);
  ASSERT_TRUE(sys.LookupRange(NumbersKey(500, 600)).ok());
  auto probe = sys.LookupRange(NumbersKey(500, 600));
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(probe->match.has_value());
  const NetAddress origin = sys.source_address();
  CrashOwnersMidQuery(&sys, probe->probed_owners, origin);
  auto after = sys.LookupRangeFrom(origin, NumbersKey(500, 600));
  sys.set_step_hook(nullptr);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->match.has_value())
      << "replicas at the owners' successors should still answer";
  EXPECT_GT(sys.metrics().probe_failovers, 0u);
  EXPECT_GT(after->failovers, 0);
}

TEST(CrashRecoverTest, StaleDescriptorsRepairedAndQueryFallsToSource) {
  SystemConfig cfg = FaultyConfig(57);
  auto sys = MakeNumbersSystem(cfg);
  const std::string sql = "SELECT * FROM Numbers WHERE key >= 250 AND key <= 350";
  auto first = sys.ExecuteQuery(sql);
  ASSERT_TRUE(first.ok()) << first.status();
  const size_t expected = first->result.num_rows();
  ASSERT_GT(expected, 0u);
  // Find the holder the caches now point at; kill it *between* the
  // successful probe and the fetch, so the match is already committed
  // when the holder turns out to be dead.
  auto lookup = sys.LookupRange(NumbersKey(250, 350));
  ASSERT_TRUE(lookup.ok());
  ASSERT_TRUE(lookup->match.has_value());
  const NetAddress holder = lookup->match->holder;
  ASSERT_NE(holder, sys.source_address());

  NetAddress client = sys.source_address();
  for (int i = 0; i < 100 && (client == sys.source_address() || client == holder);
       ++i) {
    auto addr = sys.overlay().RandomAliveAddress();
    ASSERT_TRUE(addr.ok());
    client = *addr;
  }
  ASSERT_NE(client, holder);
  sys.set_step_hook([&sys, holder](const char* stage) {
    if (std::string(stage) == "fetch") {
      sys.CrashPeer(holder).IgnoreError();  // repeat fetches: already down
    }
  });
  auto second = sys.ExecuteQueryFrom(client, sql);
  sys.set_step_hook(nullptr);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->result.num_rows(), expected)
      << "the source answers what the dead cache cannot";
  EXPECT_GT(sys.metrics().stale_evictions, 0u)
      << "probing owners evict the dead holder's descriptors";
  EXPECT_GT(sys.metrics().source_fallbacks, 0u);

  // The repair is durable: a fresh probe no longer surfaces the dead
  // holder as a candidate.
  auto repaired = sys.LookupRangeFrom(client, NumbersKey(250, 350));
  ASSERT_TRUE(repaired.ok());
  for (const RangeMatch& m : repaired->ranked) {
    EXPECT_NE(m.holder, holder);
  }
}

TEST(CrashRecoverTest, OpBudgetCutsLookupsShort) {
  SystemConfig cfg = FaultyConfig(69);
  cfg.fault.op_budget_ms = 0.001;  // practically no budget
  auto sys = MakeNumbersSystem(cfg);
  auto outcome = sys.LookupRange(NumbersKey(10, 90));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->degraded);
  EXPECT_GT(sys.metrics().budget_exhausted, 0u);
}

// --- FaultInjector harness --------------------------------------------

TEST(FaultInjectorTest, ScriptedCrashAndRecoverCycle) {
  auto sys = MakeNumbersSystem(FaultyConfig(81));
  FaultInjectorConfig fcfg;
  fcfg.seed = 81;
  FaultInjector injector(&sys, fcfg);
  const size_t alive_before = sys.overlay().num_alive();
  ASSERT_TRUE(injector.CrashRandomPeer().ok());
  ASSERT_TRUE(injector.CrashRandomPeer().ok());
  EXPECT_EQ(injector.num_crashed(), 2u);
  EXPECT_EQ(sys.overlay().num_alive(), alive_before - 2);
  ASSERT_TRUE(injector.RecoverOneCrashedPeer().ok());
  ASSERT_TRUE(injector.RecoverOneCrashedPeer().ok());
  EXPECT_TRUE(injector.RecoverOneCrashedPeer().IsNotFound());
  EXPECT_EQ(sys.overlay().num_alive(), alive_before);
}

TEST(FaultInjectorTest, MinAliveFloorHolds) {
  SystemConfig cfg = FaultyConfig(93);
  cfg.num_peers = 8;
  auto sys = MakeNumbersSystem(cfg);
  FaultInjectorConfig fcfg;
  fcfg.min_alive = 6;
  fcfg.seed = 93;
  FaultInjector injector(&sys, fcfg);
  ASSERT_TRUE(injector.CrashRandomPeer().ok());
  ASSERT_TRUE(injector.CrashRandomPeer().ok());
  EXPECT_TRUE(injector.CrashRandomPeer().IsInvalidArgument());
  EXPECT_TRUE(injector.KillRandomPeer().IsInvalidArgument());
  EXPECT_EQ(sys.overlay().num_alive(), 6u);
}

TEST(FaultInjectorTest, MidQueryCrashesNeverFailLookups) {
  SystemConfig cfg = FaultyConfig(105);
  cfg.descriptor_replication = 2;
  auto sys = MakeNumbersSystem(cfg);
  FaultInjectorConfig fcfg;
  fcfg.mid_query_crash_prob = 0.15;
  fcfg.recover_prob = 0.5;
  fcfg.stabilize_every = 5;
  fcfg.min_alive = 8;
  fcfg.seed = 105;
  FaultInjector injector(&sys, fcfg);
  UniformRangeGenerator gen(0, 1000, 105);
  auto report = injector.RunLookups(
      [&] {
        const Range r = gen.Next();
        return NumbersKey(r.lo(), r.hi());
      },
      60);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->queries, 60u);
  EXPECT_EQ(report->errors, 0u) << report->ToString();
  EXPECT_GT(report->crashes, 0u) << "the schedule should actually fire";
}

// --- The acceptance bar -----------------------------------------------
//
// 20% of the peers fail abruptly mid-workload while every message
// risks transit loss (loss_rate = 0.1). Zero queries may return an
// error; the degradation must be visible in SystemMetrics.
TEST(FaultInjectorTest, AbruptFailuresWithLossNeverFailQueries) {
  SystemConfig cfg = FaultyConfig(117);
  cfg.num_peers = 50;
  cfg.descriptor_replication = 2;
  cfg.overlay.latency.loss_rate = 0.1;
  cfg.overlay.max_message_retries = 8;
  cfg.fault.max_retries = 8;
  auto sys = MakeNumbersSystem(cfg);

  FaultInjectorConfig fcfg;
  // Kill 10 of the 50 peers (20%), spread across the workload; crash
  // a few more transiently while queries are in flight.
  for (size_t step = 4; step <= 40; step += 4) {
    fcfg.script.push_back({step, FaultAction::kKill, 1});
  }
  fcfg.mid_query_crash_prob = 0.02;
  fcfg.stabilize_every = 4;
  fcfg.min_alive = 8;
  fcfg.seed = 117;
  FaultInjector injector(&sys, fcfg);

  UniformRangeGenerator gen(0, 1000, 117);
  auto report = injector.RunQueries(
      [&] {
        const Range r = gen.Next();
        return "SELECT * FROM Numbers WHERE key >= " + std::to_string(r.lo()) +
               " AND key <= " + std::to_string(r.hi());
      },
      60);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->queries, 60u);
  EXPECT_EQ(report->errors, 0u) << report->ToString();
  EXPECT_EQ(report->kills, 10u);

  const SystemMetrics& m = sys.metrics();
  EXPECT_GT(m.retransmissions, 0u) << "loss must have been retried";
  EXPECT_GT(m.degraded_lookups + m.probes_failed + m.stale_evictions +
                m.source_fallbacks + m.probe_failovers,
            0u)
      << "degradation must be observable: " << m.ToString();
  // Exact answers throughout: every query was still answered fully
  // (cache or source), never with silently wrong contents.
  EXPECT_EQ(report->complete, report->queries) << report->ToString();
}

}  // namespace
}  // namespace p2prange
