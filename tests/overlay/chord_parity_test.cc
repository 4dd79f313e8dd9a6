// Differential parity: the Chord-backed RangeCacheSystem, driven
// through the overlay::Overlay contract that ChordRing implements
// itself, must stay bit-identical to the direct-ChordRing path from
// before the contract existed. The goldens below were captured from
// the tree at the commit before the overlay seam was introduced,
// running exactly this seeded workload (48 peers, paper LSH, 2% loss,
// 90 lookups across a join, a graceful leave, an abrupt failure, and
// a crash/recover cycle). Every RNG draw, retry, and replica-failover
// decision feeds these counters, so any behavioral drift in a change
// to the contract or the ring — reordered draws, changed failover
// policy, different stabilization cadence — shows up as a mismatch
// here.
#include <gtest/gtest.h>

#include "core/system.h"
#include "overlay/overlay.h"
#include "rel/generator.h"

namespace p2prange {
namespace {

TEST(ChordParityTest, SeededWorkloadMatchesPreRefactorGoldens) {
  SystemConfig cfg;
  cfg.num_peers = 48;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 7);
  cfg.seed = 7;
  cfg.descriptor_replication = 3;
  cfg.overlay.latency.loss_rate = 0.02;
  auto sysr = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(2000, 0, 1000, 5));
  ASSERT_TRUE(sysr.ok()) << sysr.status();
  auto sys = std::move(sysr).ValueUnsafe();
  ASSERT_EQ(sys.overlay().kind(), overlay::Kind::kChord);

  long hops = 0;
  int exact = 0, approx = 0, miss = 0;
  double recall_sum = 0;
  auto run = [&](uint32_t lo, uint32_t hi) {
    auto out = sys.LookupRange(PartitionKey{"Numbers", "key", Range(lo, hi)});
    ASSERT_TRUE(out.ok()) << out.status();
    hops += out->hops;
    if (out->match) {
      recall_sum += out->match->recall;
      if (out->match->exact) {
        ++exact;
      } else {
        ++approx;
      }
    } else {
      ++miss;
    }
  };

  for (int i = 0; i < 40; ++i) {
    const uint32_t lo = static_cast<uint32_t>((i * 37) % 900);
    run(lo, lo + 40 + static_cast<uint32_t>(i % 50));
  }

  // Churn: a join, a graceful leave, an abrupt failure, crash/recover.
  ASSERT_TRUE(sys.AddPeer().ok());
  auto pick_victim = [&]() {
    for (;;) {
      auto v = sys.overlay().RandomAliveAddress();
      EXPECT_TRUE(v.ok());
      if (*v != sys.source_address()) return *v;
    }
  };
  const NetAddress v1 = pick_victim();
  ASSERT_TRUE(sys.RemovePeer(v1, /*graceful=*/true).ok());
  const NetAddress v2 = pick_victim();
  ASSERT_TRUE(sys.RemovePeer(v2, /*graceful=*/false).ok());
  const NetAddress v3 = pick_victim();
  ASSERT_TRUE(sys.CrashPeer(v3).ok());
  for (int i = 0; i < 10; ++i) {
    const uint32_t lo = static_cast<uint32_t>((i * 53) % 900);
    run(lo, lo + 60);
  }
  ASSERT_TRUE(sys.RecoverPeer(v3).ok());
  for (int i = 0; i < 40; ++i) {
    const uint32_t lo = static_cast<uint32_t>((i * 37) % 900);
    run(lo, lo + 40 + static_cast<uint32_t>(i % 50));
  }

  // Aggregates observed at the query API.
  EXPECT_EQ(hops, 1346);
  EXPECT_EQ(exact, 34);
  EXPECT_EQ(approx, 3);
  EXPECT_EQ(miss, 53);
  EXPECT_NEAR(recall_sum, 36.134740624, 1e-8);

  // Full metrics surface.
  const SystemMetrics& m = sys.metrics();
  EXPECT_EQ(m.range_lookups, 90u);
  EXPECT_EQ(m.exact_hits, 34u);
  EXPECT_EQ(m.approx_hits, 3u);
  EXPECT_EQ(m.misses, 53u);
  EXPECT_EQ(m.partitions_published, 56u);
  EXPECT_EQ(m.descriptors_stored, 742u);
  EXPECT_EQ(m.chord_hops, 1346u);
  EXPECT_EQ(m.retransmissions, 18u);
  EXPECT_EQ(m.stale_evictions, 15u);
  EXPECT_EQ(m.peer_crashes, 1u);
  EXPECT_EQ(m.peer_recoveries, 1u);
  // Replayed records depend on where the peer's last checkpoint fell
  // (the log is checkpointed once it reaches the last snapshot's size);
  // the restored count does not.
  EXPECT_EQ(m.wal_records_replayed, 1u);
  EXPECT_EQ(m.recovery_descriptors_restored, 5u);
  EXPECT_EQ(m.recovery_descriptors_repaired, 1u);

  // Wire-level accounting: every message the refactored path sent.
  const NetworkStats& st = sys.overlay().net_stats();
  EXPECT_EQ(st.messages, 2675u);
  EXPECT_EQ(st.bytes, 171228u);
  EXPECT_EQ(st.failed_deliveries, 0u);
  EXPECT_EQ(st.lost_messages, 44u);
}

}  // namespace
}  // namespace p2prange
