// Fault injection: messages to live peers dropped in transit
// (LatencyModel::loss_rate). Routing retransmits; the protocol keeps
// its guarantees at the cost of extra messages and latency.
#include <gtest/gtest.h>

#include "chord/ring.h"
#include "core/system.h"
#include "rel/generator.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

TEST(MessageLossTest, NetworkCountsLostMessages) {
  LatencyModel model;
  model.loss_rate = 0.5;
  SimNetwork net(model, 3);
  const NetAddress a{1, 1}, b{2, 2};
  net.Register(a);
  net.Register(b);
  size_t lost = 0, delivered = 0;
  for (int i = 0; i < 400; ++i) {
    auto r = net.Deliver(a, b);
    if (r.ok()) {
      ++delivered;
    } else {
      EXPECT_TRUE(r.status().IsIOError());
      ++lost;
    }
  }
  EXPECT_EQ(net.stats().lost_messages, lost);
  EXPECT_NEAR(static_cast<double>(lost) / 400.0, 0.5, 0.1);
  EXPECT_EQ(net.stats().messages, 400u) << "lost messages still hit the wire";
}

TEST(MessageLossTest, ChordLookupsSurviveModerateLoss) {
  overlay::OverlayParams cfg;
  cfg.latency.loss_rate = 0.1;
  cfg.max_message_retries = 5;
  auto ring = chord::ChordRing::Make(128, 7, cfg);
  ASSERT_TRUE(ring.ok());
  Rng rng(11);
  int succeeded = 0;
  for (int i = 0; i < 200; ++i) {
    const chord::ChordId target = rng.Next32();
    auto origin = ring->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto expected = ring->OwnerOracle(target);
    auto result = ring->RouteToOwner(*origin, target);
    ASSERT_TRUE(expected.ok());
    if (result.ok()) {
      ++succeeded;
      EXPECT_EQ(result->owner, *expected);
    }
  }
  // With loss 0.1 and 5 retries, per-hop failure is 1e-6; essentially
  // every lookup completes.
  EXPECT_GE(succeeded, 199);
  EXPECT_GT(ring->net_stats().lost_messages, 0u);
}

TEST(MessageLossTest, RetriesInflateMessageCountNotHops) {
  overlay::OverlayParams lossless;
  overlay::OverlayParams lossy;
  lossy.latency.loss_rate = 0.2;
  lossy.max_message_retries = 8;
  auto ring_ok = chord::ChordRing::Make(64, 9, lossless);
  auto ring_lossy = chord::ChordRing::Make(64, 9, lossy);
  ASSERT_TRUE(ring_ok.ok());
  ASSERT_TRUE(ring_lossy.ok());
  Rng rng(13);
  uint64_t hops_ok = 0, hops_lossy = 0;
  for (int i = 0; i < 100; ++i) {
    const chord::ChordId target = rng.Next32();
    auto o1 = ring_ok->RandomAliveAddress();
    auto o2 = ring_lossy->RandomAliveAddress();
    ASSERT_TRUE(o1.ok());
    ASSERT_TRUE(o2.ok());
    auto r1 = ring_ok->RouteToOwner(*o1, target);
    auto r2 = ring_lossy->RouteToOwner(*o2, target);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok()) << r2.status();
    hops_ok += static_cast<uint64_t>(r1->hops);
    hops_lossy += static_cast<uint64_t>(r2->hops);
  }
  // Hops measure distinct peers contacted; both rings are built with
  // the same seed, so the totals match while the lossy ring sends more
  // raw messages.
  EXPECT_EQ(hops_ok, hops_lossy);
  EXPECT_GT(ring_lossy->net_stats().messages,
            ring_ok->net_stats().messages);
}

TEST(MessageLossTest, EndToEndQueriesRemainExactUnderLoss) {
  Catalog cat = MakeMedicalCatalog();
  MedicalDataSpec spec;
  spec.num_patients = 150;
  ASSERT_TRUE(PopulateMedicalData(spec, &cat).ok());
  SystemConfig cfg;
  cfg.num_peers = 32;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 15);
  cfg.criterion = MatchCriterion::kContainment;
  cfg.overlay.latency.loss_rate = 0.05;
  cfg.overlay.max_message_retries = 6;
  cfg.seed = 15;
  auto sys = RangeCacheSystem::Make(cfg, cat);
  ASSERT_TRUE(sys.ok());
  size_t expected = 0;
  for (const Row& row : (*cat.GetBaseData("Patient"))->rows()) {
    const int64_t age = row[2].AsInt();
    if (age >= 30 && age <= 60) ++expected;
  }
  for (int i = 0; i < 10; ++i) {
    auto outcome =
        sys->ExecuteQuery("SELECT * FROM Patient WHERE age >= 30 AND age <= 60");
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->result.num_rows(), expected);
  }
  EXPECT_GT(sys->overlay().net_stats().lost_messages, 0u);
}

// System-level robustness: abrupt departures *between* queries while
// every message risks transit loss. No query may fail, and because
// partial answers are off, every answer stays exact — a dead cache
// holder just reroutes the leaf to the source.
TEST(MessageLossTest, QueriesStayExactUnderAbruptChurnAndLoss) {
  SystemConfig cfg;
  cfg.num_peers = 40;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 23);
  cfg.descriptor_replication = 2;
  cfg.overlay.latency.loss_rate = 0.1;
  cfg.overlay.max_message_retries = 8;
  cfg.fault.max_retries = 8;
  cfg.seed = 23;
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(1500, 0, 1000, 9));
  ASSERT_TRUE(sys.ok()) << sys.status();
  UniformRangeGenerator gen(0, 1000, 23);
  int removed = 0;
  for (int i = 0; i < 40; ++i) {
    if (i % 5 == 4 && removed < 8) {
      // One abrupt departure between queries: no leave protocol, no
      // handoff, descriptors pointing at it go stale.
      for (int tries = 0; tries < 20; ++tries) {
        auto victim = sys->overlay().RandomAliveAddress();
        ASSERT_TRUE(victim.ok());
        if (*victim == sys->source_address()) continue;
        ASSERT_TRUE(sys->RemovePeer(*victim, /*graceful=*/false).ok());
        ++removed;
        break;
      }
      sys->overlay().Stabilize(1);
    }
    const Range r = gen.Next();
    size_t expected = 0;
    for (const Row& row : (*sys->catalog().GetBaseData("Numbers"))->rows()) {
      const int64_t key = row[0].AsInt();
      if (key >= r.lo() && key <= r.hi()) ++expected;
    }
    auto outcome = sys->ExecuteQuery(
        "SELECT * FROM Numbers WHERE key >= " + std::to_string(r.lo()) +
        " AND key <= " + std::to_string(r.hi()));
    ASSERT_TRUE(outcome.ok()) << outcome.status() << " at query " << i;
    EXPECT_EQ(outcome->result.num_rows(), expected) << "query " << i;
  }
  EXPECT_EQ(removed, 8);
  EXPECT_GT(sys->overlay().net_stats().lost_messages, 0u);
  EXPECT_GT(sys->metrics().retransmissions, 0u);
}

}  // namespace
}  // namespace p2prange
