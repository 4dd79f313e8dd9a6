// Durability acceptance tests: crash a large fraction of the overlay
// mid-workload — with storage faults (torn WAL tails, bit flips)
// injected at crash time — recover everyone through checkpoint + WAL
// replay + replica repair, and require cache effectiveness to come
// back. The acceptance bar from the durability work: after crashing
// 20% of the peers, recovered recall stays within 2 points of the
// pre-crash measurement.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "chord/ring.h"
#include "common/crc32c.h"
#include "core/system.h"
#include "rel/generator.h"
#include "sim/fault_injector.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

PartitionKey NumbersKey(uint32_t lo, uint32_t hi) {
  return PartitionKey{"Numbers", "key", Range(lo, hi)};
}

SystemConfig RecoveryConfig(uint64_t seed) {
  SystemConfig cfg;
  cfg.num_peers = 50;
  cfg.descriptor_replication = 2;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, seed);
  cfg.seed = seed;
  return cfg;
}

RangeCacheSystem MakeNumbersSystem(const SystemConfig& cfg) {
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(2000, 0, 1000, 5));
  EXPECT_TRUE(sys.ok()) << sys.status();
  return std::move(sys).ValueUnsafe();
}

/// Mean §5.2 recall over a fixed probe set (0 when nothing matched).
double MeanRecall(RangeCacheSystem& sys, const std::vector<PartitionKey>& probes) {
  double sum = 0.0;
  for (const PartitionKey& key : probes) {
    auto outcome = sys.LookupRange(key);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    if (outcome.ok() && outcome->match.has_value()) sum += outcome->match->recall;
  }
  return sum / static_cast<double>(probes.size());
}

/// Warms the caches with `n` random-range lookups.
void Warm(RangeCacheSystem& sys, uint64_t seed, int n) {
  UniformRangeGenerator gen(0, 1000, seed);
  for (int i = 0; i < n; ++i) {
    const Range r = gen.Next();
    ASSERT_TRUE(sys.LookupRange(NumbersKey(r.lo(), r.hi())).ok());
  }
}

/// Samples up to `want` distinct live peers (excluding the source)
/// that hold descriptors.
std::vector<NetAddress> LoadedPeers(RangeCacheSystem& sys, size_t want) {
  std::vector<NetAddress> out;
  std::set<NetAddress> seen;
  for (int i = 0; i < 400 && out.size() < want; ++i) {
    auto addr = sys.overlay().RandomAliveAddress();
    if (!addr.ok() || *addr == sys.source_address()) continue;
    if (!seen.insert(*addr).second) continue;
    const Peer* p = sys.peer(*addr);
    if (p != nullptr && p->store().num_descriptors() > 0) out.push_back(*addr);
  }
  return out;
}

// The acceptance bar: crash 20% of the peers mid-workload with storage
// faults armed, recover all of them, and recall on a fixed probe set
// must land within 2 points of the pre-crash measurement.
TEST(CrashRecoveryIntegrationTest, TwentyPercentCrashRecoversRecall) {
  SystemConfig cfg = RecoveryConfig(131);
  auto sys = MakeNumbersSystem(cfg);
  Warm(sys, 131, 80);

  std::vector<PartitionKey> probes;
  UniformRangeGenerator probe_gen(0, 1000, 977);
  for (int i = 0; i < 20; ++i) {
    const Range r = probe_gen.Next();
    probes.push_back(NumbersKey(r.lo(), r.hi()));
  }
  const double pre = MeanRecall(sys, probes);
  ASSERT_GT(pre, 0.0) << "warm-up should produce cached matches";

  FaultInjectorConfig fcfg;
  fcfg.torn_write_prob = 0.5;
  fcfg.bit_flip_prob = 0.3;
  fcfg.min_alive = 8;
  fcfg.seed = 131;
  FaultInjector injector(&sys, fcfg);
  const size_t to_crash = cfg.num_peers / 5;  // 20%
  for (size_t i = 0; i < to_crash; ++i) {
    ASSERT_TRUE(injector.CrashRandomPeer().ok());
  }
  ASSERT_EQ(injector.num_crashed(), to_crash);
  while (injector.RecoverOneCrashedPeer().ok()) {
  }
  ASSERT_EQ(injector.num_crashed(), 0u);

  const SystemMetrics& m = sys.metrics();
  EXPECT_EQ(m.peer_crashes, to_crash);
  EXPECT_EQ(m.peer_recoveries, to_crash);
  EXPECT_GT(m.wal_records_replayed, 0u) << "recovery must actually replay";
  EXPECT_GT(m.recovery_descriptors_restored, 0u);

  const double post = MeanRecall(sys, probes);
  EXPECT_GE(post, pre - 0.02)
      << "recall must recover to within 2 points: pre=" << pre
      << " post=" << post << "\n"
      << m.ToString();
}

// Torn WAL tails surface in the recovery metrics, and what replay
// cannot restore, post-recovery repair re-pulls from live replicas.
TEST(CrashRecoveryIntegrationTest, TornWalRepairsFromLiveReplicas) {
  SystemConfig cfg = RecoveryConfig(245);
  cfg.num_peers = 48;
  auto sys = MakeNumbersSystem(cfg);
  Warm(sys, 245, 60);

  size_t torn = 0;
  for (const NetAddress& victim : LoadedPeers(sys, 4)) {
    Peer* p = sys.peer(victim);
    ASSERT_NE(p, nullptr);
    std::string& wal = p->durable().wal().mutable_image();
    if (wal.size() <= kCrc32cFrameHeaderBytes) continue;
    ASSERT_TRUE(sys.CrashPeer(victim).ok());
    // Tear the log mid-frame: everything but a stub of the first
    // record's header is lost in the "crash".
    wal.resize(kCrc32cFrameHeaderBytes / 2);
    ++torn;
    ASSERT_TRUE(sys.RecoverPeer(victim).ok());
  }
  ASSERT_GT(torn, 0u) << "no victim had a non-empty WAL";

  const SystemMetrics& m = sys.metrics();
  EXPECT_EQ(m.recoveries_torn_tail, torn)
      << "every torn log must be detected: " << m.ToString();
  EXPECT_GT(m.recovery_descriptors_repaired, 0u)
      << "replica repair must re-pull what the torn logs lost: "
      << m.ToString();

  // The repaired overlay still serves lookups end to end.
  auto outcome = sys.LookupRange(NumbersKey(400, 500));
  EXPECT_TRUE(outcome.ok()) << outcome.status();
}

}  // namespace
}  // namespace p2prange
