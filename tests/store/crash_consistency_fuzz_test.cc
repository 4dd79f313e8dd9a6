// Crash-consistency fuzzer for the durable descriptor store.
//
// Drives randomized insert/erase workloads against a
// DurableDescriptorStore, capturing the full "disk" (WAL image + both
// snapshot slots) after every operation and in the window between a
// checkpoint's snapshot write and its WAL truncation. Each captured
// disk is a crash point; recovery from it — clean, with a torn WAL
// tail, or with a flipped bit — must satisfy:
//
//  1. Prefix consistency: the recovered store equals the store as it
//     stood after SOME earlier operation (never a state that never
//     existed, never reordered or half-applied effects).
//  2. No undetected corruption: whenever recovery returns anything
//     other than the exact pre-crash state, it must say so (torn_tail,
//     wal_corrupted, snapshot_fallback, or wal_gap) — data loss is
//     allowed, silent data loss is not. The one principled exception:
//     a tear landing exactly on a frame boundary is byte-identical to
//     a disk where the lost appends never happened (an earlier clean
//     crash), so no log-structured store can flag it.
//  3. A clean crash (disk intact) recovers the exact pre-crash state.
//
// Point count scales with P2PRANGE_CRASH_FUZZ_POINTS (default exceeds
// 1000 crash points, i.e. >3000 recoveries across the 3 mutations).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "store/durable_store.h"
#include "wire/serde.h"

namespace p2prange {
namespace store {
namespace {

/// Canonical serialization of a store's full logical state, recency
/// order included — byte equality iff store equality.
std::string Canon(const BucketStore& store) {
  wire::Encoder enc;
  for (const auto& [bucket, descriptor] : store.EntriesOldestFirst()) {
    enc.PutVarint(bucket);
    wire::EncodePartitionDescriptor(descriptor, &enc);
  }
  return enc.Take();
}

/// True iff `size` lands exactly on a frame boundary of `wal` — the
/// truncated image then parses cleanly and is indistinguishable from a
/// log whose trailing appends never happened.
bool IsFrameAligned(const std::string& wal, size_t size) {
  size_t off = 0;
  while (off < size) {
    if (size - off < kCrc32cFrameHeaderBytes) return false;
    off += kCrc32cFrameHeaderBytes +
           ReadCrc32cFrameHeader(wal.data() + off).payload_len;
  }
  return off == size;
}

struct CrashPoint {
  std::string wal;
  std::string slot0;
  std::string slot1;
  std::string expected;  ///< canonical state a clean recovery must hit
  size_t num_prior_states = 0;  ///< prefix states recorded before this point
};

struct FuzzScenario {
  size_t capacity = 0;
  uint64_t seed = 0;
};

class CrashConsistencyFuzz : public ::testing::Test {
 protected:
  static size_t PointBudget() {
    if (const char* env = std::getenv("P2PRANGE_CRASH_FUZZ_POINTS")) {
      const long v = std::atol(env);
      if (v > 0) return static_cast<size_t>(v);
    }
    return 1200;
  }

  /// Runs one randomized workload, capturing a crash point per op plus
  /// one per mid-checkpoint window.
  void RunScenario(const FuzzScenario& scenario, size_t num_ops) {
    Rng rng(scenario.seed);
    DurableDescriptorStore durable(scenario.capacity);

    // All states the store has passed through, canonical form -> the
    // index of its first occurrence (for prefix-membership checks).
    std::vector<std::string> states{Canon(durable.store())};
    std::unordered_map<std::string, size_t> first_seen{{states[0], 0}};
    std::vector<CrashPoint> points;

    auto capture = [&](const std::string& expected) {
      CrashPoint p;
      p.wal = durable.wal().image();
      p.slot0 = durable.snapshots().slot(0);
      p.slot1 = durable.snapshots().slot(1);
      p.expected = expected;
      p.num_prior_states = states.size();
      points.push_back(std::move(p));
    };
    durable.set_checkpoint_hook([&] { capture(Canon(durable.store())); });

    // Small pools so erases hit and buckets collide.
    const uint32_t key_pool = 12, bucket_pool = 8, holder_pool = 4;
    for (size_t op = 0; op < num_ops; ++op) {
      const uint32_t k = static_cast<uint32_t>(rng.NextBounded(key_pool));
      PartitionDescriptor d{
          PartitionKey{"Patient", "age", Range(k * 10, k * 10 + 9)},
          NetAddress{1 + static_cast<uint32_t>(rng.NextBounded(holder_pool)),
                     7000}};
      if (rng.NextBernoulli(0.8)) {
        durable.Insert(static_cast<chord::ChordId>(rng.NextBounded(bucket_pool)),
                       d);
      } else {
        durable.EraseStale(d.key, d.holder);
      }
      const std::string canon = Canon(durable.store());
      states.push_back(canon);
      first_seen.emplace(canon, states.size() - 1);  // keeps earliest
      capture(canon);
    }

    Rng mutate_rng(scenario.seed ^ 0x9e3779b97f4a7c15ULL);
    for (const CrashPoint& p : points) {
      CheckRecovery(scenario, p, states, first_seen, "clean", mutate_rng);
      CheckRecovery(scenario, p, states, first_seen, "torn", mutate_rng);
      CheckRecovery(scenario, p, states, first_seen, "flip", mutate_rng);
      if (HasFatalFailure()) return;
    }
    total_points_ += points.size();
  }

  void CheckRecovery(const FuzzScenario& scenario, const CrashPoint& p,
                     const std::vector<std::string>& states,
                     const std::unordered_map<std::string, size_t>& first_seen,
                     const std::string& mutation, Rng& rng) {
    DurableDescriptorStore recovered(scenario.capacity);
    std::string wal = p.wal;
    std::string slot0 = p.slot0;
    std::string slot1 = p.slot1;
    if (mutation == "torn") {
      if (wal.empty()) return;  // nothing to tear
      const size_t tear =
          static_cast<size_t>(rng.NextInRange(1, std::min<size_t>(wal.size(), 48)));
      wal.resize(wal.size() - tear);
    } else if (mutation == "flip") {
      std::string* images[] = {&wal, &slot0, &slot1};
      size_t total = 0;
      for (std::string* img : images) total += img->size();
      if (total == 0) return;  // nothing to rot
      size_t bit = static_cast<size_t>(rng.NextBounded(total * 8));
      for (std::string* img : images) {
        if (bit < img->size() * 8) {
          (*img)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
          break;
        }
        bit -= img->size() * 8;
      }
    }
    recovered.wal().mutable_image() = wal;
    recovered.snapshots().mutable_slot(0) = slot0;
    recovered.snapshots().mutable_slot(1) = slot1;
    const RecoveryReport report = recovered.Recover();
    const std::string canon = Canon(recovered.store());

    const std::string context = "seed=" + std::to_string(scenario.seed) +
                                " cap=" + std::to_string(scenario.capacity) +
                                " mutation=" + mutation;

    // (1) Prefix consistency.
    auto it = first_seen.find(canon);
    const bool is_prefix =
        (it != first_seen.end() && it->second < p.num_prior_states) ||
        canon == p.expected;
    ASSERT_TRUE(is_prefix) << context << ": recovered a state that never "
                           << "existed before the crash ("
                           << recovered.store().num_descriptors()
                           << " descriptors)";

    // (2) No undetected corruption: losing ground must be loud — except
    // for a frame-aligned tear, which is byte-identical to an earlier
    // clean crash and therefore undetectable in principle.
    if (canon != p.expected) {
      const bool aligned_tear =
          mutation == "torn" && IsFrameAligned(p.wal, wal.size());
      ASSERT_TRUE(report.torn_tail || report.wal_corrupted ||
                  report.snapshot_fallback || report.wal_gap || aligned_tear)
          << context << ": state regressed with no fault reported";
    }

    // (3) A clean crash recovers exactly the pre-crash state.
    if (mutation == "clean") {
      ASSERT_EQ(canon, p.expected)
          << context << ": intact disk failed to restore the exact state";
      ASSERT_FALSE(report.wal_corrupted) << context;
      ASSERT_FALSE(report.wal_gap) << context;
    }
    (void)states;
  }

  size_t total_points_ = 0;
};

TEST_F(CrashConsistencyFuzz, ThousandsOfRandomizedCrashPoints) {
  const size_t budget = PointBudget();
  // Scenario matrix: an unbounded, a tight (evict records exercised)
  // and a moderate LRU-bounded store. Seeds vary the workload inside
  // each.
  const FuzzScenario base[] = {{0, 0}, {5, 0}, {12, 0}};
  const size_t num_scenarios = std::size(base);
  // Ops per run are also crash points per run (plus checkpoint-window
  // extras), so rounds * scenarios * ops >= budget.
  const size_t ops_per_run = 60;
  const size_t rounds =
      (budget + num_scenarios * ops_per_run - 1) / (num_scenarios * ops_per_run);
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t s = 0; s < num_scenarios; ++s) {
      FuzzScenario scenario = base[s];
      scenario.seed = 1000 + round * 100 + s;
      RunScenario(scenario, ops_per_run);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(total_points_, budget);
  RecordProperty("crash_points", static_cast<int>(total_points_));
}

// A focused regression: the mid-checkpoint window (snapshot written,
// WAL not yet truncated) must not double-apply under LRU pressure.
TEST_F(CrashConsistencyFuzz, MidCheckpointWindowUnderLruPressure) {
  FuzzScenario scenario;
  scenario.capacity = 3;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    scenario.seed = seed;
    RunScenario(scenario, 40);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace store
}  // namespace p2prange
