// The scenario engine's flat identifier index against
// std::unordered_map, through growth from empty.
#include "sim/engine/identifier_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace p2prange {
namespace sim {
namespace {

TEST(IdentifierIndexTest, EmptyIndexFindsNothing) {
  const IdentifierIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.Find(0).has_value());
  EXPECT_FALSE(index.Find(std::numeric_limits<uint32_t>::max()).has_value());
  EXPECT_GT(index.MemoryBytes(), 0u);
}

// Seeded batches of inserts (re-adds included) grow the index from its
// first 16 slots past 2^15. After every batch, Find of every added id
// and of seeded absent ids must agree with the map, and row i must
// still be the i-th id added.
TEST(IdentifierIndexTest, MatchesUnorderedMapThroughGrowth) {
  IdentifierIndex index;
  std::unordered_map<uint32_t, uint32_t> ref;
  std::vector<uint32_t> order;  // ids in the order they were first added
  Rng rng(0x1D1DE);

  // Ids whose Fibonacci hash has all-ones top 12 bits: they share the
  // last home position at every capacity up to 2^12, so their probe
  // chains are long and wrap past the end of the slot array.
  std::vector<uint32_t> colliding;
  std::vector<uint32_t> colliding_absent;
  for (uint32_t id = 0; colliding_absent.size() < 16; ++id) {
    if (((id * 0x9E3779B97F4A7C15ULL) >> 52) != 0xFFF) continue;
    (colliding.size() < 40 ? colliding : colliding_absent).push_back(id);
  }

  auto add = [&](uint32_t id, const std::string& where) {
    const auto [it, fresh] =
        ref.emplace(id, static_cast<uint32_t>(ref.size()));
    if (fresh) order.push_back(id);
    ASSERT_EQ(index.FindOrAdd(id), it->second) << where << " id " << id;
    ASSERT_EQ(index.size(), ref.size()) << where;
  };
  auto check = [&](const std::string& where) {
    for (uint32_t row = 0; row < order.size(); ++row) {
      const std::optional<uint32_t> got = index.Find(order[row]);
      ASSERT_TRUE(got.has_value()) << where << " id " << order[row];
      ASSERT_EQ(*got, row) << where << " id " << order[row];
    }
    std::vector<uint32_t> absent = colliding_absent;
    for (int i = 0; i < 256; ++i) absent.push_back(rng.Next32());
    for (const uint32_t id : absent) {
      ASSERT_EQ(index.Find(id).has_value(), ref.count(id) == 1)
          << where << " absent id " << id;
    }
  };

  add(0, "ends");
  add(std::numeric_limits<uint32_t>::max(), "ends");
  add(0, "ends");
  check("ends");
  for (const uint32_t id : colliding) add(id, "colliding run");
  check("colliding run");
  size_t batch = 16;
  while (ref.size() < 24000) {
    const std::string where = "batch of " + std::to_string(batch);
    for (size_t i = 0; i < batch; ++i) {
      // One add in four repeats an id already present.
      const uint32_t id = rng.NextBounded(4) == 0
                              ? order[rng.NextBounded(order.size())]
                              : rng.Next32();
      add(id, where);
    }
    check(where);
    batch *= 2;
  }
  // 24000 ids need at least 2^15 slots, eleven doublings past the first
  // 16, and the table stays a power of two at most 3/4 full.
  const uint64_t slots = index.MemoryBytes() / sizeof(uint64_t);
  EXPECT_GE(slots, uint64_t{1} << 15);
  EXPECT_EQ(slots & (slots - 1), 0u);
  EXPECT_LE(index.size() * 4, slots * 3);
}

}  // namespace
}  // namespace sim
}  // namespace p2prange
