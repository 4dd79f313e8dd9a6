// The scenario engine's flat identifier index against
// std::unordered_map, filled to its fixed capacity.
#include "sim/engine/identifier_index.h"

#include <gtest/gtest.h>

#include <bit>
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
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_FALSE(index.Find(0).has_value());
  EXPECT_FALSE(index.Find(std::numeric_limits<uint32_t>::max()).has_value());
  EXPECT_GT(index.MemoryBytes(), 0u);
}

// Seeded batches of inserts (re-adds included) fill an index to
// exactly its capacity. After every batch, Find of every added id and
// of seeded absent ids must agree with the map, and row i must still
// be the i-th id added. At capacity, re-adds still find their rows.
TEST(IdentifierIndexTest, MatchesUnorderedMapUpToCapacity) {
  constexpr size_t kCapacity = 24000;
  IdentifierIndex index(kCapacity);
  ASSERT_EQ(index.capacity(), kCapacity);
  // The smallest power-of-two slot array the ids fill at most 3/4.
  const uint64_t slots = index.MemoryBytes() / sizeof(uint64_t);
  ASSERT_EQ(slots & (slots - 1), 0u);
  ASSERT_LE(kCapacity * 4, slots * 3);
  ASSERT_GT(kCapacity * 4, slots / 2 * 3);
  const int shift = 64 - std::countr_zero(slots);

  std::unordered_map<uint32_t, uint32_t> ref;
  std::vector<uint32_t> order;  // ids in the order they were first added
  Rng rng(0x1D1DE);

  // Ids whose Fibonacci hash puts them at the last home position: their
  // probe chains are long and wrap past the end of the slot array.
  std::vector<uint32_t> colliding;
  std::vector<uint32_t> colliding_absent;
  for (uint32_t id = 0; colliding_absent.size() < 16; ++id) {
    if (((id * 0x9E3779B97F4A7C15ULL) >> shift) != slots - 1) continue;
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
  for (size_t batch = 16; ref.size() < kCapacity; batch *= 2) {
    const std::string where = "batch of " + std::to_string(batch);
    for (size_t i = 0; i < batch && ref.size() < kCapacity; ++i) {
      // One add in four repeats an id already present.
      const uint32_t id = rng.NextBounded(4) == 0
                              ? order[rng.NextBounded(order.size())]
                              : rng.Next32();
      add(id, where);
    }
    check(where);
  }
  ASSERT_EQ(index.size(), kCapacity);
  for (int i = 0; i < 1000; ++i) {
    add(order[rng.NextBounded(order.size())], "re-add at capacity");
  }
  for (const uint32_t id : colliding) add(id, "colliding re-add at capacity");
  check("at capacity");
}

// A full index still finds and re-adds what it holds, and the first new
// id past capacity CHECK-fails.
TEST(IdentifierIndexTest, NewIdPastCapacityDies) {
  IdentifierIndex index(5);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t id = 10; id < 15; ++id) {
      EXPECT_EQ(index.FindOrAdd(id), id - 10) << "pass " << pass;
    }
  }
  EXPECT_EQ(index.size(), 5u);
  EXPECT_DEATH(index.FindOrAdd(15), "identifier index full");

  IdentifierIndex empty;
  EXPECT_DEATH(empty.FindOrAdd(0), "identifier index full");
}

}  // namespace
}  // namespace sim
}  // namespace p2prange
