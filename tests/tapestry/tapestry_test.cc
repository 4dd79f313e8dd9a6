#include "tapestry/tapestry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/random.h"
#include "stats/summary.h"

namespace p2prange {
namespace tapestry {
namespace {

TEST(TapestryDigitsTest, DigitExtractionMsbFirst) {
  EXPECT_EQ(Digit(0x12345678, 0), 0x1);
  EXPECT_EQ(Digit(0x12345678, 1), 0x2);
  EXPECT_EQ(Digit(0x12345678, 7), 0x8);
  EXPECT_EQ(Digit(0xF0000000, 0), 0xF);
  EXPECT_EQ(Digit(0x0000000F, 7), 0xF);
}

TEST(TapestryDigitsTest, SharedPrefixLen) {
  EXPECT_EQ(SharedPrefixLen(0x12345678, 0x12345678), 8);
  EXPECT_EQ(SharedPrefixLen(0x12345678, 0x12345679), 7);
  EXPECT_EQ(SharedPrefixLen(0x12345678, 0x22345678), 0);
  EXPECT_EQ(SharedPrefixLen(0x12340000, 0x1234FFFF), 4);
}

TEST(TapestryMeshTest, MakeRejectsZeroNodes) {
  EXPECT_TRUE(TapestryMesh::Make(0, 1).status().IsInvalidArgument());
}

TEST(TapestryMeshTest, SingleNodeOwnsEverything) {
  auto mesh = TapestryMesh::Make(1, 3);
  ASSERT_TRUE(mesh.ok());
  auto origin = mesh->RandomAliveAddress();
  ASSERT_TRUE(origin.ok());
  for (uint32_t id : {0u, 0xFFFFFFFFu, 0x12345678u}) {
    auto result = mesh->RouteToOwner(*origin, id);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->owner.addr, *origin);
    EXPECT_EQ(result->hops, 0);
  }
}

TEST(TapestryMeshTest, ExactIdResolvesToThatNode) {
  auto mesh = TapestryMesh::Make(64, 5);
  ASSERT_TRUE(mesh.ok());
  auto origin = mesh->RandomAliveAddress();
  ASSERT_TRUE(origin.ok());
  // Route to every node's own identifier.
  for (int i = 0; i < 32; ++i) {
    auto some = mesh->RandomAliveAddress();
    ASSERT_TRUE(some.ok());
    const uint32_t id = mesh->node(*some)->id();
    auto result = mesh->RouteToOwner(*origin, id);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->owner.id, id);
  }
}

class TapestryConsistencyTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(MeshSizes, TapestryConsistencyTest,
                         ::testing::Values(2, 7, 50, 200));

TEST_P(TapestryConsistencyTest, SurrogateRootIsStartIndependent) {
  auto mesh = TapestryMesh::Make(GetParam(), 11);
  ASSERT_TRUE(mesh.ok());
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const uint32_t target = rng.Next32();
    std::optional<uint32_t> root;
    for (int start = 0; start < 8; ++start) {
      auto origin = mesh->RandomAliveAddress();
      ASSERT_TRUE(origin.ok());
      auto result = mesh->RouteToOwner(*origin, target);
      ASSERT_TRUE(result.ok()) << result.status();
      if (!root) {
        root = result->owner.id;
      } else {
        ASSERT_EQ(*root, result->owner.id)
            << "target " << target << " resolved inconsistently";
      }
    }
  }
}

TEST(TapestryMeshTest, HopsAreLogarithmicBase16) {
  auto mesh = TapestryMesh::Make(512, 17);
  ASSERT_TRUE(mesh.ok());
  Rng rng(19);
  Summary hops;
  for (int i = 0; i < 400; ++i) {
    auto origin = mesh->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto result = mesh->RouteToOwner(*origin, rng.Next32());
    ASSERT_TRUE(result.ok());
    hops.AddCount(static_cast<uint64_t>(result->hops));
  }
  // log16(512) ~= 2.25; surrogate detours add a little.
  EXPECT_GT(hops.Mean(), 1.0);
  EXPECT_LT(hops.Mean(), 5.0);
  EXPECT_LE(hops.Max(), 12.0);
}

TEST(TapestryMeshTest, LoadIsSpreadAcrossNodes) {
  auto mesh = TapestryMesh::Make(128, 23);
  ASSERT_TRUE(mesh.ok());
  Rng rng(29);
  std::map<uint32_t, int> owned;
  for (int i = 0; i < 2000; ++i) {
    auto origin = mesh->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto result = mesh->RouteToOwner(*origin, rng.Next32());
    ASSERT_TRUE(result.ok());
    ++owned[result->owner.id];
  }
  EXPECT_GT(owned.size(), 90u) << "most nodes should own some identifiers";
}

TEST(TapestryMeshTest, SurvivesFailuresAfterRebuild) {
  auto mesh = TapestryMesh::Make(100, 31);
  ASSERT_TRUE(mesh.ok());
  Rng rng(37);
  for (int i = 0; i < 15; ++i) {
    auto victim = mesh->RandomAliveAddress();
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(mesh->Fail(*victim).ok());
  }
  mesh->RepairRouting();
  EXPECT_EQ(mesh->num_alive(), 85u);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t target = rng.Next32();
    std::optional<uint32_t> root;
    for (int start = 0; start < 5; ++start) {
      auto origin = mesh->RandomAliveAddress();
      ASSERT_TRUE(origin.ok());
      auto result = mesh->RouteToOwner(*origin, target);
      ASSERT_TRUE(result.ok()) << result.status();
      if (!root) {
        root = result->owner.id;
      } else {
        EXPECT_EQ(*root, result->owner.id);
      }
    }
  }
}

TEST(TapestryMeshTest, FailValidation) {
  auto mesh = TapestryMesh::Make(3, 41);
  ASSERT_TRUE(mesh.ok());
  EXPECT_TRUE(mesh->Fail(NetAddress{9, 9}).IsNotFound());
  auto victim = mesh->RandomAliveAddress();
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(mesh->Fail(*victim).ok());
  EXPECT_TRUE(mesh->RouteToOwner(*victim, 1).status().IsInvalidArgument());
}

TEST(TapestryMeshTest, StateSizeIsCompact) {
  auto mesh = TapestryMesh::Make(256, 43);
  ASSERT_TRUE(mesh.ok());
  Summary state;
  for (size_t s : mesh->RoutingStateSizes()) state.AddCount(s);
  // Level 0 alone can hold up to 15 entries; deeper levels thin out
  // exponentially. For 256 nodes expect a few dozen entries, far less
  // than kDigits * kBase = 128.
  EXPECT_GT(state.Mean(), 10.0);
  EXPECT_LT(state.Mean(), 60.0);
}

}  // namespace
}  // namespace tapestry
}  // namespace p2prange
