// Surrogate routing under churn: the deterministic next-available-
// digit rule must keep every identifier mapped to exactly one live
// root as nodes join, leave, fail, and recover — and hand ownership
// back when the former root returns. The scenario engine's compact
// Tapestry model mirrors this digit-descent rule, so the heavy mesh's
// behavior is pinned here.
#include <gtest/gtest.h>

#include <map>

#include "tapestry/tapestry.h"

namespace p2prange {
namespace tapestry {
namespace {

TapestryMesh MakeMesh(size_t n, uint64_t seed = 31) {
  auto mesh = TapestryMesh::Make(n, seed);
  EXPECT_TRUE(mesh.ok()) << mesh.status();
  return std::move(mesh).ValueUnsafe();
}

/// The surrogate root of `target` as seen from every live start node;
/// fails the test if any two starts disagree.
uint32_t ConsistentRoot(TapestryMesh& mesh, uint32_t target) {
  uint32_t root = 0;
  bool first = true;
  for (const overlay::PeerInfo& start : mesh.AlivePeersOrdered()) {
    auto result = mesh.RouteToOwner(start.addr, target);
    EXPECT_TRUE(result.ok()) << result.status();
    if (first) {
      root = result->owner.id;
      first = false;
    } else {
      EXPECT_EQ(result->owner.id, root)
          << "start " << start.id << " disagrees on target " << target;
    }
  }
  return root;
}

TEST(SurrogateTest, RootSharesLongestAvailablePrefix) {
  TapestryMesh mesh = MakeMesh(48);
  const std::vector<overlay::PeerInfo> nodes = mesh.AlivePeersOrdered();
  for (uint32_t probe = 0; probe < 32; ++probe) {
    const uint32_t target = probe * 0x88E1DB3Bu + 5;
    const uint32_t root = ConsistentRoot(mesh, target);
    // No live node may share a strictly longer prefix with the target
    // than the chosen root does — the heart of surrogate routing.
    const int root_len = SharedPrefixLen(root, target);
    for (const overlay::PeerInfo& n : nodes) {
      EXPECT_LE(SharedPrefixLen(n.id, target), root_len)
          << "node " << n.id << " out-prefixes root " << root << " for "
          << target;
    }
  }
}

TEST(SurrogateTest, RootMigratesWhenItLeavesAndReturnsOnRecover) {
  TapestryMesh mesh = MakeMesh(32);
  const uint32_t target = 0x5A5A5A5Au;
  const uint32_t old_root = ConsistentRoot(mesh, target);
  NetAddress old_addr;
  for (const overlay::PeerInfo& n : mesh.AlivePeersOrdered()) {
    if (n.id == old_root) old_addr = n.addr;
  }

  ASSERT_TRUE(mesh.Fail(old_addr).ok());
  mesh.RepairRouting();
  const uint32_t interim_root = ConsistentRoot(mesh, target);
  EXPECT_NE(interim_root, old_root);

  ASSERT_TRUE(mesh.Recover(old_addr).ok());
  EXPECT_EQ(ConsistentRoot(mesh, target), old_root)
      << "recovered node did not reclaim its surrogate role";
}

TEST(SurrogateTest, JoinCanStealOwnershipAndLeaveHandsItBack) {
  TapestryMesh mesh = MakeMesh(8, 17);
  // Map a spread of identifiers before and after a join: roots only
  // ever change TO the joiner, and a graceful leave restores the
  // original map exactly.
  std::map<uint32_t, uint32_t> before;
  for (uint32_t probe = 0; probe < 48; ++probe) {
    const uint32_t target = probe * 0x3C6EF35Fu + 11;
    before[target] = ConsistentRoot(mesh, target);
  }
  auto joined = mesh.AddNode();
  ASSERT_TRUE(joined.ok()) << joined.status();
  for (const auto& [target, old_root] : before) {
    const uint32_t now = ConsistentRoot(mesh, target);
    if (now != old_root) {
      EXPECT_EQ(now, joined->id)
          << "ownership of " << target << " moved to a bystander";
    }
  }
  ASSERT_TRUE(mesh.Leave(joined->addr).ok());
  for (const auto& [target, old_root] : before) {
    EXPECT_EQ(ConsistentRoot(mesh, target), old_root);
  }
}

TEST(SurrogateTest, DigitWraparoundFindsRoot) {
  // A 2-node mesh forces surrogate scans to wrap past digit 15 at
  // nearly every level; the unique-root property must survive it.
  TapestryMesh mesh = MakeMesh(2, 13);
  const std::vector<overlay::PeerInfo> nodes = mesh.AlivePeersOrdered();
  ASSERT_EQ(nodes.size(), 2u);
  for (uint32_t probe = 0; probe < 64; ++probe) {
    const uint32_t target = probe * 0x45D9F3Bu;
    const uint32_t root = ConsistentRoot(mesh, target);
    EXPECT_TRUE(root == nodes[0].id || root == nodes[1].id);
  }
  // Both nodes own their exact identifiers.
  for (const overlay::PeerInfo& n : nodes) {
    auto self = mesh.RouteToOwner(n.addr, n.id);
    ASSERT_TRUE(self.ok());
    EXPECT_EQ(self->owner.id, n.id);
    EXPECT_EQ(self->hops, 0);
  }
}

}  // namespace
}  // namespace tapestry
}  // namespace p2prange
