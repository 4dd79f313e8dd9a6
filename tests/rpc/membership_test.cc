// Live membership: wire codecs (including hostile input), the
// SWIM-style merge rules, wrong-owner redirects, and a real two-node
// ring converging — then detecting a death — over loopback TCP.
//
// The convergence tests drive both daemons' halves from one thread
// (PollOnce + Tick interleaved), the same single-threaded ownership
// discipline the real daemon's event loop has.
#include "rpc/membership.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "rpc/node_service.h"
#include "rpc/tcp.h"
#include "rpc/tcp_transport.h"
#include "tests/support/live_harness.h"

namespace p2prange {
namespace rpc {
namespace {

using harness::Loopback;

MemberEntry Entry(uint16_t port, uint64_t incarnation, MemberStatus status) {
  MemberEntry e;
  e.addr = Loopback(port);
  e.incarnation = incarnation;
  e.status = status;
  return e;
}

// --------------------------------------------------------------------------
// Wire form
// --------------------------------------------------------------------------

TEST(MembershipTest, ViewMessageRoundTrips) {
  const std::vector<MemberEntry> entries = {
      Entry(7001, 17, MemberStatus::kAlive),
      Entry(7002, 0, MemberStatus::kSuspect),
      Entry(7003, 0xffffffffffffffffULL, MemberStatus::kLeft),
  };
  auto decoded = DecodeViewMessage(EncodeViewMessage(entries));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, entries);

  auto empty = DecodeViewMessage(EncodeViewMessage({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(MembershipTest, TruncatedViewMessageIsRejectedNotCrashed) {
  const std::string whole =
      EncodeViewMessage({Entry(7001, 5, MemberStatus::kAlive),
                         Entry(7002, 9, MemberStatus::kAlive)});
  // Every proper prefix must fail cleanly — no DCHECK, no overread.
  for (size_t len = 0; len < whole.size(); ++len) {
    auto decoded = DecodeViewMessage(std::string_view(whole).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(MembershipTest, HostileEntryCountIsRejectedBeforeAllocation) {
  // A count beyond kMaxViewEntries must be rejected up front even
  // though the body holds no entries at all.
  wire::Encoder enc;
  enc.PutVarint(kMaxViewEntries + 1);
  auto decoded = DecodeViewMessage(enc.Take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
}

TEST(MembershipTest, TrailingGarbageIsRejected) {
  std::string body = EncodeViewMessage({Entry(7001, 1, MemberStatus::kAlive)});
  body += "x";
  EXPECT_FALSE(DecodeViewMessage(body).ok());
}

TEST(MembershipTest, BadStatusByteIsRejected) {
  wire::Encoder enc;
  enc.PutVarint(1);
  MemberEntry e = Entry(7001, 1, MemberStatus::kAlive);
  e.status = static_cast<MemberStatus>(200);
  EncodeMemberEntry(e, &enc);
  EXPECT_FALSE(DecodeViewMessage(enc.Take()).ok());
}

TEST(MembershipTest, WrongOwnerMessageRoundTrips) {
  const NetAddress owner = Loopback(7042);
  const auto parsed = ParseWrongOwner(WrongOwnerMessage(owner));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, owner);

  EXPECT_FALSE(ParseWrongOwner("bucket 7 not found").has_value());
  EXPECT_FALSE(ParseWrongOwner("wrong_owner not-an-address").has_value());
  EXPECT_FALSE(ParseWrongOwner("").has_value());
}

// --------------------------------------------------------------------------
// Merge rules (exercised through the gossip handler — a pure local
// operation)
// --------------------------------------------------------------------------

class MergeTest : public ::testing::Test {
 protected:
  MergeTest() {
    MembershipConfig config;
    auto made =
        LiveMembership::Make(Loopback(7000), /*incarnation=*/100, config,
                             &transport_);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    membership_ = std::make_unique<LiveMembership>(std::move(*made));
  }

  void Gossip(const MemberEntry& e) {
    auto reply = membership_->HandleGossip(EncodeViewMessage({e}));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }

  std::optional<MemberEntry> Find(const NetAddress& addr) {
    for (const MemberEntry& e : membership_->Entries()) {
      if (e.addr == addr) return e;
    }
    return std::nullopt;
  }

  TcpTransport transport_;
  std::unique_ptr<LiveMembership> membership_;
};

TEST_F(MergeTest, HigherIncarnationWins) {
  Gossip(Entry(7001, 5, MemberStatus::kAlive));
  EXPECT_EQ(membership_->num_alive(), 2u);

  // A stale death rumor (lower incarnation) must not kill the member.
  Gossip(Entry(7001, 4, MemberStatus::kDead));
  ASSERT_TRUE(Find(Loopback(7001)).has_value());
  EXPECT_EQ(Find(Loopback(7001))->status, MemberStatus::kAlive);
  EXPECT_EQ(membership_->num_alive(), 2u);

  // A fresh incarnation overrides anything.
  Gossip(Entry(7001, 6, MemberStatus::kDead));
  EXPECT_EQ(Find(Loopback(7001))->status, MemberStatus::kDead);
  EXPECT_EQ(membership_->num_alive(), 1u);

  // And the member restarting with an even fresher one comes back.
  Gossip(Entry(7001, 7, MemberStatus::kAlive));
  EXPECT_EQ(Find(Loopback(7001))->status, MemberStatus::kAlive);
}

TEST_F(MergeTest, IncarnationTieResolvesTowardTerminalStatus) {
  Gossip(Entry(7001, 5, MemberStatus::kAlive));
  Gossip(Entry(7001, 5, MemberStatus::kSuspect));
  EXPECT_EQ(Find(Loopback(7001))->status, MemberStatus::kSuspect);
  // Terminality never decreases on a tie.
  Gossip(Entry(7001, 5, MemberStatus::kAlive));
  EXPECT_EQ(Find(Loopback(7001))->status, MemberStatus::kSuspect);
  Gossip(Entry(7001, 5, MemberStatus::kLeft));
  EXPECT_EQ(Find(Loopback(7001))->status, MemberStatus::kLeft);
}

TEST_F(MergeTest, SelfRumorIsRefutedWithFresherIncarnation) {
  // Someone claims we are dead at our own incarnation: we must come
  // back with a strictly larger incarnation, still alive.
  Gossip(Entry(7000, 100, MemberStatus::kDead));
  const auto self = Find(Loopback(7000));
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->status, MemberStatus::kAlive);
  EXPECT_GT(self->incarnation, 100u);
  EXPECT_EQ(membership_->num_alive(), 1u);
}

TEST_F(MergeTest, AliveTransitionsAreReportedOnce) {
  Gossip(Entry(7001, 5, MemberStatus::kAlive));
  Gossip(Entry(7001, 5, MemberStatus::kAlive));  // duplicate: no new change
  auto changes = membership_->TakeChanges();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].addr, Loopback(7001));
  EXPECT_TRUE(changes[0].is_alive);
  EXPECT_FALSE(changes[0].was_alive);
  EXPECT_TRUE(membership_->TakeChanges().empty());  // drained

  Gossip(Entry(7001, 6, MemberStatus::kDead));
  changes = membership_->TakeChanges();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_FALSE(changes[0].is_alive);
  EXPECT_TRUE(changes[0].was_alive);
}

TEST_F(MergeTest, FlapDamperSuppressesOscillatingMember) {
  Gossip(Entry(7001, 5, MemberStatus::kAlive));  // joining is not a flap
  Gossip(Entry(7001, 6, MemberStatus::kDead));   // flap 1
  Gossip(Entry(7001, 7, MemberStatus::kAlive));  // flap 2
  EXPECT_EQ(membership_->counters().flap_suppressions, 0u);
  EXPECT_EQ(membership_->num_alive(), 2u);

  Gossip(Entry(7001, 8, MemberStatus::kDead));   // flap 3: quarantined
  EXPECT_EQ(membership_->counters().flap_suppressions, 1u);
  membership_->TakeChanges();

  // The next resurrection still merges (incarnation order holds) but
  // the member stays out of the visible view and emits no change — the
  // re-replicator must not chase an oscillating peer.
  Gossip(Entry(7001, 9, MemberStatus::kAlive));
  ASSERT_TRUE(Find(Loopback(7001)).has_value());
  EXPECT_EQ(Find(Loopback(7001))->status, MemberStatus::kAlive);
  EXPECT_EQ(membership_->num_alive(), 1u);
  EXPECT_TRUE(membership_->TakeChanges().empty());
  // Already quarantined: further flaps do not re-count.
  EXPECT_EQ(membership_->counters().flap_suppressions, 1u);
}

TEST_F(MergeTest, GracefulLeavesAreNeverFlaps) {
  Gossip(Entry(7001, 5, MemberStatus::kAlive));
  Gossip(Entry(7001, 6, MemberStatus::kLeft));
  Gossip(Entry(7001, 7, MemberStatus::kAlive));
  Gossip(Entry(7001, 8, MemberStatus::kLeft));
  Gossip(Entry(7001, 9, MemberStatus::kAlive));
  EXPECT_EQ(membership_->counters().flap_suppressions, 0u);
  EXPECT_EQ(membership_->num_alive(), 2u);
}

// --------------------------------------------------------------------------
// Flap-damper decay and tombstone retention (need custom configs and a
// Tick that runs only the damper/pruner: all periodic timers pushed out
// past the test's lifetime, reconnect off)
// --------------------------------------------------------------------------

struct DampedMembership {
  explicit DampedMembership(MembershipConfig config) {
    config.probe_period_ms = 1e9;
    config.gossip_period_ms = 1e9;
    config.stabilize_period_ms = 1e9;
    config.backoff_max_ms = 1e9;
    config.reconnect_period_ms = 0.0;
    auto made = LiveMembership::Make(Loopback(7000), /*incarnation=*/100,
                                     config, &transport);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    if (made.ok()) {
      membership = std::make_unique<LiveMembership>(std::move(*made));
    }
  }

  void Gossip(const MemberEntry& e) {
    auto reply = membership->HandleGossip(EncodeViewMessage({e}));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }

  std::optional<MemberEntry> Find(const NetAddress& addr) {
    for (const MemberEntry& e : membership->Entries()) {
      if (e.addr == addr) return e;
    }
    return std::nullopt;
  }

  TcpTransport transport;
  std::unique_ptr<LiveMembership> membership;
};

TEST(MembershipTest, FlapQuarantineReleasesAfterQuietDecay) {
  MembershipConfig config;
  config.flap_halflife_ms = 5.0;  // decays to nothing within the test
  DampedMembership h(config);
  ASSERT_NE(h.membership, nullptr);
  h.Gossip(Entry(7001, 5, MemberStatus::kAlive));
  h.Gossip(Entry(7001, 6, MemberStatus::kDead));
  h.Gossip(Entry(7001, 7, MemberStatus::kAlive));
  h.Gossip(Entry(7001, 8, MemberStatus::kDead));
  h.Gossip(Entry(7001, 9, MemberStatus::kAlive));
  ASSERT_EQ(h.membership->counters().flap_suppressions, 1u);
  ASSERT_EQ(h.membership->num_alive(), 1u);
  h.membership->TakeChanges();

  // ~12 half-lives: the penalty is far below the reuse threshold, so
  // the next Tick lifts the quarantine and the (alive) member re-enters
  // the visible view with a change the re-replicator can act on.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  h.membership->Tick();
  EXPECT_EQ(h.membership->counters().flap_releases, 1u);
  EXPECT_EQ(h.membership->num_alive(), 2u);
  bool saw_return = false;
  for (const ViewChange& c : h.membership->TakeChanges()) {
    if (c.addr == Loopback(7001) && c.is_alive) saw_return = true;
  }
  EXPECT_TRUE(saw_return);
}

TEST(MembershipTest, IsolatedNodeKeepsDeadTombstonesPastTtl) {
  MembershipConfig config;
  config.tombstone_ttl_ms = 50.0;
  DampedMembership h(config);
  ASSERT_NE(h.membership, nullptr);
  h.Gossip(Entry(7001, 5, MemberStatus::kAlive));
  h.Gossip(Entry(7001, 6, MemberStatus::kDead));
  h.Gossip(Entry(7003, 1, MemberStatus::kLeft));
  ASSERT_EQ(h.membership->num_alive(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  h.membership->Tick();
  // Isolated: the dead tombstone is the reconnect sweep's only way
  // back and outlives its TTL; a graceful kLeft still ages out.
  EXPECT_TRUE(h.Find(Loopback(7001)).has_value());
  EXPECT_FALSE(h.Find(Loopback(7003)).has_value());

  // A visible peer appears: no longer isolated, the tombstone goes.
  h.Gossip(Entry(7002, 1, MemberStatus::kAlive));
  h.membership->Tick();
  EXPECT_FALSE(h.Find(Loopback(7001)).has_value());
  EXPECT_TRUE(h.Find(Loopback(7002)).has_value());
}

// --------------------------------------------------------------------------
// A real two-node ring over loopback TCP, single-threaded
// --------------------------------------------------------------------------

/// One in-process daemon half: server, service, membership, transport.
struct Peer {
  static std::unique_ptr<Peer> Start(uint64_t incarnation,
                                     double reconnect_period_ms = -1.0) {
    auto peer = std::make_unique<Peer>();
    auto server = TcpServer::Listen(
        Loopback(0), [raw = peer.get()](MsgType type, std::string_view body) {
          return raw->service->Handle(type, body);
        });
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    if (!server.ok()) return nullptr;
    peer->server = std::make_unique<TcpServer>(std::move(*server));

    NodeServiceOptions options;
    options.descriptor_replication = 1;
    auto service = NodeService::Make(peer->server->address(), options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    if (!service.ok()) return nullptr;
    peer->service = std::move(*service);

    MembershipConfig config;
    config.probe_period_ms = 20.0;
    config.gossip_period_ms = 20.0;
    config.stabilize_period_ms = 20.0;
    config.probe_timeout_ms = 100.0;
    config.backoff_max_ms = 100.0;
    config.seed = incarnation;
    if (reconnect_period_ms >= 0.0) {
      config.reconnect_period_ms = reconnect_period_ms;
    }
    auto membership = LiveMembership::Make(peer->server->address(),
                                           incarnation, config,
                                           &peer->transport);
    EXPECT_TRUE(membership.ok()) << membership.status().ToString();
    if (!membership.ok()) return nullptr;
    peer->membership =
        std::make_unique<LiveMembership>(std::move(*membership));
    peer->service->set_membership(peer->membership.get());
    return peer;
  }

  void Step() {
    server->PollOnce(/*timeout_ms=*/1).IgnoreError();
    membership->Tick();
  }

  std::unique_ptr<TcpServer> server;
  std::unique_ptr<NodeService> service;
  TcpTransport transport;
  std::unique_ptr<LiveMembership> membership;
};

TEST(MembershipTest, TwoNodesJoinConvergeAndDetectDeath) {
  auto a = Peer::Start(/*incarnation=*/1);
  auto b = Peer::Start(/*incarnation=*/2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // Join is synchronous, so a's server must be polled while b waits on
  // the reply. The helper thread touches only a->server (whose handler
  // runs a's membership — nothing else does until the join below
  // completes and the thread is joined).
  {
    harness::PollThread poll_a(a->server.get());
    const Status joined = b->membership->Join(a->server->address(),
                                              /*deadline_ms=*/2000.0);
    ASSERT_TRUE(joined.ok()) << joined.ToString();
  }

  // The join already taught each side the other; tick both from one
  // thread until the views agree (bounded, not timed — every Step is
  // at most a few ms).
  for (int i = 0; i < 5000; ++i) {
    if (a->membership->num_alive() == 2 && b->membership->num_alive() == 2) {
      break;
    }
    a->Step();
    b->Step();
  }
  ASSERT_EQ(a->membership->num_alive(), 2u);
  ASSERT_EQ(b->membership->num_alive(), 2u);
  // On a ring of two each is the other's only neighbor.
  ASSERT_TRUE(a->membership->Successor().has_value());
  EXPECT_EQ(*a->membership->Successor(), b->server->address());
  ASSERT_TRUE(b->membership->Successor().has_value());
  EXPECT_EQ(*b->membership->Successor(), a->server->address());
  EXPECT_GE(a->membership->counters().joins_served, 1u);

  // Kill b abruptly (server gone, no leave): a's probes must strike it
  // out within the failure-detection budget.
  const NetAddress b_addr = b->server->address();
  b.reset();
  for (int i = 0; i < 5000 && a->membership->num_alive() != 1; ++i) {
    a->Step();
  }
  EXPECT_EQ(a->membership->num_alive(), 1u);
  EXPECT_GE(a->membership->counters().members_marked_dead, 1u);
  // The dead member's departure surfaced as a view change for the
  // re-replicator to act on.
  bool saw_death = false;
  for (const ViewChange& c : a->membership->TakeChanges()) {
    if (c.addr == b_addr && c.was_alive && !c.is_alive) saw_death = true;
  }
  EXPECT_TRUE(saw_death);
}

TEST(MembershipTest, GracefulLeaveSpreadsWithoutStrikes) {
  auto a = Peer::Start(/*incarnation=*/1);
  auto b = Peer::Start(/*incarnation=*/2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  {
    harness::PollThread poll_a(a->server.get());
    const Status joined = b->membership->Join(a->server->address(),
                                              /*deadline_ms=*/2000.0);
    ASSERT_TRUE(joined.ok()) << joined.ToString();
  }
  for (int i = 0; i < 5000; ++i) {
    if (a->membership->num_alive() == 2 && b->membership->num_alive() == 2) {
      break;
    }
    a->Step();
    b->Step();
  }
  ASSERT_EQ(a->membership->num_alive(), 2u);

  // b leaves gracefully: a learns at once from the kLeave message, no
  // probe strikes needed. AnnounceLeave is synchronous, so poll a's
  // server from a helper again.
  {
    harness::PollThread poll_a(a->server.get());
    b->membership->AnnounceLeave(/*deadline_ms=*/1000.0);
  }
  b.reset();
  for (int i = 0; i < 1000 && a->membership->num_alive() != 1; ++i) {
    a->Step();
  }
  EXPECT_EQ(a->membership->num_alive(), 1u);
  EXPECT_GE(a->membership->counters().leaves_served, 1u);
  // A graceful leave is not a detected failure.
  EXPECT_EQ(a->membership->counters().members_marked_dead, 0u);
}

// Regression: a stabilize reply's follow-up notify is started from
// inside PollPending's iteration. Starting it must neither invalidate
// the entry being handled (the follow-up push_back reallocates the
// pending vector) nor be dropped from tracking. Equal fast periods
// fire probe + gossip + stabilize in the same tick round after round,
// so replies are routinely handled while other exchanges are in
// flight; sanitized builds turn any reintroduction into a hard fail.
TEST(MembershipTest, StabilizeFollowUpDuringPollNeitherDanglesNorDrops) {
  auto a = Peer::Start(/*incarnation=*/1);
  auto b = Peer::Start(/*incarnation=*/2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  {
    harness::PollThread poll_a(a->server.get());
    const Status joined = b->membership->Join(a->server->address(),
                                              /*deadline_ms=*/2000.0);
    ASSERT_TRUE(joined.ok()) << joined.ToString();
  }

  for (int i = 0; i < 5000; ++i) {
    if (a->membership->num_alive() == 2 && b->membership->num_alive() == 2) {
      break;
    }
    a->Step();
    b->Step();
  }
  ASSERT_EQ(a->membership->num_alive(), 2u);
  ASSERT_EQ(b->membership->num_alive(), 2u);

  // Hundreds of tick rounds with every exchange kind in flight at
  // once. The views must stay converged and the stabilize -> notify
  // follow-ups must keep landing on the other side.
  for (int i = 0; i < 400; ++i) {
    a->Step();
    b->Step();
  }
  EXPECT_EQ(a->membership->num_alive(), 2u);
  EXPECT_EQ(b->membership->num_alive(), 2u);
  EXPECT_GT(a->membership->counters().notifies_sent, 1u);
  EXPECT_GT(b->membership->counters().notifies_sent, 1u);
  EXPECT_GT(a->membership->counters().notifies_served, 1u);
  EXPECT_GT(b->membership->counters().notifies_served, 1u);
  // Two live single-threaded peers stepped in lockstep never miss.
  EXPECT_EQ(a->membership->counters().members_marked_dead, 0u);
  EXPECT_EQ(b->membership->counters().members_marked_dead, 0u);
}

uint64_t IncOf(const Peer& p, const NetAddress& addr) {
  for (const MemberEntry& e : p.membership->Entries()) {
    if (e.addr == addr) return e.incarnation;
  }
  ADD_FAILURE() << "no entry for peer";
  return 0;
}

// A partition that outlasts the failure detector leaves both sides
// holding dead tombstones for each other. Probes and gossip only ever
// target alive members, so without the reconnect sweep the split would
// be permanent even after the network heals (DESIGN.md §11).
TEST(MembershipTest, ReconnectSweepHealsAMutualDeathPartition) {
  auto a = Peer::Start(/*incarnation=*/1, /*reconnect_period_ms=*/30.0);
  auto b = Peer::Start(/*incarnation=*/2, /*reconnect_period_ms=*/30.0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  {
    harness::PollThread poll_a(a->server.get());
    const Status joined = b->membership->Join(a->server->address(),
                                              /*deadline_ms=*/2000.0);
    ASSERT_TRUE(joined.ok()) << joined.ToString();
  }
  for (int i = 0; i < 5000; ++i) {
    if (a->membership->num_alive() == 2 && b->membership->num_alive() == 2) {
      break;
    }
    a->Step();
    b->Step();
  }
  ASSERT_EQ(a->membership->num_alive(), 2u);
  ASSERT_EQ(b->membership->num_alive(), 2u);

  // Fabricate the partition's aftermath: each side merges a death
  // rumor for the other at the other's *current* incarnation (the tie
  // resolves toward the terminal status), exactly what a dead-striking
  // majority would have gossiped before the cut healed.
  const NetAddress a_addr = a->server->address();
  const NetAddress b_addr = b->server->address();
  auto tombstone = [](const NetAddress& addr, uint64_t inc) {
    MemberEntry e;
    e.addr = addr;
    e.incarnation = inc;
    e.status = MemberStatus::kDead;
    return e;
  };
  ASSERT_TRUE(a->membership
                  ->HandleGossip(EncodeViewMessage(
                      {tombstone(b_addr, IncOf(*a, b_addr))}))
                  .ok());
  ASSERT_TRUE(b->membership
                  ->HandleGossip(EncodeViewMessage(
                      {tombstone(a_addr, IncOf(*b, a_addr))}))
                  .ok());
  ASSERT_EQ(a->membership->num_alive(), 1u);
  ASSERT_EQ(b->membership->num_alive(), 1u);

  // Only the reconnect sweep can get these two talking again: the
  // probe carries the tombstone, the target refutes with a fresher
  // incarnation, and the reply resurrects it on the prober's side.
  for (int i = 0; i < 5000; ++i) {
    if (a->membership->num_alive() == 2 && b->membership->num_alive() == 2) {
      break;
    }
    a->Step();
    b->Step();
  }
  EXPECT_EQ(a->membership->num_alive(), 2u);
  EXPECT_EQ(b->membership->num_alive(), 2u);
  EXPECT_GE(a->membership->counters().reconnect_probes +
                b->membership->counters().reconnect_probes,
            1u);
  EXPECT_GE(a->membership->counters().members_resurrected +
                b->membership->counters().members_resurrected,
            1u);
}

}  // namespace
}  // namespace rpc
}  // namespace p2prange
