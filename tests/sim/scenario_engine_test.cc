// The scenario engine: event ordering, compact-model routing against
// the oracle, determinism under a seed, churn-mode recall, the
// byte-budget gauges, and the single-threaded-by-design contract.
#include "sim/engine/scenario_engine.h"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine/compact_overlay.h"
#include "sim/engine/event_queue.h"

namespace p2prange {
namespace sim {
namespace {

// ---------------------------------------------------------------- events

TEST(EventQueueTest, PopsInTimeThenInsertionOrder) {
  EventQueue q;
  q.Push(5.0, EventType::kCrash, 1);
  q.Push(1.0, EventType::kRecover, 2);
  q.Push(5.0, EventType::kRecover, 3);  // same time: after the crash
  q.Push(3.0, EventType::kCrash, 4);
  EXPECT_EQ(q.size(), 4u);

  Event e;
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kRecover);
  EXPECT_EQ(e.subject, 2u);
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kCrash);
  EXPECT_EQ(e.subject, 4u);
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kCrash);
  EXPECT_EQ(e.subject, 1u);
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kRecover);
  EXPECT_EQ(e.subject, 3u);
  EXPECT_FALSE(q.Pop(&e));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PeekShowsWhatPopReturnsNext) {
  EventQueue q;
  EXPECT_EQ(q.Peek(), nullptr);
  q.Push(2.0, EventType::kCrash, 1);
  q.Push(1.0, EventType::kCrash, 2);
  q.Push(2.0, EventType::kRecover, 3);
  std::vector<uint32_t> popped;
  for (const Event* next = q.Peek(); next != nullptr; next = q.Peek()) {
    const Event peeked = *next;
    Event e;
    ASSERT_TRUE(q.Pop(&e));
    EXPECT_EQ(e.time_ms, peeked.time_ms);
    EXPECT_EQ(e.seq, peeked.seq);
    EXPECT_EQ(e.type, peeked.type);
    popped.push_back(e.subject);
  }
  EXPECT_EQ(popped, (std::vector<uint32_t>{2, 1, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EventsStayPacked) {
  EXPECT_EQ(sizeof(Event), 24u);
}

// ------------------------------------------------------- compact models

class CompactOverlayTest : public ::testing::TestWithParam<overlay::Kind> {};

// Routes `pairs` through RouteAll in shuffled batches of 1, 5, 80 and
// all pairs, and checks each pair's owner and hops against `want`.
void ExpectRouteAllMatches(const CompactOverlay& net,
                           std::vector<std::pair<uint32_t, uint32_t>> pairs,
                           std::vector<std::pair<uint32_t, int>> want,
                           Rng& rng, const std::string& label) {
  ASSERT_EQ(pairs.size(), want.size());
  for (size_t i = pairs.size(); i > 1; --i) {
    const size_t j = rng.NextBounded(i);
    std::swap(pairs[i - 1], pairs[j]);
    std::swap(want[i - 1], want[j]);
  }
  for (const size_t batch : {size_t{1}, size_t{5}, size_t{80}, pairs.size()}) {
    for (size_t first = 0; first < pairs.size(); first += batch) {
      const size_t count = std::min(batch, pairs.size() - first);
      std::vector<uint32_t> origins;
      std::vector<uint32_t> ids;
      for (size_t i = first; i < first + count; ++i) {
        origins.push_back(pairs[i].first);
        ids.push_back(pairs[i].second);
      }
      std::vector<uint32_t> owners(count, ~0u);
      std::vector<int> hops(count, -1);
      net.RouteAll(origins, ids, owners, hops);
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(owners[i], want[first + i].first)
            << label << " batch " << batch << " origin " << origins[i]
            << " id " << ids[i];
        ASSERT_EQ(hops[i], want[first + i].second)
            << label << " batch " << batch << " origin " << origins[i]
            << " id " << ids[i];
      }
    }
  }
}

TEST_P(CompactOverlayTest, RouteLandsOnOwner) {
  auto net = MakeCompactOverlay(GetParam(), 500, 3, 2);
  ASSERT_TRUE(net.ok()) << net.status();
  Rng rng(7);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<std::pair<uint32_t, int>> routed_pairs;
  for (int i = 0; i < 200; ++i) {
    const uint32_t id = rng.Next32();
    const uint32_t owner = (*net)->Owner(id);
    ASSERT_LT(owner, (*net)->num_peers());
    EXPECT_TRUE((*net)->IsAlive(owner));
    int hops = 0;
    const uint32_t origin = (*net)->RandomAliveSlot(rng);
    const uint32_t routed = (*net)->Route(origin, id, &hops);
    EXPECT_EQ(routed, owner);
    EXPECT_GE(hops, 0);
    pairs.emplace_back(origin, id);
    routed_pairs.emplace_back(routed, hops);
  }
  ExpectRouteAllMatches(**net, pairs, routed_pairs, rng,
                        overlay::KindName(GetParam()));
}

TEST_P(CompactOverlayTest, OwnerSkipsDeadSlots) {
  auto net = MakeCompactOverlay(GetParam(), 64, 5, 2);
  ASSERT_TRUE(net.ok()) << net.status();
  Rng rng(11);
  for (int i = 0; i < 24; ++i) {
    (*net)->SetAlive((*net)->RandomAliveSlot(rng), false);
  }
  EXPECT_EQ((*net)->num_alive(), 40u);
  for (int i = 0; i < 100; ++i) {
    const uint32_t owner = (*net)->Owner(rng.Next32());
    EXPECT_TRUE((*net)->IsAlive(owner));
  }
}

TEST_P(CompactOverlayTest, StaysUnderTwentyBytesPerPeer) {
  const size_t n = 20000;
  auto net = MakeCompactOverlay(GetParam(), n, 1, 2);
  ASSERT_TRUE(net.ok()) << net.status();
  EXPECT_LT((*net)->MemoryBytes() / n, 20u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CompactOverlayTest,
                         ::testing::Values(overlay::Kind::kChord,
                                           overlay::Kind::kCan,
                                           overlay::Kind::kTapestry),
                         [](const ::testing::TestParamInfo<overlay::Kind>& i) {
                           return std::string(overlay::KindName(i.param));
                         });

TEST(AliveIndexTest, CountsSelectsAndWraps) {
  AliveIndex idx(10);
  EXPECT_EQ(idx.num_alive(), 10u);
  idx.Set(0, false);
  idx.Set(9, false);
  idx.Set(4, false);
  EXPECT_EQ(idx.num_alive(), 7u);
  EXPECT_EQ(idx.CountBefore(5), 3u);   // 1,2,3
  EXPECT_EQ(idx.CountIn(4, 10), 4u);   // 5,6,7,8
  EXPECT_EQ(idx.NextAliveWrapping(9), 1u);  // wraps past dead 9 and 0
  EXPECT_EQ(idx.NextAliveWrapping(4), 5u);
  EXPECT_EQ(idx.SelectAlive(0), 1u);
  EXPECT_EQ(idx.SelectAlive(6), 8u);
  idx.Set(0, true);
  EXPECT_EQ(idx.SelectAlive(0), 0u);
}

// AliveIndex against a std::vector<bool> reference: every query the
// index answers, recomputed by a scan, after each seeded edit phase.
void ExpectMatchesReference(const AliveIndex& idx, const std::vector<bool>& ref,
                            const std::string& where) {
  const uint32_t n = static_cast<uint32_t>(ref.size());
  ASSERT_EQ(idx.size(), ref.size()) << where;
  std::vector<uint32_t> alive;
  std::vector<size_t> before(n + 1, 0);  // before[e] = alive slots in [0, e)
  for (uint32_t s = 0; s < n; ++s) {
    ASSERT_EQ(idx.IsAlive(s), ref[s]) << where << " slot " << s;
    if (ref[s]) alive.push_back(s);
    before[s + 1] = alive.size();
  }
  ASSERT_EQ(idx.num_alive(), alive.size()) << where;
  // CountIn from every slot when n is small, else from each word
  // boundary and its neighbours, to every end.
  std::vector<uint32_t> begins;
  for (uint32_t b = 0; b <= n; ++b) {
    const uint32_t r = b % 64;
    if (n <= 130 || r <= 1 || r == 63 || b == n) begins.push_back(b);
  }
  for (uint32_t e = 0; e <= n; ++e) {
    ASSERT_EQ(idx.CountBefore(e), before[e]) << where << " end " << e;
  }
  for (const uint32_t b : begins) {
    for (uint32_t e = 0; e <= n; ++e) {
      ASSERT_EQ(idx.CountIn(b, e), e > b ? before[e] - before[b] : 0)
          << where << " [" << b << ", " << e << ")";
    }
  }
  if (alive.empty()) return;  // NextAliveWrapping/SelectAlive need one
  for (size_t k = 0; k < alive.size(); ++k) {
    ASSERT_EQ(idx.SelectAlive(k), alive[k]) << where << " k " << k;
  }
  for (uint32_t s = 0; s < n; ++s) {
    const uint32_t want =
        before[s] < alive.size() ? alive[before[s]] : alive[0];
    ASSERT_EQ(idx.NextAliveWrapping(s), want) << where << " from " << s;
  }
  for (uint32_t s = 0; s < n; ++s) {
    // before[s + 1] alive slots lie at or before s.
    const uint32_t want =
        before[s + 1] > 0 ? alive[before[s + 1] - 1] : alive.back();
    ASSERT_EQ(idx.PrevAliveWrapping(s), want) << where << " back from " << s;
  }
}

TEST(AliveIndexTest, MatchesVectorBoolReferenceUnderSeededEdits) {
  for (const size_t n : {1u, 63u, 64u, 65u, 130u, 4097u}) {
    Rng rng(0xA11CE ^ n);
    AliveIndex idx(n);
    std::vector<bool> ref(n, true);
    auto set = [&](uint32_t slot, bool alive) {
      idx.Set(slot, alive);
      ref[slot] = alive;
    };
    const std::string tag = "n=" + std::to_string(n);
    ExpectMatchesReference(idx, ref, tag + " all alive");
    // Random toggles at a few densities, repeated sets included.
    for (const uint64_t dead_per_16 : {2u, 8u, 15u}) {
      for (size_t i = 0; i < 3 * n; ++i) {
        const uint32_t slot = static_cast<uint32_t>(rng.NextBounded(n));
        set(slot, rng.NextBounded(16) >= dead_per_16);
      }
      ExpectMatchesReference(idx, ref,
                             tag + " density " + std::to_string(dead_per_16));
    }
    // Only each word's first slot alive: every step from inside a word
    // crosses 63 dead slots, and from the last word it wraps to slot 0
    // past live slots behind it in the same word.
    for (uint32_t s = 0; s < n; ++s) set(s, s % 64 == 0);
    ExpectMatchesReference(idx, ref, tag + " word heads");
    // Two whole dead words after each live one: the search past the
    // slot's word and the next, wrapping at the end.
    for (uint32_t s = 0; s < n; ++s) set(s, (s / 64) % 3 == 0 && s % 7 == 0);
    ExpectMatchesReference(idx, ref, tag + " dead words");
    // A single survivor at each end and in the middle.
    for (const uint32_t survivor :
         {0u, static_cast<uint32_t>(n / 2), static_cast<uint32_t>(n - 1)}) {
      for (uint32_t s = 0; s < n; ++s) set(s, s == survivor);
      ExpectMatchesReference(idx, ref,
                             tag + " survivor " + std::to_string(survivor));
    }
    for (uint32_t s = 0; s < n; ++s) set(s, false);
    ExpectMatchesReference(idx, ref, tag + " all dead");
    // A single casualty at each end and in the middle, then every slot
    // revived: the tree has been edited, and SelectAlive answers the
    // all-alive state without walking it.
    for (const uint32_t casualty :
         {0u, static_cast<uint32_t>(n / 2), static_cast<uint32_t>(n - 1)}) {
      for (uint32_t s = 0; s < n; ++s) set(s, s != casualty);
      ExpectMatchesReference(idx, ref,
                             tag + " casualty " + std::to_string(casualty));
    }
    for (uint32_t s = 0; s < n; ++s) set(s, true);
    ExpectMatchesReference(idx, ref, tag + " all revived");
  }
}

// The id-rank directory is std::lower_bound over the sorted ids.
TEST(CompactOverlayRankTest, RankOfIdMatchesLowerBound) {
  for (const size_t n : {1u, 2u, 3u, 65536u, 65537u, 100000u}) {
    auto net = MakeCompactOverlay(overlay::Kind::kChord, n, 9, 2);
    ASSERT_TRUE(net.ok()) << net.status();
    std::vector<uint32_t> ids(n);
    for (size_t s = 0; s < n; ++s) {
      ids[s] = (*net)->id_of(static_cast<uint32_t>(s));
    }
    // Strictly increasing: std::is_sorted would let a duplicate through.
    ASSERT_EQ(std::adjacent_find(ids.begin(), ids.end(),
                                 std::greater_equal<uint32_t>()),
              ids.end());
    auto expect_rank = [&](uint32_t probe) {
      const auto want = static_cast<uint32_t>(
          std::lower_bound(ids.begin(), ids.end(), probe) - ids.begin());
      ASSERT_EQ((*net)->RankOfId(probe), want) << "n=" << n << " id " << probe;
    };
    expect_rank(0);
    expect_rank(std::numeric_limits<uint32_t>::max());
    for (const uint32_t id : ids) {
      expect_rank(id - 1);
      expect_rank(id);
      expect_rank(id + 1);
    }
  }
}

// The identifier draw as it was built with std::sort: draw the missing
// ids, sort everything, drop duplicates, repeat until n remain.
// *rounds counts the draws; more than one means a collision forced a
// redraw.
std::vector<uint32_t> SortAndRedrawIds(size_t n, uint64_t seed, int* rounds) {
  Rng rng(seed ^ 0xC0FFEE123ULL);
  std::vector<uint32_t> ids;
  *rounds = 0;
  while (ids.size() < n) {
    const size_t missing = n - ids.size();
    for (size_t i = 0; i < missing; ++i) ids.push_back(rng.Next32());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ++*rounds;
  }
  return ids;
}

// MakeCompactOverlay's ids are the reference's, slot for slot: the
// same set, not just the same order.
TEST(CompactOverlayBuildTest, IdsMatchTheSortAndRedrawReference) {
  std::vector<std::pair<size_t, uint64_t>> cases;
  for (const size_t n : {1u, 2u, 3u, 64u, 65537u, 100000u}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) cases.emplace_back(n, seed);
  }
  cases.emplace_back(1000000, 1);
  int redraws = 0;
  for (const auto& [n, seed] : cases) {
    int rounds = 0;
    const std::vector<uint32_t> want = SortAndRedrawIds(n, seed, &rounds);
    if (rounds > 1) ++redraws;
    auto net = MakeCompactOverlay(overlay::Kind::kChord, n, seed, 2);
    ASSERT_TRUE(net.ok()) << net.status();
    ASSERT_EQ((*net)->num_peers(), n);
    for (size_t s = 0; s < n; ++s) {
      ASSERT_EQ((*net)->id_of(static_cast<uint32_t>(s)), want[s])
          << "n=" << n << " seed " << seed << " slot " << s;
    }
  }
  // Six of seeds 1-8 collide at 10^5 peers, and 10^6 peers always do.
  EXPECT_GE(redraws, 1);
}

// Slots and ranks are 32-bit, and 2^32 peers cannot all have distinct
// ids: the count is refused before anything is allocated.
TEST(CompactOverlayBuildTest, RefusesMorePeersThanIdentifiers) {
  const size_t too_many = size_t{std::numeric_limits<uint32_t>::max()} + 1;
  EXPECT_TRUE(MakeCompactOverlay(overlay::Kind::kChord, too_many, 1, 2)
                  .status()
                  .IsInvalidArgument());
}

// The Chord descent as it was before Route took one successor lookup
// per hop: from each hop try the fingers cur + 2^k from the top bit of
// the distance down, and take the first whose alive successor lands in
// (cur, id]. Successors come from a lower bound over the ids plus a
// plain scan for a live slot.
class FingerScanChord {
 public:
  explicit FingerScanChord(const CompactOverlay& net) : net_(net) {
    for (uint32_t s = 0; s < net.num_peers(); ++s) ids_.push_back(net.id_of(s));
  }

  uint32_t AliveSuccessor(uint32_t id) const {
    const uint32_t n = static_cast<uint32_t>(ids_.size());
    uint32_t s = static_cast<uint32_t>(
        std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin());
    if (s == n) s = 0;
    while (!net_.IsAlive(s)) s = s + 1 == n ? 0 : s + 1;
    return s;
  }

  uint32_t Route(uint32_t origin, uint32_t id, int* hops) const {
    const uint32_t owner = AliveSuccessor(id);
    uint32_t cur = origin;
    for (int budget = 0; cur != owner && budget < 64; ++budget) {
      const uint32_t cur_id = ids_[cur];
      const uint32_t dist = id - cur_id;
      uint32_t chosen = owner;
      for (int k = static_cast<int>(std::bit_width(dist)) - 1; k >= 0; --k) {
        const uint32_t f = AliveSuccessor(cur_id + (uint32_t{1} << k));
        const uint32_t step = ids_[f] - cur_id;
        if (step != 0 && step <= dist) {
          chosen = f;
          break;
        }
      }
      cur = chosen;
      ++*hops;
    }
    return owner;
  }

 private:
  const CompactOverlay& net_;
  std::vector<uint32_t> ids_;
};

// CompactChord::Route against the finger scan: the same owner and the
// same hop count from every alive origin (n <= 64) or seeded alive
// origins plus the owner itself, to every peer id and its neighbours,
// the ring's ends and seeded ids, under dense, sparse and near-empty
// alive sets. Each alive set's pairs also go through RouteAll, shuffled,
// in batches of 1, 5, 80 and all of them, so interleaved descents must
// keep every pair's own state.
TEST(CompactChordRouteTest, MatchesFingerScanDescent) {
  for (const uint32_t n : {2u, 3u, 64u, 1000u}) {
    auto made = MakeCompactOverlay(overlay::Kind::kChord, n, 17 + n, 2);
    ASSERT_TRUE(made.ok()) << made.status();
    CompactOverlay& net = **made;
    const FingerScanChord reference(net);
    Rng rng(0xC40D ^ n);

    std::vector<uint32_t> ids = {0, std::numeric_limits<uint32_t>::max()};
    for (uint32_t s = 0; s < n; ++s) {
      ids.push_back(net.id_of(s) - 1);
      ids.push_back(net.id_of(s));
      ids.push_back(net.id_of(s) + 1);
    }
    for (int i = 0; i < 64; ++i) ids.push_back(rng.Next32());

    // Each pattern is a liveness rule over slots; at least one survives.
    const uint32_t mid = n / 2;
    using AliveIf = std::function<bool(uint32_t)>;
    const std::vector<std::pair<std::string, AliveIf>> patterns = {
        {"all alive", [](uint32_t) { return true; }},
        {"half dead", [&rng](uint32_t) { return rng.NextBounded(2) == 0; }},
        {"90% dead", [&rng](uint32_t) { return rng.NextBounded(10) == 0; }},
        {"one survivor", [mid](uint32_t s) { return s == mid; }},
        {"two adjacent survivors",
         [mid](uint32_t s) { return s == mid || s == mid - 1; }},
        {"two survivors across the wrap",
         [n](uint32_t s) { return s == 0 || s == n - 1; }},
    };
    for (const auto& [name, alive_if] : patterns) {
      for (uint32_t s = 0; s < n; ++s) net.SetAlive(s, alive_if(s));
      if (net.num_alive() == 0) net.SetAlive(mid, true);
      std::vector<uint32_t> alive;
      for (uint32_t s = 0; s < n; ++s) {
        if (net.IsAlive(s)) alive.push_back(s);
      }
      std::vector<std::pair<uint32_t, uint32_t>> pairs;
      std::vector<std::pair<uint32_t, int>> routed;
      for (const uint32_t id : ids) {
        const uint32_t owner = reference.AliveSuccessor(id);
        std::vector<uint32_t> origins = {owner};
        if (n <= 64) {
          origins = alive;
        } else {
          for (int i = 0; i < 8; ++i) {
            origins.push_back(alive[rng.NextBounded(alive.size())]);
          }
        }
        for (const uint32_t origin : origins) {
          int want_hops = 0;
          int got_hops = 0;
          const uint32_t want = reference.Route(origin, id, &want_hops);
          ASSERT_EQ(net.Route(origin, id, &got_hops), want)
              << "n=" << n << " " << name << " origin " << origin << " id "
              << id;
          ASSERT_EQ(got_hops, want_hops) << "n=" << n << " " << name
                                         << " origin " << origin << " id "
                                         << id;
          pairs.emplace_back(origin, id);
          routed.emplace_back(want, want_hops);
        }
      }
      ExpectRouteAllMatches(net, std::move(pairs), std::move(routed), rng,
                            "n=" + std::to_string(n) + " " + name);
    }
  }
}

// ------------------------------------------------------------- scenarios

ScenarioConfig SmallConfig(overlay::Kind kind, ChurnMode churn,
                           WorkloadShape shape = WorkloadShape::kUniform) {
  ScenarioConfig config;
  config.kind = kind;
  config.shape = shape;
  config.churn = churn;
  config.num_peers = 300;
  config.num_queries = 600;
  config.domain = 20000;
  config.seed = 5;
  return config;
}

TEST(ScenarioEngineTest, ValidatesConfig) {
  ScenarioConfig bad = SmallConfig(overlay::Kind::kChord, ChurnMode::kNone);
  bad.num_peers = 1;
  EXPECT_FALSE(ScenarioEngine::Make(bad).ok());
  // ZipfRangeGenerator would CHECK-abort on this one.
  bad = SmallConfig(overlay::Kind::kChord, ChurnMode::kNone,
                    WorkloadShape::kZipf);
  bad.zipf_mean_width = 0.5;
  EXPECT_TRUE(ScenarioEngine::Make(bad).status().IsInvalidArgument());

  // Each of these used to pass Validate and then CHECK-abort in a
  // generator (ZipfGenerator's theta, a NaN width).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Mutate = std::function<void(ScenarioConfig*)>;
  const std::vector<std::pair<std::string, Mutate>> cases = {
      {"zipf_theta 0", [](ScenarioConfig* c) { c->zipf_theta = 0.0; }},
      {"zipf_theta -0.5", [](ScenarioConfig* c) { c->zipf_theta = -0.5; }},
      {"zipf_theta 1", [](ScenarioConfig* c) { c->zipf_theta = 1.0; }},
      {"zipf_theta NaN", [&](ScenarioConfig* c) { c->zipf_theta = nan; }},
      {"zipf_theta inf", [&](ScenarioConfig* c) { c->zipf_theta = inf; }},
      {"zipf_mean_width NaN",
       [&](ScenarioConfig* c) { c->zipf_mean_width = nan; }},
      {"zipf_mean_width inf",
       [&](ScenarioConfig* c) { c->zipf_mean_width = inf; }},
  };
  for (const auto& [name, mutate] : cases) {
    ScenarioConfig config = SmallConfig(overlay::Kind::kChord,
                                        ChurnMode::kCrashWave,
                                        WorkloadShape::kZipf);
    mutate(&config);
    EXPECT_TRUE(config.Validate().IsInvalidArgument()) << name;
    EXPECT_TRUE(ScenarioEngine::Make(config).status().IsInvalidArgument())
        << name;
  }
  ScenarioConfig steep = SmallConfig(overlay::Kind::kChord, ChurnMode::kNone,
                                     WorkloadShape::kZipf);
  steep.zipf_theta = 1.5;
  EXPECT_TRUE(steep.Validate().ok());
}

TEST(ScenarioEngineTest, QueryStreamReplaysWithinTheDomain) {
  for (const WorkloadShape shape :
       {WorkloadShape::kUniform, WorkloadShape::kZipf,
        WorkloadShape::kHotspot}) {
    const ScenarioConfig config =
        SmallConfig(overlay::Kind::kChord, ChurnMode::kNone, shape);
    auto a = MakeQueryStream(config);
    auto b = MakeQueryStream(config);
    for (int i = 0; i < 500; ++i) {
      const Range r = a();
      ASSERT_EQ(r, b()) << WorkloadShapeName(shape);
      ASSERT_LE(r.hi(), config.domain) << WorkloadShapeName(shape);
    }
  }
}

TEST(ScenarioEngineTest, DeterministicUnderSeed) {
  const ScenarioConfig config =
      SmallConfig(overlay::Kind::kChord, ChurnMode::kChurn);
  auto a = ScenarioEngine::Make(config);
  auto b = ScenarioEngine::Make(config);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = a->Run();
  auto rb = b->Run();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->ToJson(), rb->ToJson());
  EXPECT_GT(ra->queries, 0u);
}

class ScenarioChurnTest : public ::testing::TestWithParam<overlay::Kind> {};

TEST_P(ScenarioChurnTest, NonzeroRecallUnderChurn) {
  auto engine =
      ScenarioEngine::Make(SmallConfig(GetParam(), ChurnMode::kChurn));
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto report = engine->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->queries, 600u);
  EXPECT_GT(report->crashes, 0u);
  EXPECT_GT(report->recoveries, 0u);
  EXPECT_GT(report->recall_sum, 0.0)
      << overlay::KindName(GetParam()) << " produced no cache hits";
  EXPECT_GT(report->hops, 0u);
  EXPECT_GT(report->bytes, 0u);
}

TEST_P(ScenarioChurnTest, CrashWaveReportsRecoveryWindows) {
  ScenarioConfig config = SmallConfig(GetParam(), ChurnMode::kCrashWave);
  // The wave comes at 40% of the 2,000 ms horizon and settles 800 ms
  // later (twice the recover delay), so the after-wave window holds the
  // last 400 queries.
  config.num_queries = 2000;
  auto engine = ScenarioEngine::Make(config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto report = engine->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->crashes, 0u);
  EXPECT_EQ(report->recoveries, report->crashes);
  EXPECT_GE(report->recall_before_wave, 0.0);
  EXPECT_GE(report->recall_during_wave, 0.0);
  EXPECT_GE(report->recall_after_wave, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ScenarioChurnTest,
                         ::testing::Values(overlay::Kind::kChord,
                                           overlay::Kind::kCan,
                                           overlay::Kind::kTapestry),
                         [](const ::testing::TestParamInfo<overlay::Kind>& i) {
                           return std::string(overlay::KindName(i.param));
                         });

TEST(ScenarioEngineTest, WorkloadShapesAllComplete) {
  for (const WorkloadShape shape :
       {WorkloadShape::kUniform, WorkloadShape::kZipf,
        WorkloadShape::kHotspot}) {
    auto engine = ScenarioEngine::Make(
        SmallConfig(overlay::Kind::kChord, ChurnMode::kNone, shape));
    ASSERT_TRUE(engine.ok());
    auto report = engine->Run();
    ASSERT_TRUE(report.ok()) << WorkloadShapeName(shape);
    EXPECT_EQ(report->queries, 600u) << WorkloadShapeName(shape);
    EXPECT_GT(report->recall_sum, 0.0) << WorkloadShapeName(shape);
  }
}

TEST(ScenarioEngineTest, ReportCarriesEngineGauges) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  auto report = engine->Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->bytes_per_peer, 0u);
  EXPECT_GT(report->event_queue_depth, 0u);
}

TEST(ScenarioEngineTest, ReportJsonCarriesEveryField) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  auto report = engine->Run();
  ASSERT_TRUE(report.ok());
  const std::string json = report->ToJson();
  for (const char* key :
       {"queries", "exact_hits", "approx_hits", "misses", "mean_recall",
        "mean_hops", "messages", "bytes", "publishes", "descriptors_stored",
        "stale_evictions", "crashes", "recoveries", "recovery_ms",
        "bytes_per_peer", "event_queue_depth", "end_time_ms"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\":"), std::string::npos)
        << key;
  }
}

// Every counter of nine small uniform cells, {chord, can, tapestry} x
// {none, churn, crash-wave}, as the binary-search overlay and the
// scalar hash kernel produced them, and of two wide-zipf Chord cells
// (mean width a third of the domain) under churn and crash-wave, as
// per-identifier copy vectors produced them, and of one four-peer
// Chord ring. A wide-zipf bucket takes many publishes, so those two
// cells run long buckets through growth, refresh and stale eviction.
// On the small ring most publishes wrap past slot 0, so a row whose
// copies are not kept sorted by home misses probes there. The word-packed alive index,
// the id directory, the lane-batched hash kernel and the copy layout
// are pure speedups, so none of these may move. bytes_per_peer is left
// out: it measures the engine's own structures, which those changes
// resize.
TEST(ScenarioEngineTest, CountersMatchParentGoldens) {
  constexpr uint32_t kDomain = 20000;
  struct Golden {
    overlay::Kind kind;
    ChurnMode churn;
    const char* json;
    WorkloadShape shape = WorkloadShape::kUniform;
    size_t num_peers = 2000;
    uint64_t seed = 21;
  };
  const Golden goldens[] = {
      {overlay::Kind::kChord, ChurnMode::kNone,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":683,\"misses\":817,"
       "\"mean_recall\":0.416,\"hops\":47601,\"mean_hops\":31.734,"
       "\"messages\":77601,\"bytes\":5416464,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":0,\"crashes\":0,"
       "\"recoveries\":0,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1500,"
       "\"end_time_ms\":1500}"},
      {overlay::Kind::kChord, ChurnMode::kChurn,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":682,\"misses\":818,"
       "\"mean_recall\":0.415487,\"hops\":47526,\"mean_hops\":31.684,"
       "\"messages\":77526,\"bytes\":5411664,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":3,\"crashes\":29,"
       "\"recoveries\":29,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1529,"
       "\"end_time_ms\":1850}"},
      {overlay::Kind::kChord, ChurnMode::kCrashWave,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":675,\"misses\":825,"
       "\"mean_recall\":0.411013,\"hops\":47351,\"mean_hops\":31.5673,"
       "\"messages\":77351,\"bytes\":5400464,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":33,\"crashes\":100,"
       "\"recoveries\":100,\"recall_before_wave\":0.252034,"
       "\"recall_during_wave\":0.511179,\"recall_after_wave\":0.560482,"
       "\"recovery_ms\":1,\"event_queue_depth\":1700,\"end_time_ms\":1500}"},
      {overlay::Kind::kCan, ChurnMode::kNone,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":683,\"misses\":817,"
       "\"mean_recall\":0.416,\"hops\":165466,\"mean_hops\":110.311,"
       "\"messages\":195466,\"bytes\":12959824,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":0,\"crashes\":0,"
       "\"recoveries\":0,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1500,"
       "\"end_time_ms\":1500}"},
      {overlay::Kind::kCan, ChurnMode::kChurn,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":682,\"misses\":818,"
       "\"mean_recall\":0.415333,\"hops\":167188,\"mean_hops\":111.459,"
       "\"messages\":197188,\"bytes\":13070032,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":3,\"crashes\":29,"
       "\"recoveries\":29,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1529,"
       "\"end_time_ms\":1850}"},
      {overlay::Kind::kCan, ChurnMode::kCrashWave,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":674,\"misses\":826,"
       "\"mean_recall\":0.410147,\"hops\":165030,\"mean_hops\":110.02,"
       "\"messages\":195030,\"bytes\":12931920,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":33,\"crashes\":100,"
       "\"recoveries\":100,\"recall_before_wave\":0.252034,"
       "\"recall_during_wave\":0.509087,\"recall_after_wave\":0.564186,"
       "\"recovery_ms\":1,\"event_queue_depth\":1700,\"end_time_ms\":1500}"},
      {overlay::Kind::kTapestry, ChurnMode::kNone,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":683,\"misses\":817,"
       "\"mean_recall\":0.416,\"hops\":23720,\"mean_hops\":15.8133,"
       "\"messages\":53720,\"bytes\":3888080,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":0,\"crashes\":0,"
       "\"recoveries\":0,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1500,"
       "\"end_time_ms\":1500}"},
      {overlay::Kind::kTapestry, ChurnMode::kChurn,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":681,\"misses\":819,"
       "\"mean_recall\":0.414821,\"hops\":23697,\"mean_hops\":15.798,"
       "\"messages\":53697,\"bytes\":3886608,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":3,\"crashes\":29,"
       "\"recoveries\":29,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1529,"
       "\"end_time_ms\":1850}"},
      {overlay::Kind::kTapestry, ChurnMode::kCrashWave,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":671,\"misses\":829,"
       "\"mean_recall\":0.408784,\"hops\":23692,\"mean_hops\":15.7947,"
       "\"messages\":53692,\"bytes\":3886288,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":32,\"crashes\":100,"
       "\"recoveries\":100,\"recall_before_wave\":0.252034,"
       "\"recall_during_wave\":0.508254,\"recall_after_wave\":0.550537,"
       "\"recovery_ms\":1,\"event_queue_depth\":1700,\"end_time_ms\":1500}"},
      {overlay::Kind::kChord, ChurnMode::kChurn,
       "{\"queries\":1500,\"exact_hits\":84,\"approx_hits\":921,\"misses\":495,"
       "\"mean_recall\":0.654346,\"hops\":48084,\"mean_hops\":32.056,"
       "\"messages\":76824,\"bytes\":5341536,\"publishes\":1416,"
       "\"descriptors_stored\":21240,\"stale_evictions\":6,\"crashes\":29,"
       "\"recoveries\":29,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1529,"
       "\"end_time_ms\":1850}",
       WorkloadShape::kZipf},
      {overlay::Kind::kChord, ChurnMode::kCrashWave,
       "{\"queries\":1500,\"exact_hits\":84,\"approx_hits\":920,\"misses\":496,"
       "\"mean_recall\":0.653878,\"hops\":48490,\"mean_hops\":32.3267,"
       "\"messages\":77230,\"bytes\":5367520,\"publishes\":1416,"
       "\"descriptors_stored\":21240,\"stale_evictions\":16,\"crashes\":100,"
       "\"recoveries\":100,\"recall_before_wave\":0.641755,"
       "\"recall_during_wave\":0.650516,\"recall_after_wave\":0.752411,"
       "\"recovery_ms\":1,\"event_queue_depth\":1700,\"end_time_ms\":1500}",
       WorkloadShape::kZipf},
      // Four peers at replication 3: one of the last two slots owns 88%
      // of the identifiers, so their copies wrap past slot 0.
      {overlay::Kind::kChord, ChurnMode::kNone,
       "{\"queries\":1500,\"exact_hits\":0,\"approx_hits\":725,\"misses\":775,"
       "\"mean_recall\":0.443534,\"hops\":10015,\"mean_hops\":6.67667,"
       "\"messages\":40015,\"bytes\":3010960,\"publishes\":1500,"
       "\"descriptors_stored\":22500,\"stale_evictions\":0,\"crashes\":0,"
       "\"recoveries\":0,\"recall_before_wave\":-1,\"recall_during_wave\":-1,"
       "\"recall_after_wave\":-1,\"recovery_ms\":-1,\"event_queue_depth\":1500,"
       "\"end_time_ms\":1500}",
       WorkloadShape::kUniform, 4, 4},
  };
  for (const Golden& g : goldens) {
    ScenarioConfig config;
    config.kind = g.kind;
    config.churn = g.churn;
    config.shape = g.shape;
    config.zipf_mean_width = kDomain / 3.0;
    config.num_peers = g.num_peers;
    config.num_queries = 1500;
    config.domain = kDomain;
    config.seed = g.seed;
    auto engine = ScenarioEngine::Make(config);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto report = engine->Run();
    ASSERT_TRUE(report.ok()) << report.status();
    std::string json = report->ToJson();
    const size_t at = json.find("\"bytes_per_peer\":");
    ASSERT_NE(at, std::string::npos);
    json.erase(at, json.find(',', at) + 1 - at);
    EXPECT_EQ(json, g.json) << overlay::KindName(g.kind) << " / "
                            << ChurnModeName(g.churn) << " / "
                            << WorkloadShapeName(g.shape);
  }
}

// CPU time this thread has used, in ns.
uint64_t ThreadCpuNs() {
  timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

// A split run answers exactly as a run without one, charges every
// stage, and its stages fit inside Run()'s wall time: a stage charged
// twice overshoots it. A lap that starts late drops time, so the
// stages must also cover kMinCovered of the CPU time Run() took. The
// stages charge wall time, which a preemption inflates and CPU time
// does not, so a loaded host can only raise the covered share. What
// lies outside the stages (scheduling, the window loop and the recall
// bookkeeping) read under 1% of this cell, and each stage but prefetch
// (7%) took 15-45%.
TEST(ScenarioEngineTest, StageSplitAddsUpToRun) {
  constexpr double kMinCovered = 0.9;
  ScenarioConfig config = SmallConfig(overlay::Kind::kChord, ChurnMode::kNone);
  config.num_queries = 10000;
  auto plain = ScenarioEngine::Make(config);
  auto timed = ScenarioEngine::Make(config);
  ASSERT_TRUE(plain.ok() && timed.ok());
  StageSplit split;
  auto want = plain->Run();
  const uint64_t cpu_start = ThreadCpuNs();
  const auto wall_start = std::chrono::steady_clock::now();
  auto got = timed->Run(&split);
  const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  const uint64_t cpu_ns = ThreadCpuNs() - cpu_start;
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(got->ToJson(), want->ToJson());
  const std::pair<const char*, uint64_t> stages[] = {
      {"draw", split.draw_ns},         {"route", split.route_ns},
      {"prefetch", split.prefetch_ns}, {"probe", split.probe_ns},
      {"publish", split.publish_ns},
  };
  for (const auto& [name, ns] : stages) EXPECT_GT(ns, 0u) << name;
  EXPECT_LE(split.stages_ns(), static_cast<uint64_t>(wall_ns));
  EXPECT_GE(static_cast<double>(split.stages_ns()),
            kMinCovered * static_cast<double>(cpu_ns));
}

TEST(ScenarioEngineTest, SingleThreadedByDesign) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->on_owner_thread());
  std::atomic<bool> other_thread_owns{true};
  std::thread probe(
      [&] { other_thread_owns = engine->on_owner_thread(); });
  probe.join();
  // Run() CHECK-fails off the owner thread instead of taking locks;
  // the ownership probe is the testable half of that contract.
  EXPECT_FALSE(other_thread_owns);
}

TEST(ScenarioEngineTest, RunIsSingleShot) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_DEATH_IF_SUPPORTED(static_cast<void>(engine->Run()), "");
}

}  // namespace
}  // namespace sim
}  // namespace p2prange
