// The deployable system, end to end: real p2prange_node processes on
// loopback, driven by a RingClient over real TCP. Three claims:
//
//  1. Answer quality survives deployment — the paper's uniform workload
//     gets the same average recall over the wire as through the
//     in-process simulator (the protocol is the same protocol).
//  2. Failure handling works on a real network — a stopped peer costs
//     deadline timeouts and FaultPolicy retransmissions, a killed peer
//     fails over to replicas, and the answer still comes back.
//  3. Durability holds across process death — a restarted daemon serves
//     the descriptors it had before SIGTERM.
//
// And the daemon refuses a malformed number instead of starting with a
// garbage setting, and answers a kMetrics request with the document it
// writes to --metrics_json.
//
// Every child is reaped by RAII (SIGKILL as the last resort) so a
// failing assertion can never leak a daemon into the build machine.
#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/system.h"
#include "rel/generator.h"
#include "rpc/ring_client.h"
#include "tests/support/live_harness.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// The daemons of one test ring. Daemon i keeps its address and
/// directory (WAL plus metrics.json) across restarts.
struct Ring {
  std::string binary;
  std::vector<NetAddress> members;
  std::vector<std::string> dirs;
  std::vector<harness::ChildProcess> daemons;

  std::string metrics_json(size_t i) const { return dirs[i] + "/metrics.json"; }

  /// (Re)starts daemon i on its address and directory.
  Status Start(size_t i) {
    ASSIGN_OR_RETURN(daemons[i], harness::ChildProcess::Spawn({
                                     binary,
                                     "--listen=" + members[i].ToString(),
                                     "--wal_dir=" + dirs[i],
                                     "--metrics_json=" + metrics_json(i),
                                 }));
    return Status::OK();
  }
};

Result<Ring> SpawnRing(size_t n) {
  Ring ring;
  ASSIGN_OR_RETURN(ring.binary, harness::ToolBinary("p2prange_node"));
  ASSIGN_OR_RETURN(const std::string scratch,
                   harness::MakeScratchDir("live_ring_"));
  ring.daemons.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(ring.members.emplace_back(),
                     harness::ReservePort(harness::Loopback(0)));
    ring.dirs.push_back(scratch + "/n" + std::to_string(i));
    fs::create_directories(ring.dirs.back());
    RETURN_NOT_OK(ring.Start(i));
  }
  return ring;
}

constexpr uint32_t kDomainLo = 0;
constexpr uint32_t kDomainHi = 1000;
constexpr uint64_t kWorkloadSeed = 42;
constexpr uint64_t kSimSeed = 7;

rpc::RingClientOptions ClientOptions() {
  rpc::RingClientOptions options;
  // The simulator derives its LSH seed as config.seed ^ 0x5bd1e995
  // (RangeCacheSystem::Make); the live client must sample the same
  // hash functions or realized bucket collisions — and therefore
  // recall — would only match in expectation, not per query.
  options.lsh =
      LshParams::Paper(HashFamilyType::kApproxMinwise, kSimSeed ^ 0x5bd1e995u);
  // Generous: sanitized builds on loaded single-core CI boxes can take
  // hundreds of ms per probe; a healthy-ring test must not flake on a
  // deadline that only exists to bound the fault tests.
  options.deadline_ms = 10000.0;
  options.transport.default_deadline_ms = 10000.0;
  return options;
}

/// Publishes `publishes` uniform ranges (holders round-robin), then
/// queries `queries` fresh draws; returns average recall with a miss
/// counting as zero. The exact accounting the sim comparator uses.
double RunLiveWorkload(rpc::RingClient& client,
                       const std::vector<NetAddress>& members,
                       size_t publishes, size_t queries) {
  UniformRangeGenerator gen(kDomainLo, kDomainHi, kWorkloadSeed);
  for (size_t i = 0; i < publishes; ++i) {
    const PartitionKey key{"T", "a", gen.Next()};
    EXPECT_TRUE(client.Publish(key, members[i % members.size()]).ok())
        << "publish " << i;
  }
  UniformRangeGenerator qgen(kDomainLo, kDomainHi,
                             kWorkloadSeed ^ 0x9E3779B9);
  double recall_sum = 0.0;
  for (size_t i = 0; i < queries; ++i) {
    const Range q = qgen.Next();
    auto outcome = client.Lookup(PartitionKey{"T", "a", q});
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) continue;
    EXPECT_EQ(outcome->probes_failed, 0) << "healthy ring dropped a probe";
    if (!outcome->ranked.empty()) {
      recall_sum += q.RecallFrom(outcome->ranked.front().descriptor.key.range);
    }
  }
  return recall_sum / static_cast<double>(queries);
}

/// The same workload through the in-process simulator. cache_on_miss is
/// off because the live client does not publish on a miss; everything
/// else is the paper's defaults, the same LSH scheme, the same draws.
double RunSimWorkload(size_t publishes, size_t queries) {
  SystemConfig cfg;
  cfg.num_peers = 3;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, kSimSeed);
  cfg.cache_on_miss = false;
  cfg.seed = kSimSeed;
  auto sys = RangeCacheSystem::Make(
      cfg, MakeNumbersCatalog(10, kDomainLo, kDomainHi, 1));
  EXPECT_TRUE(sys.ok());
  if (!sys.ok()) return -1.0;

  UniformRangeGenerator gen(kDomainLo, kDomainHi, kWorkloadSeed);
  const NetAddress holder = sys->source_address();
  for (size_t i = 0; i < publishes; ++i) {
    EXPECT_TRUE(
        sys->PublishPartition(PartitionKey{"Numbers", "key", gen.Next()},
                              holder)
            .ok());
  }
  UniformRangeGenerator qgen(kDomainLo, kDomainHi,
                             kWorkloadSeed ^ 0x9E3779B9);
  double recall_sum = 0.0;
  for (size_t i = 0; i < queries; ++i) {
    auto outcome =
        sys->LookupRange(PartitionKey{"Numbers", "key", qgen.Next()});
    EXPECT_TRUE(outcome.ok());
    if (outcome.ok() && outcome->match) recall_sum += outcome->match->recall;
  }
  return recall_sum / static_cast<double>(queries);
}

TEST(LiveRingTest, PaperWorkloadRecallMatchesSimulator) {
  auto ring = SpawnRing(3);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();

  auto client = rpc::RingClient::Make(ring->members, ClientOptions());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const Status ready = harness::AwaitPing(**client, ring->members, 10s);
  ASSERT_TRUE(ready.ok()) << ready.ToString();

  const size_t kPublishes = 60, kQueries = 40;
  const double live = RunLiveWorkload(**client, ring->members, kPublishes,
                                      kQueries);
  const double sim = RunSimWorkload(kPublishes, kQueries);
  ASSERT_GE(sim, 0.0);
  EXPECT_GT(live, 0.0) << "the workload found nothing at all";
  EXPECT_NEAR(live, sim, 0.02)
      << "deployment changed answer quality: live=" << live
      << " sim=" << sim;

  // A healthy run costs no timeouts and no retransmissions.
  const rpc::RpcStats& stats = (*client)->transport().rpc_stats();
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.retransmits, 0u);

  // The exported metrics are live: every node served requests and says
  // so in its single-line JSON file.
  for (size_t i = 0; i < ring->daemons.size(); ++i) {
    std::ifstream in(ring->metrics_json(i));
    std::string json;
    std::getline(in, json);
    EXPECT_NE(json.find("\"requests_served\":"), std::string::npos)
        << ring->metrics_json(i);
    EXPECT_NE(json.find("\"descriptors_stored\":"), std::string::npos);
  }

  for (auto& daemon : ring->daemons) {
    const Status exited = daemon.Terminate(5s);
    EXPECT_TRUE(exited.ok()) << exited.ToString();
  }
}

/// The keys of a JSON object's top level, in order:
/// {"a":{"b":1},"c":2} gives {a, c}.
std::vector<std::string> TopLevelKeys(const std::string& json) {
  std::vector<std::string> keys;
  int depth = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '{' || json[i] == '[') {
      ++depth;
    } else if (json[i] == '}' || json[i] == ']') {
      --depth;
    } else if (json[i] == '"') {
      const size_t end = json.find('"', i + 1);
      if (end == std::string::npos) break;
      if (depth == 1 && json.compare(end + 1, 1, ":") == 0) {
        keys.push_back(json.substr(i + 1, end - i - 1));
      }
      i = end;
    }
  }
  return keys;
}

TEST(LiveRingTest, MetricsRequestGetsTheMetricsFileDocument) {
  auto ring = SpawnRing(1);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  auto client = rpc::RingClient::Make(ring->members, ClientOptions());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const Status ready = harness::AwaitPing(**client, ring->members, 10s);
  ASSERT_TRUE(ready.ok()) << ready.ToString();
  ASSERT_TRUE(
      (*client)->Publish(PartitionKey{"T", "a", Range(10, 20)}, ring->members[0])
          .ok());

  // The reply carries the daemon's live transport counters ...
  auto reply = (*client)->NodeMetrics(ring->members[0]);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const std::string served = "\"requests_served\":";
  const size_t at = reply->find(served);
  ASSERT_NE(at, std::string::npos) << *reply;
  EXPECT_GT(std::strtoull(reply->c_str() + at + served.size(), nullptr, 10), 0u)
      << *reply;

  // ... and every section of the file, in the file's order.
  const Status exited = ring->daemons[0].Terminate(5s);
  ASSERT_TRUE(exited.ok()) << exited.ToString();
  std::ifstream in(ring->metrics_json(0));
  std::string file;
  std::getline(in, file);
  const std::vector<std::string> file_keys = TopLevelKeys(file);
  ASSERT_FALSE(file_keys.empty()) << file;
  EXPECT_EQ(file_keys.front(), "node") << file;
  EXPECT_EQ(TopLevelKeys(*reply), file_keys)
      << "reply: " << *reply << "\nfile:  " << file;
}

TEST(LiveRingTest, StoppedPeerCostsTimeoutsKilledPeerFailsOver) {
  auto ring = SpawnRing(3);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();

  rpc::RingClientOptions options = ClientOptions();
  options.descriptor_replication = 2;  // failover has somewhere to go
  options.deadline_ms = 100.0;
  options.transport.default_deadline_ms = 100.0;
  options.fault.max_retries = 1;
  auto client = rpc::RingClient::Make(ring->members, options);
  ASSERT_TRUE(client.ok());
  const Status ready = harness::AwaitPing(**client, ring->members, 10s);
  ASSERT_TRUE(ready.ok()) << ready.ToString();

  // Seed the ring while everyone is healthy.
  UniformRangeGenerator gen(kDomainLo, kDomainHi, 99);
  std::vector<Range> published;
  for (size_t i = 0; i < 20; ++i) {
    const Range r = gen.Next();
    published.push_back(r);
    ASSERT_TRUE((*client)
                    ->Publish(PartitionKey{"T", "a", r},
                              ring->members[i % ring->members.size()])
                    .ok());
  }

  // Ring arcs derive from Sha1(addr) of randomly-assigned ephemeral
  // ports, so a fixed daemon index occasionally owns none of the
  // buckets the queries below will probe. Stop the peer that owns the
  // most of them, so the fault is guaranteed to land in the probe path.
  const size_t kStopQueries = 10;
  std::vector<int> owned(ring->members.size(), 0);
  for (size_t i = 0; i < kStopQueries; ++i) {
    for (const chord::ChordId id : (*client)->lsh().Identifiers(published[i])) {
      const NetAddress& owner = (*client)->view().Owner(id);
      for (size_t m = 0; m < ring->members.size(); ++m) {
        if (ring->members[m] == owner) ++owned[m];
      }
    }
  }
  const size_t victim = static_cast<size_t>(
      std::max_element(owned.begin(), owned.end()) - owned.begin());
  ASSERT_GT(owned[victim], 0);

  // A stopped (SIGSTOP) peer still owns a socket the kernel accepts
  // on, so probes to it die by deadline: timeouts and FaultPolicy
  // retransmissions must show up in the client's counters.
  ASSERT_TRUE(ring->daemons[victim].Signal(SIGSTOP).ok());
  const rpc::RpcStats& stats = (*client)->transport().rpc_stats();
  int answered = 0;
  for (size_t i = 0; i < kStopQueries && stats.timeouts == 0; ++i) {
    auto outcome = (*client)->Lookup(PartitionKey{"T", "a", published[i]});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ++answered;
  }
  EXPECT_GT(answered, 0);
  EXPECT_GT(stats.timeouts, 0u)
      << "no probe ever hit the stopped peer across " << answered
      << " lookups";
  EXPECT_GT(stats.retransmits, 0u) << "FaultPolicy never retried a timeout";

  // Killed outright, the peer refuses connections: probes fail over to
  // the replica without eating a deadline, and answers keep coming.
  ASSERT_TRUE(ring->daemons[victim].Signal(SIGCONT).ok());
  ASSERT_TRUE(ring->daemons[victim].Kill().ok());
  bool saw_failover = false;
  for (size_t i = 0; i < published.size(); ++i) {
    auto outcome = (*client)->Lookup(PartitionKey{"T", "a", published[i]});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->failovers > 0) saw_failover = true;
    // The queried range was published: with replication 2 and one dead
    // peer out of three, its descriptor is still reachable.
    EXPECT_FALSE(outcome->ranked.empty()) << published[i].ToString();
  }
  EXPECT_TRUE(saw_failover)
      << "no lookup was answered by a replica of the dead peer";

  for (size_t m = 0; m < ring->daemons.size(); ++m) {
    if (m != victim) {
      const Status exited = ring->daemons[m].Terminate(5s);
      EXPECT_TRUE(exited.ok()) << exited.ToString();
    }
  }
}

TEST(LiveRingTest, RestartedDaemonStillServesItsDescriptors) {
  auto ring = SpawnRing(1);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();

  auto client = rpc::RingClient::Make(ring->members, ClientOptions());
  ASSERT_TRUE(client.ok());
  Status st = harness::AwaitPing(**client, ring->members, 10s);
  ASSERT_TRUE(st.ok()) << st.ToString();

  const PartitionKey key{"T", "a", Range(250, 750)};
  ASSERT_TRUE((*client)->Publish(key, ring->members[0]).ok());
  auto before = (*client)->Lookup(key);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->ranked.empty());

  // Clean shutdown, then a new process on the same port and WAL dir.
  st = ring->daemons[0].Terminate(5s);
  ASSERT_TRUE(st.ok()) << st.ToString();
  (*client)->transport().Disconnect(ring->members[0]);
  st = ring->Start(0);
  if (st.ok()) st = harness::AwaitPing(**client, ring->members, 10s);
  ASSERT_TRUE(st.ok()) << st.ToString();

  auto after = (*client)->Lookup(key);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_FALSE(after->ranked.empty())
      << "descriptors did not survive the restart";
  EXPECT_EQ(after->ranked.front().descriptor.key, key);

  st = ring->daemons[0].Terminate(5s);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(LiveRingTest, DaemonRejectsMalformedNumbersWithUsageExit) {
  auto binary = harness::ToolBinary("p2prange_node");
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  // Each of these once started a daemon anyway: "four" workers ran the
  // single-loop daemon, -5 wrapped to a queue depth of 2^64-5
  // (admission control off), and "fast" failed later as a bad period.
  const std::vector<std::vector<std::string>> bad_flags = {
      {"--workers=four"},
      {"--workers=2", "--queue_depth=-5"},
      {"--probe_ms=fast"},
  };
  for (const auto& flags : bad_flags) {
    std::vector<std::string> argv = {*binary, "--listen=127.0.0.1:0",
                                     "--quiet"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    auto daemon = harness::ChildProcess::Spawn(argv);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    const std::string exit = daemon->Wait(10s).ToString();
    EXPECT_NE(exit.find("exited with status 2"), std::string::npos)
        << flags.back() << ": " << exit;
  }
}

}  // namespace
}  // namespace p2prange
