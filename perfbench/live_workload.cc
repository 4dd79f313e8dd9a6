// live_mixed: a forked ring of three p2prange_node daemons on loopback,
// each with --replication=2 and --workers=1, driven by one RingClient on
// one thread.
//
// The daemons keep their durable store in memory (no --wal_dir): on a
// shared disk the WAL rewrite every insert performs under the data lock
// made publish p50 swing from 7 ms to 680 ms between runs, and every
// lookup queued behind it. The disk's share is measured per layer
// instead, by the replay below (node.store_us vs node.store_mem_us).
//
// A run is --seconds / (kOpsPerRound / kRate) rounds, at least
// kMinRounds. Each round boots a fresh ring (set-up: boot, converge the
// membership view, publish the seed corpus), then runs an open loop of
// kOpsPerRound operations: kRate per second on a fixed schedule, four
// lookups to one publish over the narrow domain [0, kDomainHi], so
// buckets overlap and the stores grow. Each operation is timed from the
// instant it was due, so a stall also charges the operations queued
// behind it. The round ends by reading every daemon's metrics and
// stopping it with SIGTERM; each must exit 0.
//
// The client and the daemons it forks share one CPU, picked afresh for
// each round by PinToFastestCpu, and each round's ring sits on ports
// that balance its arcs (ReserveBalancedRing). An operation's latency
// is then the work along its path plus same-CPU context switches.
// Spread over several vCPUs, each hop also waited for the host to wake
// a halted vCPU, a wait that moves with the host's load (publish p50
// read 0.93-0.99 ms unpinned against 0.55-0.60 ms pinned).
//
// The generator sleeps between operations. Spinning instead halved the
// lookup p50 (the ring no longer starts each operation on a core other
// guests ran on meanwhile) but more than doubled its spread over five
// seeds (IQR / median 0.24 against 0.10); a 1000 ops/s schedule spread
// as widely.
//
// The traced run also pings a member between operations when the
// schedule leaves room, times the probe codecs in isolation, has the
// daemons write --metrics_json files and reads their executor counters
// from the final one, and replays round 0's request stream into an
// in-process NodeService through Handle, once with a WAL directory in
// the checkout and once in memory, to split the store cost into service
// work and the durable flush.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "rpc/frame.h"
#include "rpc/message.h"
#include "rpc/node_service.h"
#include "rpc/ring_client.h"
#include "rpc/ring_view.h"
#include "rpc/tcp.h"
#include "workload/range_workload.h"
#include "workloads.h"

namespace p2prange {
namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr size_t kRingSize = 3;
constexpr double kArcSlack = 0.03;    ///< see ReserveBalancedRing
constexpr double kRate = 200.0;       ///< scheduled operations per second
constexpr size_t kOpsPerRound = 600;  ///< scheduled operations per ring
constexpr size_t kMinRounds = 3;      ///< fresh rings per run, at least
constexpr size_t kCorpus = 60;        ///< seed publishes per ring
constexpr size_t kPublishEvery = 5;   ///< every 5th operation publishes
constexpr uint32_t kDomainHi = 240;
constexpr size_t kPingEvery = 10;     ///< traced: ping after every 10th op
constexpr int kCodecIters = 20000;
constexpr int kCodecReps = 5;

NetAddress Loopback(uint16_t port) {
  NetAddress a;
  a.host = 0x7F000001;
  a.port = port;
  return a;
}

Result<NetAddress> ReservePort() {
  ASSIGN_OR_RETURN(rpc::ListenSocket sock, rpc::Listen(Loopback(0)));
  ::close(sock.fd);
  return sock.bound;
}

/// Free loopback addresses for the ring's daemons whose identifiers
/// (RingView::IdOf) cut the identifier space into kRingSize arcs of
/// 1/kRingSize ± kArcSlack each. A lookup sends one frame per distinct
/// owner of its l identifiers, so the arcs set how many daemons it
/// waits on; with the kernel's random ports alone that mix changed
/// from ring to ring.
Result<std::vector<NetAddress>> ReserveBalancedRing() {
  for (int attempt = 0; attempt < 20000; ++attempt) {
    std::vector<NetAddress> ring;
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < kRingSize; ++i) {
      ASSIGN_OR_RETURN(NetAddress addr, ReservePort());
      ring.push_back(addr);
      ids.push_back(rpc::RingView::IdOf(addr));
    }
    std::sort(ids.begin(), ids.end());
    bool balanced = true;
    for (size_t i = 0; i < kRingSize; ++i) {
      // Member i owns (ids[i-1], ids[i]]; unsigned wrap closes the ring.
      const uint32_t arc = ids[i] - ids[(i + kRingSize - 1) % kRingSize];
      balanced = balanced && std::abs(static_cast<double>(arc) / 4294967296.0 -
                                      1.0 / kRingSize) <= kArcSlack;
    }
    if (balanced) return ring;
  }
  return Status::Unavailable("found no balanced ring layout");
}

/// One forked daemon. Destroyed while running = SIGKILLed and reaped;
/// the child also dies with the benchmark (PR_SET_PDEATHSIG).
class Daemon {
 public:
  /// `metrics_path` empty = no --metrics_json file.
  Daemon(const NetAddress& addr, const std::string& metrics_path,
         const std::string& join)
      : addr_(addr), metrics_path_(metrics_path) {
    std::vector<std::string> args = {
        P2PRANGE_NODE_BINARY,
        "--listen=" + addr.ToString(),
        "--replication=2",
        "--workers=1",
        "--probe_ms=200",
        "--gossip_ms=200",
        "--stabilize_ms=200",
        "--probe_timeout_ms=500",
        "--quiet",
    };
    if (!join.empty()) args.push_back("--join=" + join);
    if (!metrics_path.empty()) args.push_back("--metrics_json=" + metrics_path);
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      // The result line is the benchmark's last stdout line; keep the
      // daemon off stdout.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const NetAddress& address() const { return addr_; }
  pid_t pid() const { return pid_; }
  const std::string& metrics_path() const { return metrics_path_; }

  /// SIGTERM and reap; true iff the daemon exited 0 within ~10 s.
  bool Terminate() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 1000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;  // the destructor SIGKILLs it
  }

 private:
  NetAddress addr_;
  std::string metrics_path_;
  pid_t pid_ = -1;
};

/// The paper's scheme with the default family seed: a ring's identifier
/// scheme is deployment configuration, not workload input, so it stays
/// the same across seeds and rounds.
LshParams ClientLsh() {
  return LshParams::Paper(HashFamilyType::kApproxMinwise);
}

rpc::RingClientOptions ClientOptions() {
  rpc::RingClientOptions options;
  options.lsh = ClientLsh();
  options.descriptor_replication = 2;
  options.deadline_ms = 2000.0;
  options.transport.default_deadline_ms = 2000.0;
  options.fault.max_retries = 1;
  options.batch_probes = true;
  return options;
}

bool AwaitPing(rpc::RingClient& client, const NetAddress& member) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (client.Ping(member).ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

bool AwaitViewSize(rpc::RingClient& client, size_t expected) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (client.RefreshView().ok() && client.view().size() == expected) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// Sleeps until just before `due`, then spins, so the generator's own
/// wake-up jitter does not leak into the measured latency.
void WaitUntil(Clock::time_point due) {
  const auto spin = std::chrono::microseconds(300);
  if (Clock::now() + spin < due) std::this_thread::sleep_until(due - spin);
  while (Clock::now() < due) {
  }
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One operation of the request stream (the replay input).
struct Op {
  bool publish = false;
  Range range;
};

/// Everything the rounds accumulate.
struct LiveTotals {
  std::vector<double> setup_s;
  std::vector<double> lookup_ms;
  std::vector<double> publish_ms;
  std::vector<double> late_ms;
  std::vector<double> ping_us;
  std::vector<double> lookups_per_s;  ///< one per round
  std::vector<double> ring_rss_mb;    ///< Σ daemon VmHWM, one per round
  uint64_t lookups = 0;
  uint64_t publishes = 0;
  uint64_t hits = 0;
  uint64_t failed = 0;
  double recall_sum = 0.0;
  double load_wall_s = 0.0;
  uint64_t batched_probes = 0;
  uint64_t failovers = 0;
  uint64_t redirects = 0;
  uint64_t view_refreshes = 0;
  uint64_t retransmits = 0;
  uint64_t rpc_bytes = 0;
  uint64_t rpc_frames = 0;
  double max_queue = 0.0;
  double shed = 0.0;
  double probes_served = 0.0;
  double probe_hits = 0.0;
  double multi_ops = 0.0;
  std::vector<double> store_descriptors;  ///< Σ over daemons, per round
  double descriptors_stored = 0.0;
  double wal_bytes = 0.0;
  double checkpoints = 0.0;
  std::vector<Op> round0_ops;  ///< corpus + load of round 0
};

/// Checks one lookup answer and returns its recall: |Q ∩ top| / |Q| for
/// a hit (the top-ranked candidate overlaps Q), 0 for a miss.
double ScoreLookup(const PartitionKey& query, const rpc::LiveLookupOutcome& out,
                   Report* report, bool* hit) {
  *hit = false;
  for (size_t i = 1; i < out.ranked.size(); ++i) {
    if (out.ranked[i - 1].similarity < out.ranked[i].similarity) {
      report->Check(false, "ranked candidates are best first");
      break;
    }
  }
  if (out.ranked.empty() || out.ranked[0].similarity <= 0.0) return 0.0;
  const MatchCandidate& top = out.ranked[0];
  const Range& r = top.descriptor.key.range;
  const bool sound = top.descriptor.key.SameColumn(query) &&
                     r.Overlaps(query.range) &&
                     std::abs(top.similarity - query.range.Jaccard(r)) < 1e-9 &&
                     top.exact == (r == query.range);
  if (!sound) {
    report->Check(false, "top-ranked candidate of a hit overlaps its query "
                         "with the Jaccard score reported: " +
                             query.ToString() + " -> " + top.descriptor.key.ToString());
    return 0.0;
  }
  *hit = true;
  return static_cast<double>(r.IntersectionSize(query.range)) /
         static_cast<double>(query.range.size());
}

void RunRound(const RunOptions& options, int round, size_t ops,
              const std::string& base, Report* report, Tracer* tracer,
              LiveTotals* totals) {
  const uint64_t seed = DeriveSeed(options.seed, static_cast<uint64_t>(round));
  // The daemons forked below inherit the client's CPU.
  const int cpu = PinToFastestCpu();
  report->Check(cpu >= 0, "pinned the client and its ring to one CPU");
  const auto addresses = ReserveBalancedRing();
  if (!addresses.ok()) {
    report->Check(false, "ring addresses: " + addresses.status().ToString());
    return;
  }
  const Clock::time_point setup_start = Clock::now();
  const uint32_t setup_span = tracer->Begin("live.setup");
  std::vector<std::unique_ptr<Daemon>> daemons;
  auto boot = [&](const std::string& join) -> bool {
    const NetAddress& addr = (*addresses)[daemons.size()];
    const std::string metrics =
        tracer->enabled()
            ? base + "/round" + std::to_string(round) + "-n" +
                  std::to_string(daemons.size()) + ".json"
            : std::string();
    daemons.push_back(std::make_unique<Daemon>(addr, metrics, join));
    return daemons.back()->pid() > 0;
  };
  if (!boot("")) {
    report->Check(false, "booted the bootstrap daemon");
    return;
  }
  auto client = rpc::RingClient::Make({daemons[0]->address()},
                                      ClientOptions());
  if (!client.ok()) {
    report->Check(false, "RingClient::Make: " + client.status().ToString());
    return;
  }
  rpc::RingClient& ring = **client;
  bool up = AwaitPing(ring, daemons[0]->address());
  const std::string bootstrap = daemons[0]->address().ToString();
  for (size_t i = 1; i < kRingSize && up; ++i) {
    up = boot(bootstrap) && AwaitPing(ring, daemons.back()->address());
  }
  up = up && AwaitViewSize(ring, kRingSize);
  report->Check(up, "ring of " + std::to_string(kRingSize) + " converged");
  if (!up) return;

  std::vector<Op>* record = round == 0 ? &totals->round0_ops : nullptr;
  UniformRangeGenerator corpus(0, kDomainHi, DeriveSeed(seed, 1));
  for (size_t i = 0; i < kCorpus; ++i) {
    const Range r = corpus.Next();
    const Status published = ring.Publish(
        PartitionKey{"T", "a", r}, daemons[i % kRingSize]->address());
    report->Check(published.ok(), "seed corpus publish: " + published.ToString());
    if (record != nullptr) record->push_back(Op{true, r});
  }
  tracer->End(setup_span);
  totals->setup_s.push_back(SecondsSince(setup_start));

  // --- the open loop ----------------------------------------------------
  ring.transport().ResetStats();
  const double share_before = CoreShare();
  UniformRangeGenerator lookups(0, kDomainHi, DeriveSeed(seed, 2));
  UniformRangeGenerator publishes(0, kDomainHi, DeriveSeed(seed, 3));
  Rng ping_rng(DeriveSeed(seed, 4));
  uint64_t ping_bytes = 0;
  uint64_t ping_frames = 0;
  uint64_t round_lookups = 0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRate));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point last_end = t0;
  for (size_t i = 0; i < ops; ++i) {
    const Clock::time_point due = t0 + interval * static_cast<int64_t>(i);
    WaitUntil(due);
    const Clock::time_point started = Clock::now();
    const bool is_publish = i % kPublishEvery == kPublishEvery - 1;
    const PartitionKey key{"T", "a",
                           is_publish ? publishes.Next() : lookups.Next()};
    if (record != nullptr) record->push_back(Op{is_publish, key.range});
    const uint32_t op_span = tracer->Begin("loadgen.op");
    if (is_publish) {
      Status st;
      {
        ScopedSpan span(tracer, "ring_client.publish", op_span);
        st = ring.Publish(key, daemons[i % kRingSize]->address());
      }
      last_end = Clock::now();
      ++totals->publishes;
      if (!st.ok()) ++totals->failed;
      totals->publish_ms.push_back(MsBetween(due, last_end));
    } else {
      Result<rpc::LiveLookupOutcome> out = [&] {
        ScopedSpan span(tracer, "ring_client.lookup", op_span);
        return ring.Lookup(key);
      }();
      last_end = Clock::now();
      ++totals->lookups;
      ++round_lookups;
      totals->lookup_ms.push_back(MsBetween(due, last_end));
      if (!out.ok() || out->probes_failed > 0) ++totals->failed;
      if (out.ok()) {
        bool hit = false;
        totals->recall_sum += ScoreLookup(key, *out, report, &hit);
        if (hit) ++totals->hits;
        totals->batched_probes += static_cast<uint64_t>(out->batched_probes);
        totals->failovers += static_cast<uint64_t>(out->failovers);
        totals->redirects += static_cast<uint64_t>(out->redirects);
        totals->view_refreshes += static_cast<uint64_t>(out->view_refreshes);
      }
    }
    tracer->End(op_span);
    totals->late_ms.push_back(MsBetween(due, started));

    // Traced: one ping round trip in the slack before the next due
    // time; its frames are kept out of the per-operation wire costs.
    if (tracer->enabled() && i % kPingEvery == 0 &&
        Clock::now() + std::chrono::milliseconds(2) <
            t0 + interval * static_cast<int64_t>(i + 1)) {
      const rpc::RpcStats before = ring.transport().rpc_stats();
      Result<double> rtt = [&] {
        ScopedSpan span(tracer, "rpc.ping");
        return ring.Ping(daemons[ping_rng.NextBounded(kRingSize)]->address());
      }();
      const rpc::RpcStats& after = ring.transport().rpc_stats();
      ping_bytes += (after.bytes_in + after.bytes_out) -
                    (before.bytes_in + before.bytes_out);
      ping_frames += (after.requests_sent + after.responses_received) -
                     (before.requests_sent + before.responses_received);
      if (rtt.ok()) totals->ping_us.push_back(*rtt * 1e3);
    }
  }
  const double wall_s = std::chrono::duration<double>(last_end - t0).count();
  report->Context(
      "round" + std::to_string(round),
      "cpu=" + std::to_string(cpu) + " core_share=" +
          std::to_string((share_before + CoreShare()) / 2.0) +
          " lookup_p50_ms=" +
          std::to_string(Median(std::vector<double>(
              totals->lookup_ms.end() - static_cast<ptrdiff_t>(round_lookups),
              totals->lookup_ms.end()))));
  totals->load_wall_s += wall_s;
  totals->lookups_per_s.push_back(static_cast<double>(round_lookups) / wall_s);
  const rpc::RpcStats& rpc_stats = ring.transport().rpc_stats();
  totals->rpc_bytes += rpc_stats.bytes_in + rpc_stats.bytes_out - ping_bytes;
  totals->rpc_frames +=
      rpc_stats.requests_sent + rpc_stats.responses_received - ping_frames;
  totals->retransmits += rpc_stats.retransmits;

  // --- daemon metrics, then a graceful stop ---------------------------
  double ring_rss = 0.0;
  double store_descriptors = 0.0;
  for (const auto& d : daemons) {
    ring_rss += ProcessPeakRssMb(d->pid());
    auto metrics = ring.NodeMetrics(d->address());
    report->Check(metrics.ok(), "daemon answered kMetrics");
    if (!metrics.ok()) continue;
    totals->probes_served += JsonNumber(*metrics, "probes_served");
    totals->probe_hits += JsonNumber(*metrics, "probe_hits");
    totals->multi_ops += JsonNumber(*metrics, "multi_ops");
    store_descriptors += JsonNumber(*metrics, "store_descriptors");
    totals->descriptors_stored += JsonNumber(*metrics, "descriptors_stored");
    totals->wal_bytes += JsonNumber(*metrics, "wal_bytes");
    totals->checkpoints += JsonNumber(*metrics, "checkpoints");
  }
  totals->ring_rss_mb.push_back(ring_rss);
  totals->store_descriptors.push_back(store_descriptors);

  double round_max_queue = 0.0;
  for (const auto& d : daemons) {
    report->Check(d->Terminate(), "daemon exited 0 on SIGTERM");
    if (d->metrics_path().empty()) continue;
    // The final metrics file carries the executor counters, which the
    // kMetrics RPC does not.
    std::ifstream in(d->metrics_path());
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    const size_t executor = json.find("\"executor\":");
    report->Check(executor != std::string::npos,
                  "daemon metrics carry the executor section");
    if (executor == std::string::npos) continue;
    const std::string_view section = std::string_view(json).substr(executor);
    round_max_queue += JsonNumber(section, "max_queue");
    totals->shed += JsonNumber(section, "shed");
  }
  totals->max_queue = std::max(totals->max_queue, round_max_queue);
}

struct ReplayCost {
  double probe_us = 0.0;
  double store_us = 0.0;
};

/// Replays `ops` into an in-process NodeService through Handle: every
/// publish as l kStoreDescriptor requests, every lookup as l
/// kProbeBucket requests. Only Handle is timed.
ReplayCost Replay(const std::vector<Op>& ops, const std::string& wal_dir,
                  Report* report, Tracer* tracer) {
  ReplayCost cost;
  rpc::NodeServiceOptions node_options;
  node_options.descriptor_replication = 2;
  node_options.wal_dir = wal_dir;
  auto service = rpc::NodeService::Make(Loopback(1), node_options);
  auto scheme = LshScheme::Make(ClientLsh());
  report->Check(service.ok() && scheme.ok(), "replay service built");
  if (!service.ok() || !scheme.ok()) return cost;
  std::vector<double> probe_us;
  std::vector<double> store_us;
  std::vector<uint32_t> ids;
  bool all_ok = true;
  const uint32_t root = tracer->Begin(wal_dir.empty() ? "node.replay_mem"
                                                      : "node.replay_wal");
  for (size_t i = 0; i < ops.size(); ++i) {
    const PartitionKey key{"T", "a", ops[i].range};
    scheme->IdentifiersInto(key.range, &ids);
    for (const uint32_t id : ids) {
      const rpc::MsgType type = ops[i].publish
                                    ? rpc::MsgType::kStoreDescriptor
                                    : rpc::MsgType::kProbeBucket;
      std::string body;
      if (ops[i].publish) {
        rpc::StoreDescriptorRequest req;
        req.bucket = id;
        req.descriptor = PartitionDescriptor{key, Loopback(2)};
        body = rpc::EncodeStoreDescriptorRequest(req);
      } else {
        rpc::ProbeBucketRequest req;
        req.bucket = id;
        req.query = key;
        body = rpc::EncodeProbeBucketRequest(req);
      }
      const Clock::time_point t0 = Clock::now();
      const bool ok = (*service)->Handle(type, body).ok();
      const double us = SecondsSince(t0) * 1e6;
      all_ok = all_ok && ok;
      (ops[i].publish ? store_us : probe_us).push_back(us);
    }
  }
  tracer->End(root);
  report->Check(all_ok, "every replayed request was served");
  cost.probe_us = Median(probe_us);
  cost.store_us = Median(store_us);
  return cost;
}

/// Median nanoseconds for one probe exchange through the codecs: the
/// request body, envelope and frame encoded and parsed back, then the
/// same for a one-candidate response.
double TimeProbeCodecNs(Report* report, Tracer* tracer) {
  rpc::ProbeBucketRequest req;
  req.bucket = 0xC0FFEE;
  req.query = PartitionKey{"T", "a", Range(40, 180)};
  MatchCandidate candidate;
  candidate.descriptor =
      PartitionDescriptor{PartitionKey{"T", "a", Range(50, 170)}, Loopback(7001)};
  candidate.similarity = 0.85;
  rpc::FrameParser parser;
  std::string wire;
  std::vector<double> per_call_ns;
  bool all_ok = true;
  auto round_trip = [&](rpc::RpcHeader header, const std::string& body) {
    wire.clear();
    rpc::AppendFrame(rpc::EncodeEnvelope(header, body), &wire);
    parser.Feed(wire);
    auto payload = parser.Next();
    if (!payload.ok() || !payload->has_value()) return std::string();
    auto envelope = rpc::DecodeEnvelope(**payload);
    return envelope.ok() ? std::move(envelope->body) : std::string();
  };
  for (int rep = 0; rep < kCodecReps; ++rep) {
    ScopedSpan span(tracer, "rpc.codec_probe");
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCodecIters; ++i) {
      rpc::RpcHeader header;
      header.call_id = static_cast<uint64_t>(i);
      header.type = rpc::MsgType::kProbeBucket;
      const std::string request =
          round_trip(header, rpc::EncodeProbeBucketRequest(req));
      all_ok = all_ok && rpc::DecodeProbeBucketRequest(request).ok();
      header.is_response = true;
      const std::string response =
          round_trip(header, rpc::EncodeProbeBucketResponse(candidate));
      all_ok = all_ok && rpc::DecodeProbeBucketResponse(response).ok();
    }
    per_call_ns.push_back(SecondsSince(t0) * 1e9 / kCodecIters);
  }
  report->Check(all_ok, "probe codecs round-trip");
  return Median(per_call_ns);
}

}  // namespace

void RunLiveWorkload(const RunOptions& options, Report* report,
                     Tracer* tracer) {
  const size_t rounds = std::max<size_t>(
      kMinRounds, static_cast<size_t>(std::llround(
                      options.seconds * kRate / static_cast<double>(kOpsPerRound))));
  const std::string base = options.scratch_dir + "/live";
  std::error_code ec;
  fs::remove_all(base, ec);
  fs::create_directories(base);
  report->Context("ring_size", std::to_string(kRingSize));
  report->Context("rounds", std::to_string(rounds));
  report->Context("ops_per_round", std::to_string(kOpsPerRound));
  report->Context("ops_total", std::to_string(kOpsPerRound * rounds));
  report->Context("rate_ops_per_s", std::to_string(static_cast<int>(kRate)));
  report->Context("corpus_per_round", std::to_string(kCorpus));
  report->Context("ring_durability", "memory");
  report->Context("replay_wal_fs", FilesystemType(base));

  LiveTotals totals;
  for (size_t round = 0; round < rounds; ++round) {
    RunRound(options, static_cast<int>(round), kOpsPerRound, base, report,
             tracer, &totals);
  }
  const uint64_t attempted = totals.lookups + totals.publishes;
  report->CountAttempts(attempted, totals.failed);
  report->Check(attempted == kOpsPerRound * rounds,
                "every scheduled operation ran");
  if (attempted == 0 || totals.lookups == 0) return;

  const double lookups = static_cast<double>(totals.lookups);
  report->Set("setup_s", Median(totals.setup_s));
  report->Set("queries_per_s", Median(totals.lookups_per_s));
  report->Set("hit_rate", static_cast<double>(totals.hits) / lookups);
  report->Set("mean_recall", totals.recall_sum / lookups);
  // Printed, not end-to-end metrics: over seeds their spread reached
  // 0.45 of the median on a shared host (see README).
  report->Context("lookup_p50_ms", std::to_string(Median(totals.lookup_ms)));
  report->Context("publish_p50_ms", std::to_string(Median(totals.publish_ms)));
  report->Set("success_rate", 1.0 - static_cast<double>(totals.failed) /
                                        static_cast<double>(attempted));
  double ring_rss = 0.0;
  for (const double mb : totals.ring_rss_mb) ring_rss = std::max(ring_rss, mb);
  report->Set("peak_rss_mb", ring_rss + SelfPeakRssMb());
  if (!options.trace) {
    fs::remove_all(base, ec);
    return;
  }

  // --- per-layer (traced run) ------------------------------------------
  const double ops = static_cast<double>(attempted);
  std::vector<Range> ranges;
  for (const Op& op : totals.round0_ops) ranges.push_back(op.range);
  const double identifiers_us =
      TimeIdentifiersUs(ranges, ClientLsh().seed, tracer);
  report->Set("hash.identifiers_us", identifiers_us);
  report->Set("hash.est_share",
              ops * identifiers_us * 1e-6 / totals.load_wall_s);
  report->Set("loadgen.late_p50_ms", Median(totals.late_ms));
  report->Set("loadgen.late_p99_ms", Percentile(totals.late_ms, 0.99));
  report->Set("ring_client.lookup_p50_ms", Median(totals.lookup_ms));
  report->Set("ring_client.publish_p50_ms", Median(totals.publish_ms));
  report->Set("ring_client.lookup_p99_ms", Percentile(totals.lookup_ms, 0.99));
  report->Set("ring_client.publish_p99_ms",
              Percentile(totals.publish_ms, 0.99));
  report->Set("ring_client.batched_probes_per_lookup",
              static_cast<double>(totals.batched_probes) / lookups);
  report->Set("ring_client.failovers", static_cast<double>(totals.failovers));
  report->Set("ring_client.redirects", static_cast<double>(totals.redirects));
  report->Set("ring_client.view_refreshes",
              static_cast<double>(totals.view_refreshes));
  report->Set("ring_client.retransmits",
              static_cast<double>(totals.retransmits));
  report->Set("rpc.ping_rtt_us", Median(totals.ping_us));
  report->Set("rpc.codec_probe_ns", TimeProbeCodecNs(report, tracer));
  report->Set("rpc.bytes_per_op", static_cast<double>(totals.rpc_bytes) / ops);
  report->Set("rpc.frames_per_op", static_cast<double>(totals.rpc_frames) / ops);
  report->Set("executor.max_queue", totals.max_queue);
  report->Set("executor.shed", totals.shed);
  report->Set("node.probes_served", totals.probes_served);
  report->Set("node.probe_hit_ratio",
              totals.probes_served > 0 ? totals.probe_hits / totals.probes_served
                                       : 0.0);
  report->Set("node.multi_ops", totals.multi_ops);
  report->Set("node.store_descriptors", Median(totals.store_descriptors));

  const std::string replay_wal = base + "/replay_wal";
  fs::create_directories(replay_wal);
  const ReplayCost durable =
      Replay(totals.round0_ops, replay_wal, report, tracer);
  const ReplayCost memory = Replay(totals.round0_ops, "", report, tracer);
  report->Set("node.probe_us", durable.probe_us);
  report->Set("node.store_us", durable.store_us);
  report->Set("node.store_mem_us", memory.store_us);
  report->Set("store.durable_flush_us", durable.store_us - memory.store_us);
  report->Set("store.wal_bytes_per_insert",
              totals.descriptors_stored > 0
                  ? totals.wal_bytes / totals.descriptors_stored
                  : 0.0);
  report->Set("store.checkpoints_per_insert",
              totals.descriptors_stored > 0
                  ? totals.checkpoints / totals.descriptors_stored
                  : 0.0);
  report->Set("trace.queries_per_s", Median(totals.lookups_per_s));
  report->Set("trace.lookup_p50_ms", Median(totals.lookup_ms));
  fs::remove_all(base, ec);
}

}  // namespace perfbench
}  // namespace p2prange
