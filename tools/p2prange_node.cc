// p2prange_node: one deployable peer process.
//
// Hosts a NodeService (durable descriptor store + materialized
// partitions) behind a TcpServer event loop. Every peer of a live ring
// is one of these processes; clients and other peers reach it with the
// framed RPC protocol of src/rpc.
//
// The daemon runs live membership (DESIGN.md §9): started with
// --join=HOST:PORT it enters an existing ring through that member,
// pulls the descriptor arc it now owns, and from then on the periodic
// probe/gossip/stabilize loop keeps its view converged while the
// re-replicator repairs descriptor placement after every membership
// change. Without --join it starts a ring of one that others may join.
//
//   p2prange_node --listen=127.0.0.1:7001
//       [--advertise=HOST:PORT] [--join=HOST:PORT] [--replication=2]
//       [--workers=0] [--queue_depth=128]
//       [--wal_dir=/var/lib/p2prange/n1]
//       [--store_capacity=0]
//       [--probe_ms=500] [--gossip_ms=1000] [--stabilize_ms=1000]
//       [--probe_timeout_ms=250] [--reconnect_ms=2000]
//       [--backoff_max_ms=5000] [--handoff_deadline_ms=5000]
//       [--max_conns=0] [--write_buffer_cap=33554432]
//       [--idle_timeout_ms=0] [--first_frame_timeout_ms=0]
//       [--metrics_json=/tmp/n1.json] [--quiet]
//
// --advertise names the address this node is known by on the ring
// when it differs from the bind address — e.g. when peers reach it
// through the chaos proxy (tools/p2prange_chaosproxy) or a NAT. The
// node's identity, membership entries, and redirect payloads all use
// the advertised address; the socket still binds --listen. A 0 port
// in --advertise inherits the bound port.
//
// --max_conns / --write_buffer_cap / --idle_timeout_ms /
// --first_frame_timeout_ms feed the transport resource guards of
// DESIGN.md §11 (accept shed, slow-reader eviction, slow-loris
// defense); 0 keeps a guard disabled except write_buffer_cap, where
// 0 means unbounded.
//
// With --workers=N (N >= 1) the data-path messages — ping, store,
// probe, fetch, and kMultiOp batches of them — are served by a pool of
// N worker threads behind a bounded work queue (--queue_depth), while
// the poll loop keeps sole ownership of the sockets and of membership.
// A full queue is admission control: the request is refused on the
// spot with ResourceExhausted instead of queueing without bound.
// --workers=0 (the default) keeps the classic single-loop daemon.
//
// The metrics document is one JSON line: the node block of
// NodeService::MetricsJson, then the rpc (transport counters),
// membership, membership_alive, rereplication and, with --workers,
// executor sections. --metrics_json rewrites it to a file
// periodically, and a kMetrics request gets the same document.
//
// SIGTERM / SIGINT shut the daemon down gracefully: with ring peers
// present the local descriptors are handed off to the successor and
// the departure announced (so lookups never miss), a final metrics
// snapshot is written, and the process exits 0.

#include <csignal>
#include <cstdio>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "flags.h"
#include "rpc/executor.h"
#include "rpc/membership.h"
#include "rpc/multi_op.h"
#include "rpc/node_service.h"
#include "rpc/rereplicate.h"
#include "rpc/tcp.h"
#include "rpc/tcp_transport.h"

namespace {

using p2prange::tools::ParseFlag;
using p2prange::tools::ParseNumberFlag;

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

struct Flags {
  std::string listen;
  std::string advertise;
  std::string join;
  std::string wal_dir;
  std::string metrics_json;
  size_t store_capacity = 0;
  int replication = 2;
  int workers = 0;
  size_t queue_depth = 128;
  double probe_ms = 500.0;
  double gossip_ms = 1000.0;
  double stabilize_ms = 1000.0;
  double probe_timeout_ms = 250.0;
  /// Period of the post-partition reconnect sweep (0 disables).
  double reconnect_ms = 2000.0;
  /// Cap on the probe-backoff period while probes keep missing. A
  /// partitioned node needs this bounded below the strike decay or its
  /// strikes go stale faster than they accumulate and the far side is
  /// never marked dead.
  double backoff_max_ms = 5000.0;
  double handoff_deadline_ms = 5000.0;
  size_t max_conns = 0;
  size_t write_buffer_cap = 32 * 1024 * 1024;
  double idle_timeout_ms = 0.0;
  double first_frame_timeout_ms = 0.0;
  bool quiet = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen=HOST:PORT [--advertise=HOST:PORT] "
               "[--join=HOST:PORT] "
               "[--replication=N] [--workers=N] [--queue_depth=N] "
               "[--wal_dir=DIR] "
               "[--store_capacity=N] "
               "[--probe_ms=MS] [--gossip_ms=MS] [--stabilize_ms=MS] "
               "[--probe_timeout_ms=MS] [--reconnect_ms=MS] "
               "[--backoff_max_ms=MS] [--handoff_deadline_ms=MS] "
               "[--max_conns=N] [--write_buffer_cap=BYTES] "
               "[--idle_timeout_ms=MS] [--first_frame_timeout_ms=MS] "
               "[--metrics_json=PATH] [--quiet]\n",
               argv0);
  return 2;
}

/// The member's incarnation: any value that grows across restarts of
/// the same address works; wall-clock startup ms is the simplest.
uint64_t StartupIncarnation() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2prange;

  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseFlag(arg, "listen", &flags.listen)) continue;
    if (ParseFlag(arg, "advertise", &flags.advertise)) continue;
    if (ParseFlag(arg, "join", &flags.join)) continue;
    if (ParseFlag(arg, "wal_dir", &flags.wal_dir)) continue;
    if (ParseFlag(arg, "metrics_json", &flags.metrics_json)) continue;
    bool malformed = false;
    const auto number = [&](std::string_view name, auto* out) {
      return ParseNumberFlag(arg, name, out, &malformed);
    };
    if (number("store_capacity", &flags.store_capacity) ||
        number("replication", &flags.replication) ||
        number("workers", &flags.workers) ||
        number("queue_depth", &flags.queue_depth) ||
        number("probe_ms", &flags.probe_ms) ||
        number("gossip_ms", &flags.gossip_ms) ||
        number("stabilize_ms", &flags.stabilize_ms) ||
        number("reconnect_ms", &flags.reconnect_ms) ||
        number("probe_timeout_ms", &flags.probe_timeout_ms) ||
        number("backoff_max_ms", &flags.backoff_max_ms) ||
        number("handoff_deadline_ms", &flags.handoff_deadline_ms) ||
        number("max_conns", &flags.max_conns) ||
        number("write_buffer_cap", &flags.write_buffer_cap) ||
        number("idle_timeout_ms", &flags.idle_timeout_ms) ||
        number("first_frame_timeout_ms", &flags.first_frame_timeout_ms)) {
      if (!malformed) continue;
      std::fprintf(stderr, "malformed value: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
    if (arg == "--quiet") {
      flags.quiet = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
    return Usage(argv[0]);
  }
  if (flags.listen.empty()) return Usage(argv[0]);

  auto listen_addr = rpc::ParseHostPort(flags.listen);
  if (!listen_addr.ok()) {
    std::fprintf(stderr, "--listen: %s\n",
                 listen_addr.status().ToString().c_str());
    return 2;
  }

  rpc::NodeServiceOptions service_options;
  service_options.store_capacity = flags.store_capacity;
  service_options.wal_dir = flags.wal_dir;
  service_options.descriptor_replication = flags.replication;

  // The server comes up first so a 0 port is resolved to the kernel's
  // ephemeral pick before the service derives its id from the address.
  // Requests cannot arrive before the poll loop below starts, so the
  // handler's service pointer and metrics renderer are always set by
  // the time it runs. kMetrics is answered here, not by NodeService, so
  // the reply is the whole document the --metrics_json file holds.
  rpc::NodeService* service_ptr = nullptr;
  std::function<std::string()> metrics_document;
  rpc::TcpServer::Options server_options;
  server_options.max_out_buffer = flags.write_buffer_cap;
  server_options.read_idle_timeout_ms = flags.idle_timeout_ms;
  server_options.first_frame_timeout_ms = flags.first_frame_timeout_ms;
  server_options.max_connections = flags.max_conns;
  auto listened = rpc::TcpServer::Listen(
      *listen_addr,
      [&service_ptr, &metrics_document](
          rpc::MsgType type, std::string_view body) -> Result<std::string> {
        if (type == rpc::MsgType::kMetrics) return metrics_document();
        return service_ptr->Handle(type, body);
      },
      server_options);
  if (!listened.ok()) {
    std::fprintf(stderr, "listen %s: %s\n", flags.listen.c_str(),
                 listened.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<rpc::TcpServer> server = std::move(*listened);

  // The ring identity: the advertised address when one is given (peers
  // then reach this node through a proxy/NAT at that address), the
  // bound address otherwise.
  NetAddress public_addr = server->address();
  if (!flags.advertise.empty()) {
    auto advertise_addr = rpc::ParseHostPort(flags.advertise);
    if (!advertise_addr.ok()) {
      std::fprintf(stderr, "--advertise: %s\n",
                   advertise_addr.status().ToString().c_str());
      return 2;
    }
    public_addr = *advertise_addr;
    if (public_addr.port == 0) public_addr.port = server->address().port;
  }

  auto service = rpc::NodeService::Make(public_addr, service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "node service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  service_ptr = service->get();

  // Worker pool (--workers >= 1): the poll loop hands each data-path
  // request to the executor and keeps polling; workers run the handler
  // against the (thread-safe) service and the completed responses come
  // back through the completion queue, whose doorbell fd wakes poll().
  // Everything else — membership, metrics, handoff — stays inline on
  // the poll thread, which therefore remains LiveMembership's only
  // thread.
  std::unique_ptr<rpc::Executor> executor;
  if (flags.workers < 0) return Usage(argv[0]);
  if (flags.workers > 0) {
    rpc::Executor::Options exec_options;
    exec_options.workers = flags.workers;
    exec_options.queue_depth = flags.queue_depth;
    auto made = rpc::Executor::Make(exec_options);
    if (!made.ok()) {
      std::fprintf(stderr, "executor: %s\n", made.status().ToString().c_str());
      return 1;
    }
    executor = std::move(*made);
    server->AddWakeFd(executor->doorbell_fd());
    server->set_async_dispatch([&service_ptr, &executor, &server](
                                   uint64_t conn_id,
                                   const rpc::RpcEnvelope& env) {
      const rpc::MsgType type = env.header.type;
      if (!rpc::IsBatchableMsgType(type) && type != rpc::MsgType::kMultiOp) {
        return false;  // poll thread serves it inline
      }
      const bool admitted = executor->TrySubmit(
          conn_id, [service_ptr, header = env.header, body = env.body]() {
            return rpc::EncodeResponse(header,
                                       service_ptr->Handle(header.type, body));
          });
      if (!admitted) {
        // Admission control: the queue is full, so the caller hears
        // "shed, retry later" now instead of waiting behind a backlog
        // that is already past the latency target.
        server->Respond(conn_id,
                        rpc::EncodeResponse(env.header,
                                            Status::ResourceExhausted(
                                                "work queue full")));
      }
      return true;
    });
  }

  // Outbound half of the peer: membership exchanges and descriptor
  // re-replication ride their own client transport. Outbound sockets
  // bind the listen host as their source address so a per-link shaper
  // (the chaos proxy) can attribute this node's traffic.
  rpc::TcpTransport::Options transport_options;
  transport_options.bind_host = listen_addr->host;
  rpc::TcpTransport transport{transport_options};

  rpc::MembershipConfig membership_config;
  membership_config.probe_period_ms = flags.probe_ms;
  membership_config.gossip_period_ms = flags.gossip_ms;
  membership_config.stabilize_period_ms = flags.stabilize_ms;
  membership_config.probe_timeout_ms = flags.probe_timeout_ms;
  membership_config.reconnect_period_ms = flags.reconnect_ms;
  membership_config.backoff_max_ms = flags.backoff_max_ms;
  membership_config.seed = rpc::RingView::IdOf(public_addr);
  auto membership = rpc::LiveMembership::Make(
      public_addr, StartupIncarnation(), membership_config, &transport);
  if (!membership.ok()) {
    std::fprintf(stderr, "membership: %s\n",
                 membership.status().ToString().c_str());
    return 1;
  }
  // Handlers decide redirects from an immutable snapshot of the alive
  // ring, published here first and by the poll loop on every iteration.
  (*service)->set_membership(&*membership);

  rpc::RereplicateConfig rereplicate_config;
  rereplicate_config.replication = flags.replication;
  rereplicate_config.handoff_deadline_ms = flags.handoff_deadline_ms;
  auto rereplicator = rpc::Rereplicator::Make(service->get(), &*membership,
                                              &transport, rereplicate_config);
  if (!rereplicator.ok()) {
    std::fprintf(stderr, "rereplication: %s\n",
                 rereplicator.status().ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, HandleStop);
  std::signal(SIGINT, HandleStop);
  std::signal(SIGPIPE, SIG_IGN);

  if (!flags.quiet) {
    const auto& report = (*service)->recovery();
    std::fprintf(stderr,
                 "p2prange_node listening on %s (id=%u)"
                 " recovered=%zu wal_replayed=%zu\n",
                 server->address().ToString().c_str(), (*service)->id(),
                 report.descriptors_restored, report.wal_records_replayed);
  }

  if (!flags.join.empty()) {
    auto bootstrap = rpc::ParseHostPort(flags.join);
    if (!bootstrap.ok()) {
      std::fprintf(stderr, "--join: %s\n",
                   bootstrap.status().ToString().c_str());
      return 2;
    }
    // The bootstrap peer may still be coming up (rings are grown by
    // scripts that start daemons in quick succession): retry for ~10s.
    Status joined = Status::Unavailable("never attempted");
    for (int attempt = 0; attempt < 50 && g_stop == 0; ++attempt) {
      joined = membership->Join(*bootstrap, /*deadline_ms=*/1000.0);
      if (joined.ok()) break;
      ::usleep(200 * 1000);
    }
    if (!joined.ok()) {
      std::fprintf(stderr, "join %s: %s\n", flags.join.c_str(),
                   joined.ToString().c_str());
      return 1;
    }
    // Pull the arc this node now owns; push sweeps from the existing
    // members cover the rest, so a failed pull degrades, not fails.
    const Status pulled = rereplicator->PullPartition();
    if (!pulled.ok() && !flags.quiet) {
      std::fprintf(stderr, "pull partition: %s\n", pulled.ToString().c_str());
    }
    if (!flags.quiet) {
      std::fprintf(stderr, "p2prange_node %s: joined ring via %s (%zu alive)\n",
                   server->address().ToString().c_str(), flags.join.c_str(),
                   membership->num_alive());
    }
  }

  metrics_document = [&]() {
    std::string extra = ",\"rpc\":" + server->stats().ToJson() +
                        ",\"membership\":" + membership->counters().ToJson() +
                        // Live gauge, not a counter: how many ring
                        // members (self included) this node can see
                        // right now. The partition acceptance tests
                        // poll it to observe a split becoming total.
                        ",\"membership_alive\":" +
                        std::to_string(membership->num_alive()) +
                        ",\"rereplication\":" +
                        rereplicator->counters().ToJson();
    if (executor != nullptr) {
      const rpc::ExecutorStats exec = executor->snapshot();
      extra += ",\"executor\":{\"workers\":" + std::to_string(flags.workers) +
               ",\"queue_depth\":" + std::to_string(flags.queue_depth) +
               ",\"submitted\":" + std::to_string(exec.submitted) +
               ",\"shed\":" + std::to_string(exec.shed) +
               ",\"completed\":" + std::to_string(exec.completed) +
               ",\"max_queue\":" + std::to_string(exec.max_queue) + "}";
    }
    return (*service)->MetricsJson(extra);
  };

  auto write_metrics = [&]() {
    if (flags.metrics_json.empty()) return;
    // Write-then-rename: a scraper reading mid-update must never see a
    // truncated half-written file, only the previous complete snapshot.
    const std::string tmp = flags.metrics_json + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << metrics_document() << "\n";
    }
    std::rename(tmp.c_str(), flags.metrics_json.c_str());
  };

  // Event loop: short poll timeout so the membership/re-replication
  // ticks and a stop signal are honored fast; metrics rewritten
  // periodically so scrapers always see fresh gauges.
  write_metrics();  // the file exists from the moment we are reachable
  int iterations_since_metrics = 0;
  while (g_stop == 0) {
    const Status st = server->PollOnce(/*timeout_ms=*/20);
    if (!st.ok()) {
      std::fprintf(stderr, "poll: %s\n", st.ToString().c_str());
      write_metrics();
      return 1;
    }
    if (executor != nullptr) {
      // Finished handler work comes home: frame each response back on
      // the connection that asked (gone connections drop theirs, as a
      // dead TCP peer would anyway).
      for (auto& done : executor->DrainCompletions()) {
        server->Respond(done.tag, done.payload);
      }
    }
    membership->Tick();
    rereplicator->Tick();
    (*service)->PublishRedirectRing();
    if (++iterations_since_metrics >= 50) {
      write_metrics();
      iterations_since_metrics = 0;
    }
  }

  // Stop intake, let the workers finish what was admitted, and flush
  // those last responses before the ring goodbye below.
  if (executor != nullptr) {
    executor->Shutdown();
    for (auto& done : executor->DrainCompletions()) {
      server->Respond(done.tag, done.payload);
    }
  }

  // Graceful leave: hand the local descriptors to the successor and
  // tell the neighbors, so the ring never serves a hole for them.
  if (membership->num_alive() > 1) {
    const Status handed = rereplicator->HandoffAll();
    if (!handed.ok() && !flags.quiet) {
      std::fprintf(stderr, "handoff: %s\n", handed.ToString().c_str());
    }
    membership->AnnounceLeave(/*deadline_ms=*/500.0);
  }

  write_metrics();
  if (!flags.quiet) {
    std::fprintf(stderr, "p2prange_node %s: graceful shutdown\n",
                 server->address().ToString().c_str());
  }
  return 0;
}
