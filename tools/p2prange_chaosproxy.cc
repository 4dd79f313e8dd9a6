// p2prange_chaosproxy: a deterministic TCP fault-injection proxy for
// the live ring (DESIGN.md §11).
//
// The proxy fronts N daemons: listener i forwards to upstream i, and
// every proxied byte stream is shaped by a ChaosPlan (src/rpc/chaos.h)
// — scripted latency/jitter, probabilistic drop and corruption,
// bandwidth throttling (slow-loris when small), mid-stream RST, and
// simplex/duplex partitions with scheduled heal. Daemons run with
//
//   p2prange_node --listen=REAL_i --advertise=PROXY_i
//
// so every peer- and client-visible address is the proxy's; daemons
// bind their outbound source to their own IP (TcpTransport bind_host),
// which is how the proxy attributes a connection arriving at listener
// i to a directed link F->i (source IP matched against the upstream
// hosts; anything else is a client, link "c").
//
//   p2prange_chaosproxy --listen=A1,A2,... --upstream=U1,U2,...
//       [--plan=FILE | --rules='r1;r2;...'] [--seed=N]
//       [--metrics_json=PATH] [--quiet]
//
// --rules takes the plan grammar with ';' for newlines. SIGHUP
// re-reads --plan and restarts the schedule clock, so a harness can
// install "partition now" with an exact epoch. Determinism: shaping
// decisions come from Rngs seeded by (plan seed, link, connection
// serial), never from wall-clock entropy, so a replay of the same
// schedule over the same connection order makes the same choices.
//
// SIGTERM/SIGINT writes the per-link counters to --metrics_json and
// exits 0.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "flags.h"
#include "rpc/chaos.h"
#include "rpc/tcp.h"

namespace {

using p2prange::NetAddress;
using p2prange::Rng;
using p2prange::rpc::ChaosPlan;
using p2prange::rpc::kChaosClient;
using p2prange::rpc::LinkEffects;
using p2prange::tools::ParseFlag;
using p2prange::tools::ParseNumberFlag;

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;

void HandleStop(int) { g_stop = 1; }
void HandleReload(int) { g_reload = 1; }

/// Shaping quantum: effects are applied per segment of at most this
/// many bytes, so drop/corrupt probabilities have a stable unit and a
/// delayed stream still interleaves at sub-frame granularity.
constexpr size_t kSegmentBytes = 1024;
/// Per-direction ceiling on delayed + writable bytes; past it the
/// proxy stops reading from the source (backpressure instead of RSS).
constexpr size_t kMaxBuffered = 4 * 1024 * 1024;
/// Poll granularity: delays and rate release quantize to this.
constexpr int kTickMs = 5;

struct Flags {
  std::vector<std::string> listen;
  std::vector<std::string> upstream;
  std::string plan_file;
  std::string rules;
  std::string metrics_json;
  uint64_t seed = 0;  // 0 = keep the plan's seed
  bool seed_set = false;
  bool quiet = false;
};

struct Segment {
  double release_ms = 0.0;
  std::string bytes;
};

/// Counters of one directed link, accumulated across connections.
struct LinkStats {
  uint64_t conns = 0;
  uint64_t bytes_forwarded = 0;
  uint64_t bytes_blackholed = 0;
  uint64_t segments_dropped = 0;
  uint64_t segments_corrupted = 0;
  uint64_t resets = 0;
};

/// One direction of a proxied connection: read src, shape, write dst.
struct Flow {
  int src_fd = -1;
  int dst_fd = -1;
  int from = kChaosClient;
  int to = kChaosClient;
  Rng rng{1};
  std::deque<Segment> delayed;
  size_t delayed_bytes = 0;
  std::string out;          ///< released, waiting for the dst socket
  double credit = 0.0;      ///< rate-limiter token bucket (bytes)
  double credit_at_ms = 0.0;
  uint64_t forwarded = 0;   ///< bytes written to dst so far
  bool src_eof = false;
  bool dst_shut = false;    ///< SHUT_WR already sent to dst
};

struct ProxyConn {
  int client_fd = -1;
  int upstream_fd = -1;
  bool upstream_connected = false;
  int node = 0;             ///< index of the fronted daemon
  int peer = kChaosClient;  ///< who connected (node index or client)
  Flow inbound;             ///< peer -> node
  Flow outbound;            ///< node -> peer
  bool dead = false;
  bool reset = false;  ///< close with RST (SO_LINGER 0)
};

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen=H:P[,H:P...] --upstream=H:P[,H:P...] "
               "[--plan=FILE | --rules='RULE;RULE;...'] [--seed=N] "
               "[--metrics_json=PATH] [--quiet]\n",
               argv0);
  return 2;
}

class ChaosProxy {
 public:
  ChaosProxy(ChaosPlan plan, std::vector<NetAddress> upstreams, bool quiet)
      : plan_(std::move(plan)),
        upstreams_(std::move(upstreams)),
        quiet_(quiet),
        epoch_(Clock::now()) {
    link_stats_.resize((upstreams_.size() + 1) * (upstreams_.size() + 1));
  }

  void set_plan(ChaosPlan plan) {
    plan_ = std::move(plan);
    epoch_ = Clock::now();
  }

  void AddListener(int fd) { listeners_.push_back(fd); }

  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
        .count();
  }

  /// One poll-loop iteration: accept, read+shape, release, write.
  void Tick() {
    PollSockets();
    const double elapsed = ElapsedMs();
    AcceptReady();
    for (auto& conn : conns_) {
      if (conn->dead) continue;
      FinishUpstream(*conn);
      PumpFlow(*conn, conn->inbound, elapsed);
      if (conn->dead) continue;
      PumpFlow(*conn, conn->outbound, elapsed);
      if (!conn->dead && BothDrained(*conn)) conn->dead = true;
    }
    Reap();
  }

  std::string MetricsJson() const {
    std::string out = "{\"accepted\":" + std::to_string(accepted_);
    out += ",\"open\":" + std::to_string(conns_.size());
    out += ",\"links\":[";
    bool first = true;
    const int n = static_cast<int>(upstreams_.size());
    for (int from = -1; from < n; ++from) {
      for (int to = -1; to < n; ++to) {
        const LinkStats& s = StatsFor(from < 0 ? kChaosClient : from,
                                      to < 0 ? kChaosClient : to);
        if (s.conns == 0 && s.bytes_forwarded == 0 && s.bytes_blackholed == 0 &&
            s.segments_dropped == 0 && s.resets == 0) {
          continue;
        }
        if (!first) out += ',';
        first = false;
        out += "{\"from\":\"" + EndpointName(from < 0 ? kChaosClient : from);
        out += "\",\"to\":\"" + EndpointName(to < 0 ? kChaosClient : to);
        out += "\",\"conns\":" + std::to_string(s.conns);
        out += ",\"bytes_forwarded\":" + std::to_string(s.bytes_forwarded);
        out += ",\"bytes_blackholed\":" + std::to_string(s.bytes_blackholed);
        out += ",\"segments_dropped\":" + std::to_string(s.segments_dropped);
        out += ",\"segments_corrupted\":" + std::to_string(s.segments_corrupted);
        out += ",\"resets\":" + std::to_string(s.resets);
        out += "}";
      }
    }
    out += "]}";
    return out;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static std::string EndpointName(int e) {
    return e == kChaosClient ? std::string("c") : std::to_string(e);
  }

  /// Dense (from, to) -> stats slot; client maps to index 0.
  LinkStats& StatsFor(int from, int to) {
    const size_t n = upstreams_.size() + 1;
    const size_t f = from == kChaosClient ? 0 : static_cast<size_t>(from) + 1;
    const size_t t = to == kChaosClient ? 0 : static_cast<size_t>(to) + 1;
    return link_stats_[f * n + t];
  }
  const LinkStats& StatsFor(int from, int to) const {
    return const_cast<ChaosProxy*>(this)->StatsFor(from, to);
  }

  void PollSockets() {
    std::vector<pollfd> fds;
    fds.reserve(listeners_.size() + conns_.size() * 2);
    for (int fd : listeners_) fds.push_back({fd, POLLIN, 0});
    for (const auto& conn : conns_) {
      if (conn->dead) continue;
      short client_ev = POLLIN;
      if (!conn->outbound.out.empty()) client_ev |= POLLOUT;
      fds.push_back({conn->client_fd, client_ev, 0});
      short up_ev = POLLIN;
      if (!conn->upstream_connected || !conn->inbound.out.empty()) {
        up_ev |= POLLOUT;
      }
      fds.push_back({conn->upstream_fd, up_ev, 0});
    }
    // The tick is the clock for delays and rate release; poll is only
    // an early wake-up when bytes arrive.
    ::poll(fds.data(), fds.size(), kTickMs);
  }

  void AcceptReady() {
    for (size_t i = 0; i < listeners_.size(); ++i) {
      for (;;) {
        const int fd = ::accept4(listeners_[i], nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;
        NewConn(static_cast<int>(i), fd);
      }
    }
  }

  void NewConn(int node, int client_fd) {
    // Who connected? Daemons bind their outbound source to their own
    // IP, so the peer address names the directed link.
    int peer = kChaosClient;
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    if (::getpeername(client_fd, reinterpret_cast<sockaddr*>(&sa), &len) ==
        0) {
      const NetAddress src = p2prange::rpc::FromSockaddr(sa);
      for (size_t i = 0; i < upstreams_.size(); ++i) {
        if (upstreams_[i].host == src.host) {
          peer = static_cast<int>(i);
          break;
        }
      }
    }
    auto started = p2prange::rpc::StartConnect(upstreams_[static_cast<size_t>(node)]);
    if (!started.ok()) {
      ::close(client_fd);
      return;
    }
    auto conn = std::make_unique<ProxyConn>();
    conn->client_fd = client_fd;
    conn->upstream_fd = *started;
    conn->node = node;
    conn->peer = peer;
    const uint64_t serial = ++accepted_;
    conn->inbound.src_fd = client_fd;
    conn->inbound.dst_fd = conn->upstream_fd;
    conn->inbound.from = peer;
    conn->inbound.to = node;
    conn->inbound.rng = Rng(plan_.ShaperSeed(peer, node, serial));
    conn->outbound.src_fd = conn->upstream_fd;
    conn->outbound.dst_fd = client_fd;
    conn->outbound.from = node;
    conn->outbound.to = peer;
    conn->outbound.rng = Rng(plan_.ShaperSeed(node, peer, serial));
    ++StatsFor(peer, node).conns;
    if (!quiet_) {
      std::fprintf(stderr, "chaosproxy: conn #%llu %s->%d\n",
                   static_cast<unsigned long long>(serial),
                   EndpointName(peer).c_str(), node);
    }
    conns_.push_back(std::move(conn));
  }

  void FinishUpstream(ProxyConn& conn) {
    if (conn.upstream_connected) return;
    pollfd pfd{conn.upstream_fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 0) <= 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(conn.upstream_fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      conn.dead = true;  // upstream refused: drop the client too
      return;
    }
    conn.upstream_connected = true;
  }

  void KillWithReset(ProxyConn& conn) {
    conn.dead = true;
    conn.reset = true;
  }

  /// Read src, apply per-segment effects, release due segments, write
  /// dst under the rate limit, fire scheduled resets.
  void PumpFlow(ProxyConn& conn, Flow& flow, double elapsed) {
    const LinkEffects fx = plan_.EffectsAt(elapsed, flow.from, flow.to);
    LinkStats& stats = StatsFor(flow.from, flow.to);

    // Intake. Skipped while over the buffer cap: TCP backpressure on
    // the source instead of unbounded proxy memory.
    const bool writing_to_upstream = flow.dst_fd == conn.upstream_fd;
    if (!flow.src_eof && flow.delayed_bytes + flow.out.size() < kMaxBuffered) {
      char buf[16 * 1024];
      for (;;) {
        const ssize_t n = ::recv(flow.src_fd, buf, sizeof(buf), 0);
        if (n == 0) {
          flow.src_eof = true;
          break;
        }
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          flow.src_eof = true;
          break;
        }
        for (ssize_t off = 0; off < n;
             off += static_cast<ssize_t>(kSegmentBytes)) {
          const size_t seg_len = std::min(
              kSegmentBytes, static_cast<size_t>(n - off));
          std::string seg(buf + off, seg_len);
          if (fx.blackhole) {
            stats.bytes_blackholed += seg.size();
            continue;
          }
          if (fx.drop_prob > 0.0 && flow.rng.NextBernoulli(fx.drop_prob)) {
            ++stats.segments_dropped;
            continue;
          }
          if (fx.corrupt_prob > 0.0 &&
              flow.rng.NextBernoulli(fx.corrupt_prob)) {
            const size_t byte = flow.rng.NextBounded(seg.size());
            seg[byte] = static_cast<char>(
                static_cast<uint8_t>(seg[byte]) ^
                (1u << flow.rng.NextBounded(8)));
            ++stats.segments_corrupted;
          }
          double release = elapsed;
          if (fx.delay_ms > 0.0 || fx.jitter_ms > 0.0) {
            release += fx.delay_ms + fx.jitter_ms * flow.rng.NextDouble();
          }
          flow.delayed_bytes += seg.size();
          flow.delayed.push_back(Segment{release, std::move(seg)});
        }
        if (static_cast<size_t>(n) < sizeof(buf)) break;
      }
    }

    // Release due segments into the write buffer.
    while (!flow.delayed.empty() && flow.delayed.front().release_ms <= elapsed) {
      flow.delayed_bytes -= flow.delayed.front().bytes.size();
      flow.out += flow.delayed.front().bytes;
      flow.delayed.pop_front();
    }

    // Write under the token bucket (bps = 0 means unlimited).
    const bool dst_ready = !writing_to_upstream || conn.upstream_connected;
    if (!flow.out.empty() && dst_ready) {
      size_t allowed = flow.out.size();
      if (fx.bytes_per_s > 0.0) {
        const double dt_s = (elapsed - flow.credit_at_ms) / 1000.0;
        if (dt_s > 0.0) flow.credit += fx.bytes_per_s * dt_s;
        // Bursts bounded to a quarter second of budget.
        flow.credit = std::min(flow.credit,
                               std::max(fx.bytes_per_s * 0.25, 64.0));
        allowed = std::min(allowed, static_cast<size_t>(flow.credit));
      }
      flow.credit_at_ms = elapsed;
      if (allowed > 0) {
        const ssize_t n =
            ::send(flow.dst_fd, flow.out.data(), allowed, MSG_NOSIGNAL);
        if (n > 0) {
          flow.out.erase(0, static_cast<size_t>(n));
          flow.forwarded += static_cast<uint64_t>(n);
          stats.bytes_forwarded += static_cast<uint64_t>(n);
          if (fx.bytes_per_s > 0.0) flow.credit -= static_cast<double>(n);
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          conn.dead = true;
          return;
        }
      }
    }

    // Scheduled mid-stream reset.
    if (fx.reset_after_bytes > 0 && flow.forwarded >= fx.reset_after_bytes) {
      ++stats.resets;
      if (!quiet_) {
        std::fprintf(stderr, "chaosproxy: reset %s->%s after %llu bytes\n",
                     EndpointName(flow.from).c_str(),
                     EndpointName(flow.to).c_str(),
                     static_cast<unsigned long long>(flow.forwarded));
      }
      KillWithReset(conn);
      return;
    }

    // Half-close: source finished and everything shaped has drained.
    if (flow.src_eof && flow.delayed.empty() && flow.out.empty() &&
        !flow.dst_shut && dst_ready) {
      ::shutdown(flow.dst_fd, SHUT_WR);
      flow.dst_shut = true;
    }
  }

  static bool BothDrained(const ProxyConn& conn) {
    return conn.inbound.dst_shut && conn.outbound.dst_shut;
  }

  void Reap() {
    for (auto& conn : conns_) {
      if (!conn->dead) continue;
      if (conn->reset) {
        // SO_LINGER(0): close sends RST, the authentic mid-frame kill.
        linger lg{1, 0};
        ::setsockopt(conn->client_fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        ::setsockopt(conn->upstream_fd, SOL_SOCKET, SO_LINGER, &lg,
                     sizeof(lg));
      }
      ::close(conn->client_fd);
      ::close(conn->upstream_fd);
    }
    std::erase_if(conns_,
                  [](const std::unique_ptr<ProxyConn>& c) { return c->dead; });
  }

  ChaosPlan plan_;
  std::vector<NetAddress> upstreams_;
  bool quiet_;
  Clock::time_point epoch_;
  std::vector<int> listeners_;
  std::vector<std::unique_ptr<ProxyConn>> conns_;
  std::vector<LinkStats> link_stats_;
  uint64_t accepted_ = 0;
};

p2prange::Result<ChaosPlan> LoadPlan(const Flags& flags) {
  std::string text;
  if (!flags.plan_file.empty()) {
    std::ifstream in(flags.plan_file);
    if (!in) {
      return p2prange::Status::IOError("cannot read plan file " +
                                       flags.plan_file);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  } else {
    text = flags.rules;
    for (char& c : text) {
      if (c == ';') c = '\n';
    }
  }
  ASSIGN_OR_RETURN(ChaosPlan plan, ChaosPlan::Parse(text));
  if (flags.seed_set) plan.seed = flags.seed;
  return plan;
}

void WriteMetrics(const std::string& path, const ChaosProxy& proxy) {
  if (path.empty()) return;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << proxy.MetricsJson() << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2prange;

  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "listen", &value)) {
      flags.listen = SplitCommas(value);
      continue;
    }
    if (ParseFlag(arg, "upstream", &value)) {
      flags.upstream = SplitCommas(value);
      continue;
    }
    if (ParseFlag(arg, "plan", &flags.plan_file)) continue;
    if (ParseFlag(arg, "rules", &flags.rules)) continue;
    if (ParseFlag(arg, "metrics_json", &flags.metrics_json)) continue;
    bool malformed = false;
    if (ParseNumberFlag(arg, "seed", &flags.seed, &malformed)) {
      if (malformed) {
        std::fprintf(stderr, "malformed value: %s\n", arg.c_str());
        return Usage(argv[0]);
      }
      flags.seed_set = true;
      continue;
    }
    if (arg == "--quiet") {
      flags.quiet = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
    return Usage(argv[0]);
  }
  if (flags.listen.empty() || flags.listen.size() != flags.upstream.size()) {
    std::fprintf(stderr, "--listen and --upstream must pair up\n");
    return Usage(argv[0]);
  }
  if (!flags.plan_file.empty() && !flags.rules.empty()) {
    std::fprintf(stderr, "--plan and --rules are exclusive\n");
    return Usage(argv[0]);
  }

  auto plan = LoadPlan(flags);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 2;
  }

  std::vector<NetAddress> upstreams;
  for (const std::string& u : flags.upstream) {
    auto addr = rpc::ParseHostPort(u);
    if (!addr.ok()) {
      std::fprintf(stderr, "--upstream %s: %s\n", u.c_str(),
                   addr.status().ToString().c_str());
      return 2;
    }
    upstreams.push_back(*addr);
  }

  ChaosProxy proxy(std::move(*plan), upstreams, flags.quiet);
  for (size_t i = 0; i < flags.listen.size(); ++i) {
    auto addr = rpc::ParseHostPort(flags.listen[i]);
    if (!addr.ok()) {
      std::fprintf(stderr, "--listen %s: %s\n", flags.listen[i].c_str(),
                   addr.status().ToString().c_str());
      return 2;
    }
    auto listener = rpc::Listen(*addr);
    if (!listener.ok()) {
      std::fprintf(stderr, "listen %s: %s\n", flags.listen[i].c_str(),
                   listener.status().ToString().c_str());
      return 1;
    }
    proxy.AddListener(listener->fd);
    if (!flags.quiet) {
      std::fprintf(stderr, "chaosproxy: %s -> %s\n",
                   listener->bound.ToString().c_str(),
                   upstreams[i].ToString().c_str());
    }
  }

  std::signal(SIGTERM, HandleStop);
  std::signal(SIGINT, HandleStop);
  std::signal(SIGHUP, HandleReload);
  std::signal(SIGPIPE, SIG_IGN);

  WriteMetrics(flags.metrics_json, proxy);
  int ticks_since_metrics = 0;
  while (g_stop == 0) {
    if (g_reload != 0) {
      g_reload = 0;
      // Re-read the schedule and restart its clock: the harness edits
      // the plan file, SIGHUPs, and the new rules' t=0 is "now".
      auto reloaded = LoadPlan(flags);
      if (reloaded.ok()) {
        proxy.set_plan(std::move(*reloaded));
        if (!flags.quiet) std::fprintf(stderr, "chaosproxy: plan reloaded\n");
      } else {
        std::fprintf(stderr, "chaosproxy: reload failed: %s\n",
                     reloaded.status().ToString().c_str());
      }
    }
    proxy.Tick();
    if (++ticks_since_metrics >= 100) {
      WriteMetrics(flags.metrics_json, proxy);
      ticks_since_metrics = 0;
    }
  }
  WriteMetrics(flags.metrics_json, proxy);
  if (!flags.quiet) std::fprintf(stderr, "chaosproxy: shutdown\n");
  return 0;
}
