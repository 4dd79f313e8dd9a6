#include "rpc/tcp_transport.h"

#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "rpc/tcp.h"

namespace p2prange {
namespace rpc {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Remaining budget as a poll() timeout, never negative, at least 1ms
/// while any budget is left so a nearly-expired deadline still gets
/// one chance to find bytes already in the kernel buffer.
int RemainingPollMs(Clock::time_point start, double deadline_ms) {
  const double left = deadline_ms - MsSince(start);
  if (left <= 0.0) return 0;
  return std::max(1, static_cast<int>(left));
}

constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

std::string RpcStats::ToJson() const {
  std::string out = "{";
  out += "\"requests_sent\":" + std::to_string(requests_sent);
  out += ",\"responses_received\":" + std::to_string(responses_received);
  out += ",\"requests_served\":" + std::to_string(requests_served);
  out += ",\"timeouts\":" + std::to_string(timeouts);
  out += ",\"retransmits\":" + std::to_string(retransmits);
  out += ",\"connect_failures\":" + std::to_string(connect_failures);
  out += ",\"frame_errors\":" + std::to_string(frame_errors);
  out += ",\"connections_opened\":" + std::to_string(connections_opened);
  out += ",\"connections_closed\":" + std::to_string(connections_closed);
  out += ",\"open_connections\":" + std::to_string(open_connections);
  out += ",\"accepts_shed\":" + std::to_string(accepts_shed);
  out += ",\"slow_readers_evicted\":" + std::to_string(slow_readers_evicted);
  out += ",\"idle_closed\":" + std::to_string(idle_closed);
  out += ",\"bytes_in\":" + std::to_string(bytes_in);
  out += ",\"bytes_out\":" + std::to_string(bytes_out);
  out += "}";
  return out;
}

// --------------------------------------------------------------------------
// TcpServer
// --------------------------------------------------------------------------

Result<TcpServer> TcpServer::Listen(const NetAddress& bind_addr,
                                    Handler handler) {
  return Listen(bind_addr, std::move(handler), Options{});
}

Result<TcpServer> TcpServer::Listen(const NetAddress& bind_addr,
                                    Handler handler, Options options) {
  ASSIGN_OR_RETURN(ListenSocket ls, rpc::Listen(bind_addr));
  return TcpServer(ls.fd, ls.bound, std::move(handler), options);
}

TcpServer::TcpServer(TcpServer&& other) noexcept
    : listen_fd_(other.listen_fd_),
      addr_(other.addr_),
      handler_(std::move(other.handler_)),
      options_(other.options_),
      async_(std::move(other.async_)),
      conns_(std::move(other.conns_)),
      wake_fds_(std::move(other.wake_fds_)),
      next_conn_id_(other.next_conn_id_),
      stats_(other.stats_) {
  other.listen_fd_ = -1;
  other.conns_.clear();
  other.wake_fds_.clear();
}

TcpServer& TcpServer::operator=(TcpServer&& other) noexcept {
  if (this == &other) return *this;
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  listen_fd_ = other.listen_fd_;
  addr_ = other.addr_;
  handler_ = std::move(other.handler_);
  options_ = other.options_;
  async_ = std::move(other.async_);
  conns_ = std::move(other.conns_);
  wake_fds_ = std::move(other.wake_fds_);
  next_conn_id_ = other.next_conn_id_;
  stats_ = other.stats_;
  other.listen_fd_ = -1;
  other.conns_.clear();
  other.wake_fds_.clear();
  return *this;
}

TcpServer::~TcpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
}

Status TcpServer::PollOnce(int timeout_ms) {
  ExclusiveUse::Scope use(&exclusive_, "TcpServer::PollOnce");
  if (listen_fd_ < 0) return Status::Internal("server not listening");

  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + wake_fds_.size() + 1);
  pollfd lp;
  lp.fd = listen_fd_;
  lp.events = POLLIN;
  lp.revents = 0;
  fds.push_back(lp);
  for (const auto& c : conns_) {
    pollfd p;
    p.fd = c->fd;
    p.events = POLLIN;
    if (c->out_pos < c->out.size()) p.events |= POLLOUT;
    p.revents = 0;
    fds.push_back(p);
  }
  // Wake fds ride at the tail: a readable one ends the poll() wait but
  // needs no handling here — its owner drains it after PollOnce.
  for (const int wfd : wake_fds_) {
    pollfd w;
    w.fd = wfd;
    w.events = POLLIN;
    w.revents = 0;
    fds.push_back(w);
  }

  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return Status::OK();  // signal: let the loop decide
    return Status::IOError(std::string("poll: ") + ::strerror(errno));
  }
  // A quiet timeout still falls through to SweepDeadlines and the
  // reap: a slow-loris or silent connection generates no events, so
  // the early-out would shield exactly the fds the deadlines target.
  if (n > 0 && (fds[0].revents & (POLLIN | POLLERR))) AcceptReady();

  // conns_ may grow during AcceptReady; only the entries between the
  // listener and the wake fds correspond to polled connections.
  const size_t num_polled = fds.size() - 1 - wake_fds_.size();
  for (size_t i = 1; i <= num_polled; ++i) {
    Conn& c = *conns_[i - 1];
    if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) c.dead = true;
    if (!c.dead && (fds[i].revents & POLLIN)) ReadReady(c);
    if (!c.dead && (fds[i].revents & POLLOUT)) WriteReady(c);
  }

  SweepDeadlines(Clock::now());

  for (auto& c : conns_) {
    // A handler response queued outside a POLLOUT wakeup: try to flush
    // opportunistically so short exchanges finish in one iteration.
    if (!c->dead && c->out_pos < c->out.size()) WriteReady(*c);
    if (c->dead) CloseConn(*c);
  }
  std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) { return c->dead; });
  stats_.open_connections = conns_.size();
  return Status::OK();
}

void TcpServer::AcceptReady() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // EAGAIN: drained the backlog. Anything else (e.g. a connection
      // reset before accept) is not the listener's problem.
      return;
    }
    if (options_.max_connections > 0 &&
        conns_.size() >= options_.max_connections) {
      // Shed at the door: an immediate close costs the caller one
      // failed exchange (Unavailable → failover) instead of letting
      // an unbounded fd population starve everyone.
      ::close(fd);
      ++stats_.accepts_shed;
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->opened_at = Clock::now();
    conn->last_activity = conn->opened_at;
    conns_.push_back(std::move(conn));
    ++stats_.connections_opened;
  }
}

void TcpServer::ReadReady(Conn& c) {
  char buf[kReadChunk];
  for (;;) {
    const ssize_t got = ::read(c.fd, buf, sizeof(buf));
    if (got > 0) {
      stats_.bytes_in += static_cast<uint64_t>(got);
      c.last_activity = Clock::now();
      c.parser.Feed(std::string_view(buf, static_cast<size_t>(got)));
      continue;
    }
    if (got == 0) {  // orderly shutdown from the peer
      c.dead = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c.dead = true;  // reset or worse
    break;
  }
  DispatchFrames(c);
}

void TcpServer::DispatchFrames(Conn& c) {
  for (;;) {
    auto next = c.parser.Next();
    if (!next.ok()) {
      // Corrupt stream: nothing after a bad frame can be trusted.
      ++stats_.frame_errors;
      c.dead = true;
      return;
    }
    if (!next->has_value()) return;  // need more bytes
    c.got_frame = true;

    auto envelope = DecodeEnvelope(**next);
    if (!envelope.ok() || envelope->header.is_response) {
      // A malformed envelope (or a "response" arriving at a server)
      // carries no trustworthy call id to answer under.
      ++stats_.frame_errors;
      c.dead = true;
      return;
    }

    ++stats_.requests_served;
    if (async_ && async_(c.id, *envelope)) continue;  // response deferred
    auto response = handler_(envelope->header.type, envelope->body);

    RpcHeader rh;
    rh.call_id = envelope->header.call_id;
    rh.type = envelope->header.type;
    rh.is_response = true;
    std::string body;
    if (response.ok()) {
      rh.status = StatusCode::kOk;
      body = std::move(*response);
    } else {
      rh.status = response.status().code();
      body = response.status().message();
    }
    AppendFrame(EncodeEnvelope(rh, body), &c.out);
    EnforceWriteCap(c);
    if (c.dead) return;
  }
}

void TcpServer::WriteReady(Conn& c) {
  while (c.out_pos < c.out.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection must surface as a
    // dead conn, not as a process-killing SIGPIPE.
    const ssize_t sent = ::send(c.fd, c.out.data() + c.out_pos,
                                c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (sent > 0) {
      stats_.bytes_out += static_cast<uint64_t>(sent);
      c.out_pos += static_cast<size_t>(sent);
      c.last_activity = Clock::now();
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (sent < 0 && errno == EINTR) continue;
    c.dead = true;
    return;
  }
  c.out.clear();
  c.out_pos = 0;
}

bool TcpServer::Respond(uint64_t conn_id, std::string_view envelope_payload) {
  ExclusiveUse::Scope use(&exclusive_, "TcpServer::Respond");
  for (auto& c : conns_) {
    if (c->id != conn_id || c->dead) continue;
    AppendFrame(envelope_payload, &c->out);
    // Flush opportunistically so a one-shot exchange completes without
    // waiting for the next POLLOUT wakeup; a dead conn stays in conns_
    // until PollOnce's reap, like every other death.
    WriteReady(*c);
    EnforceWriteCap(*c);
    return true;
  }
  return false;
}

void TcpServer::EnforceWriteCap(Conn& c) {
  if (c.dead || options_.max_out_buffer == 0) return;
  if (c.out.size() - c.out_pos <= options_.max_out_buffer) return;
  // Let the kernel absorb what it can before judging the reader.
  WriteReady(c);
  if (c.dead || c.out.size() - c.out_pos <= options_.max_out_buffer) return;
  ++stats_.slow_readers_evicted;
  // Abortive close: the reader's window is already full, so an orderly
  // FIN would queue behind the very backlog being shed and the kernel
  // would linger holding a full send buffer. RST releases it now.
  const linger lg{1, 0};
  (void)::setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  c.dead = true;
}

void TcpServer::SweepDeadlines(std::chrono::steady_clock::time_point now) {
  const bool idle_on = options_.read_idle_timeout_ms > 0.0;
  const bool loris_on = options_.first_frame_timeout_ms > 0.0;
  if (!idle_on && !loris_on) return;
  for (auto& c : conns_) {
    if (c->dead) continue;
    const double since_activity =
        std::chrono::duration<double, std::milli>(now - c->last_activity)
            .count();
    const double since_open =
        std::chrono::duration<double, std::milli>(now - c->opened_at).count();
    if (loris_on && !c->got_frame &&
        since_open > options_.first_frame_timeout_ms) {
      // Accepted long ago, never completed one frame: a trickler (or a
      // port scanner). Whatever it is, it holds an fd hostage.
      ++stats_.idle_closed;
      c->dead = true;
      continue;
    }
    if (idle_on && since_activity > options_.read_idle_timeout_ms) {
      ++stats_.idle_closed;
      c->dead = true;
    }
  }
}

void TcpServer::AddWakeFd(int fd) {
  ExclusiveUse::Scope use(&exclusive_, "TcpServer::AddWakeFd");
  wake_fds_.push_back(fd);
}

void TcpServer::CloseConn(Conn& c) {
  if (c.fd >= 0) {
    ::close(c.fd);
    c.fd = -1;
    ++stats_.connections_closed;
  }
  c.dead = true;
}

// --------------------------------------------------------------------------
// TcpTransport
// --------------------------------------------------------------------------

TcpTransport::~TcpTransport() {
  for (auto& [addr, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

Result<TcpTransport::Conn*> TcpTransport::GetConn(const NetAddress& to) {
  auto it = conns_.find(to);
  if (it != conns_.end()) {
    Conn& cached = it->second;
    // Between calls a server may have closed this cached connection
    // (idle timeout, restart). Reusing it would send a request nobody
    // reads and surface a bogus Unavailable — so with nothing in
    // flight, one zero-timeout poll checks for a pending EOF/RST and
    // reconnects transparently instead.
    if (cached.sent_at.empty() && cached.parked.empty()) {
      pollfd pfd;
      pfd.fd = cached.fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (::poll(&pfd, 1, 0) > 0 &&
          (pfd.revents & (POLLIN | POLLERR | POLLHUP))) {
        char probe = 0;
        const ssize_t got = ::recv(cached.fd, &probe, 1, MSG_PEEK);
        const bool alive_with_data =
            got > 0 ||
            (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
        if (!alive_with_data) {
          CloseConn(to);
          it = conns_.end();
        }
      }
    }
    if (it != conns_.end()) return &it->second;
  }

  auto fd = StartConnect(to, options_.bind_host);
  if (fd.ok()) {
    const Status fin = FinishConnect(*fd, options_.connect_timeout_ms);
    if (!fin.ok()) {
      ::close(*fd);
      fd = fin;
    }
  }
  if (!fd.ok()) {
    ++rpc_.connect_failures;
    return fd.status();
  }

  Conn conn;
  conn.fd = *fd;
  auto [pos, inserted] = conns_.emplace(to, std::move(conn));
  (void)inserted;
  ++rpc_.connections_opened;
  rpc_.open_connections = conns_.size();
  return &pos->second;
}

void TcpTransport::CloseConn(const NetAddress& to) {
  auto it = conns_.find(to);
  if (it == conns_.end()) return;
  if (it->second.fd >= 0) ::close(it->second.fd);
  conns_.erase(it);
  ++rpc_.connections_closed;
  rpc_.open_connections = conns_.size();
}

void TcpTransport::Disconnect(const NetAddress& to) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::Disconnect");
  CloseConn(to);
}

void TcpTransport::PumpFor(double ms) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::PumpFor");
  const auto started = Clock::now();
  // A connection that dies mid-pump is left alone — its parked
  // responses must survive for their WaitCalls, which will rediscover
  // the death — but excluded from further polling here, or its
  // level-triggered HUP would turn the rest of the wait into a spin.
  std::vector<NetAddress> dead;
  for (;;) {
    const double left = ms - MsSince(started);
    if (left <= 0.0) return;
    std::vector<pollfd> fds;
    std::vector<NetAddress> addrs;
    for (const auto& [addr, conn] : conns_) {
      if (std::find(dead.begin(), dead.end(), addr) != dead.end()) continue;
      pollfd p;
      p.fd = conn.fd;
      p.events = POLLIN;
      p.revents = 0;
      fds.push_back(p);
      addrs.push_back(addr);
    }
    if (fds.empty()) {
      ::usleep(static_cast<useconds_t>(left * 1000.0));
      return;
    }
    const int n =
        ::poll(fds.data(), fds.size(), std::max(1, static_cast<int>(left)));
    if (n < 0 && errno != EINTR) return;
    if (n <= 0) continue;  // quiet wait; budget re-checked at loop top
    for (size_t i = 0; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      auto it = conns_.find(addrs[i]);
      if (it == conns_.end()) continue;
      if (!DrainReady(addrs[i], it->second).ok()) dead.push_back(addrs[i]);
    }
  }
}

Status TcpTransport::SendAll(Conn& c, std::string_view bytes,
                             double deadline_ms) {
  const auto start = Clock::now();
  size_t pos = 0;
  while (pos < bytes.size()) {
    // MSG_NOSIGNAL: see TcpServer::WriteReady.
    const ssize_t sent =
        ::send(c.fd, bytes.data() + pos, bytes.size() - pos, MSG_NOSIGNAL);
    if (sent > 0) {
      rpc_.bytes_out += static_cast<uint64_t>(sent);
      pos += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int wait = RemainingPollMs(start, deadline_ms);
      if (wait == 0) {
        ++rpc_.timeouts;
        return Status::IOError("send timed out");
      }
      pollfd pfd;
      pfd.fd = c.fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      const int n = ::poll(&pfd, 1, wait);
      if (n < 0 && errno != EINTR) {
        return Status::IOError(std::string("poll: ") + ::strerror(errno));
      }
      continue;
    }
    // EPIPE / ECONNRESET: the peer is gone.
    return Status::Unavailable(std::string("send: ") + ::strerror(errno));
  }
  return Status::OK();
}

Result<uint64_t> TcpTransport::StartCall(const NetAddress& to, MsgType type,
                                         std::string_view request) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::StartCall");
  ASSIGN_OR_RETURN(Conn * conn, GetConn(to));
  const uint64_t call_id = conn->next_call_id++;

  RpcHeader rh;
  rh.call_id = call_id;
  rh.type = type;
  rh.is_response = false;
  rh.status = StatusCode::kOk;
  std::string frame;
  AppendFrame(EncodeEnvelope(rh, request), &frame);

  conn->sent_at[call_id] = Clock::now();
  ++rpc_.requests_sent;
  const Status sent = SendAll(*conn, frame, options_.default_deadline_ms);
  if (!sent.ok()) {
    if (sent.IsUnavailable()) {
      CloseConn(to);
    } else {
      conn->sent_at.erase(call_id);
    }
    return sent;
  }
  return call_id;
}

Status TcpTransport::ReadUntil(const NetAddress& to, Conn& c, uint64_t call_id,
                               double deadline_ms, RpcEnvelope* out) {
  const auto start = Clock::now();
  char buf[kReadChunk];
  for (;;) {
    // Drain every complete frame already buffered.
    for (;;) {
      auto next = c.parser.Next();
      if (!next.ok()) {
        ++rpc_.frame_errors;
        CloseConn(to);
        return Status::IOError("corrupt frame from " + to.ToString() + ": " +
                               next.status().message());
      }
      if (!next->has_value()) break;
      auto envelope = DecodeEnvelope(**next);
      if (!envelope.ok() || !envelope->header.is_response) {
        ++rpc_.frame_errors;
        CloseConn(to);
        return Status::IOError("bad envelope from " + to.ToString());
      }
      const uint64_t id = envelope->header.call_id;
      ++rpc_.responses_received;
      if (id == call_id) {
        *out = std::move(*envelope);
        return Status::OK();
      }
      c.parked[id] = std::move(*envelope);
    }

    const int wait = RemainingPollMs(start, deadline_ms);
    if (wait == 0) {
      ++rpc_.timeouts;
      c.sent_at.erase(call_id);
      return Status::IOError("call " + std::to_string(call_id) + " to " +
                             to.ToString() + " missed its " +
                             std::to_string(deadline_ms) + "ms deadline");
    }
    pollfd pfd;
    pfd.fd = c.fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int n = ::poll(&pfd, 1, wait);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + ::strerror(errno));
    }
    if (n == 0) continue;  // deadline check at loop top

    const ssize_t got = ::read(c.fd, buf, sizeof(buf));
    if (got > 0) {
      rpc_.bytes_in += static_cast<uint64_t>(got);
      c.parser.Feed(std::string_view(buf, static_cast<size_t>(got)));
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (got < 0 && errno == EINTR) continue;
    // 0 = orderly close; <0 = reset. Either way the peer is gone with
    // our call unanswered.
    CloseConn(to);
    return Status::Unavailable("connection to " + to.ToString() +
                               " closed mid-call");
  }
}

Result<TcpTransport::CallResult> TcpTransport::FinishCall(
    Conn& c, uint64_t call_id, RpcEnvelope envelope) {
  CallResult result;
  auto sent = c.sent_at.find(call_id);
  if (sent != c.sent_at.end()) {
    result.latency_ms = MsSince(sent->second);
    c.sent_at.erase(sent);
  }

  if (envelope.header.status != StatusCode::kOk) {
    // The server's handler failed; surface its error as our own.
    return Status(envelope.header.status, std::move(envelope.body));
  }
  result.body = std::move(envelope.body);
  return result;
}

Result<TcpTransport::CallResult> TcpTransport::WaitCall(const NetAddress& to,
                                                        uint64_t call_id,
                                                        double deadline_ms) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::WaitCall");
  auto it = conns_.find(to);
  if (it == conns_.end()) {
    return Status::IOError("no connection to " + to.ToString() +
                           " (call abandoned)");
  }
  Conn& conn = it->second;

  RpcEnvelope envelope;
  auto parked = conn.parked.find(call_id);
  if (parked != conn.parked.end()) {
    envelope = std::move(parked->second);
    conn.parked.erase(parked);
  } else {
    RETURN_NOT_OK(ReadUntil(to, conn, call_id, deadline_ms, &envelope));
  }
  return FinishCall(conn, call_id, std::move(envelope));
}

Status TcpTransport::DrainReady(const NetAddress& to, Conn& c) {
  // One pass over whatever the kernel already buffered; never blocks
  // (poll with a zero timeout). A detected close is reported to the
  // caller *after* parking the frames that preceded it, so a response
  // followed by a FIN still reaches its call.
  char buf[kReadChunk];
  Status death = Status::OK();
  for (;;) {
    pollfd pfd;
    pfd.fd = c.fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int n = ::poll(&pfd, 1, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      death = Status::IOError(std::string("poll: ") + ::strerror(errno));
      break;
    }
    if (n == 0) break;  // nothing more buffered
    const ssize_t got = ::read(c.fd, buf, sizeof(buf));
    if (got > 0) {
      rpc_.bytes_in += static_cast<uint64_t>(got);
      c.parser.Feed(std::string_view(buf, static_cast<size_t>(got)));
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (got < 0 && errno == EINTR) continue;
    // 0 = orderly close; <0 = reset.
    death = Status::Unavailable("connection to " + to.ToString() +
                                " closed mid-call");
    break;
  }
  for (;;) {
    auto next = c.parser.Next();
    if (!next.ok()) {
      ++rpc_.frame_errors;
      return Status::IOError("corrupt frame from " + to.ToString() + ": " +
                             next.status().message());
    }
    if (!next->has_value()) break;
    auto envelope = DecodeEnvelope(**next);
    if (!envelope.ok() || !envelope->header.is_response) {
      ++rpc_.frame_errors;
      return Status::IOError("bad envelope from " + to.ToString());
    }
    ++rpc_.responses_received;
    c.parked[envelope->header.call_id] = std::move(*envelope);
  }
  return death;
}

Result<std::optional<TcpTransport::CallResult>> TcpTransport::PollCall(
    const NetAddress& to, uint64_t call_id) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::PollCall");
  auto it = conns_.find(to);
  if (it == conns_.end()) {
    return Status::IOError("no connection to " + to.ToString() +
                           " (call abandoned)");
  }
  Conn& conn = it->second;

  Status drained = Status::OK();
  auto parked = conn.parked.find(call_id);
  if (parked == conn.parked.end()) {
    drained = DrainReady(to, conn);
    parked = conn.parked.find(call_id);
  }
  if (parked != conn.parked.end()) {
    RpcEnvelope envelope = std::move(parked->second);
    conn.parked.erase(parked);
    ASSIGN_OR_RETURN(CallResult result,
                     FinishCall(conn, call_id, std::move(envelope)));
    return std::optional<CallResult>(std::move(result));
  }
  if (!drained.ok()) {
    CloseConn(to);
    return drained;
  }
  // Still in flight: nothing charged, the deadline is the caller's to
  // keep (membership turns "unanswered past its budget" into a miss).
  return std::optional<CallResult>();
}

Result<TcpTransport::CallResult> TcpTransport::Call(
    const NetAddress& to, MsgType type, std::string_view request,
    const CallOptions& options) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::Call");
  const double deadline = options.deadline_ms > 0.0
                              ? options.deadline_ms
                              : options_.default_deadline_ms;
  ASSIGN_OR_RETURN(uint64_t call_id, StartCall(to, type, request));
  return WaitCall(to, call_id, deadline);
}

}  // namespace rpc
}  // namespace p2prange
