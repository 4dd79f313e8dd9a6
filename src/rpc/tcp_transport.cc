#include "rpc/tcp_transport.h"

#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "common/memory.h"
#include "rpc/tcp.h"

namespace p2prange {
namespace rpc {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Clock::time_point After(double ms) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
}

/// Time left until `deadline` as a poll() timeout, never negative, at
/// least 1ms while any is left so a nearly-expired deadline still gets
/// one chance to find bytes already in the kernel buffer.
int RemainingPollMs(Clock::time_point deadline) {
  const double left =
      std::chrono::duration<double, std::milli>(deadline - Clock::now())
          .count();
  if (left <= 0.0) return 0;
  return std::max(1, static_cast<int>(left));
}

constexpr size_t kReadChunk = 64 * 1024;

/// What one ReadAvailable pass found.
struct ReadOutcome {
  uint64_t bytes = 0;   ///< fed to the parser
  bool closed = false;  ///< the peer closed or reset the connection
};

/// Reads the non-blocking `fd` until the kernel holds nothing more
/// (EAGAIN) or the peer is gone, feeding every byte to `parser`: the
/// bytes that arrived before a close are fed all the same.
ReadOutcome ReadAvailable(int fd, FrameParser* parser) {
  char buf[kReadChunk];
  ReadOutcome out;
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got > 0) {
      out.bytes += static_cast<uint64_t>(got);
      parser->Feed(std::string_view(buf, static_cast<size_t>(got)));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    // 0 = orderly shutdown; any error but EAGAIN = reset or worse.
    out.closed = got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    return out;
  }
}

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

Result<std::unique_ptr<TcpServer>> TcpServer::Listen(
    const NetAddress& bind_addr, Handler handler, Options options) {
  ASSIGN_OR_RETURN(ListenSocket ls, rpc::Listen(bind_addr));
  return WrapUnique(
      new TcpServer(ls.fd, ls.bound, std::move(handler), options));
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
  const ReadOutcome got = ReadAvailable(c.fd, &c.parser);
  stats_.bytes_in += got.bytes;
  if (got.bytes > 0) c.last_activity = Clock::now();
  if (got.closed) c.dead = true;
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
    AppendFrame(EncodeResponse(envelope->header,
                               handler_(envelope->header.type, envelope->body)),
                &c.out);
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

Result<TcpTransport::Conn*> TcpTransport::GetConn(const NetAddress& to,
                                                  Clock::time_point deadline) {
  auto it = conns_.find(to);
  if (it != conns_.end()) {
    // Between calls a server may have closed this cached connection
    // (idle timeout, restart). The drain reads the pending EOF or reset
    // and drops the connection, so the request goes out on a fresh one
    // instead of to nobody.
    Drain(to, it->second);
    it = conns_.find(to);
    if (it != conns_.end()) return &it->second;
  }

  auto fd = StartConnect(to, options_.bind_host);
  if (fd.ok()) {
    const Status fin = FinishConnect(*fd, RemainingPollMs(deadline));
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

void TcpTransport::CloseConn(const NetAddress& to, const Status& why) {
  auto it = conns_.find(to);
  if (it == conns_.end()) return;
  if (it->second.fd >= 0) ::close(it->second.fd);
  conns_.erase(it);
  ++rpc_.connections_closed;
  rpc_.open_connections = conns_.size();
  for (auto& [id, call] : calls_) {
    if (call.to == to && !call.outcome.has_value()) call.outcome = why;
  }
}

void TcpTransport::Disconnect(const NetAddress& to) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::Disconnect");
  CloseConn(to, Status::IOError("call to " + to.ToString() + " abandoned"));
}

void TcpTransport::Drain(const NetAddress& to, Conn& c) {
  const ReadOutcome got = ReadAvailable(c.fd, &c.parser);
  rpc_.bytes_in += got.bytes;
  Status broken = got.closed ? Status::Unavailable("connection to " +
                                                   to.ToString() +
                                                   " closed mid-call")
                             : Status::OK();
  for (;;) {
    auto next = c.parser.Next();
    if (!next.ok()) {
      ++rpc_.frame_errors;
      broken = Status::IOError("corrupt frame from " + to.ToString() + ": " +
                               next.status().message());
      break;
    }
    if (!next->has_value()) break;
    auto envelope = DecodeEnvelope(**next);
    if (!envelope.ok() || !envelope->header.is_response) {
      ++rpc_.frame_errors;
      broken = Status::IOError("bad envelope from " + to.ToString());
      break;
    }
    ++rpc_.responses_received;
    auto it = calls_.find(envelope->header.call_id);
    // A reply whose call has left the table (timed out) answers nobody.
    if (it == calls_.end() || it->second.to != to ||
        it->second.outcome.has_value()) {
      continue;
    }
    InFlight& call = it->second;
    if (envelope->header.status != StatusCode::kOk) {
      // The server's handler failed; surface its error as our own.
      call.outcome = Status(envelope->header.status, std::move(envelope->body));
    } else {
      call.outcome =
          CallResult{std::move(envelope->body), MsSince(call.sent_at)};
    }
  }
  if (!broken.ok()) CloseConn(to, broken);
}

Result<std::optional<TcpTransport::CallResult>> TcpTransport::Collect(
    uint64_t call_id) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) {
    return Status::NotFound("call " + std::to_string(call_id) +
                            " is not in flight");
  }
  InFlight& call = it->second;
  // An unanswered call's connection is open: its close fails the call.
  if (!call.outcome.has_value()) Drain(call.to, conns_.at(call.to));
  if (!call.outcome.has_value() && Clock::now() < call.deadline) {
    return std::optional<CallResult>();
  }
  InFlight done = std::move(call);
  calls_.erase(it);
  if (!done.outcome.has_value()) {
    ++rpc_.timeouts;
    return Status::IOError("call " + std::to_string(call_id) + " to " +
                           done.to.ToString() + " missed its " +
                           std::to_string(done.deadline_ms) + "ms deadline");
  }
  ASSIGN_OR_RETURN(CallResult result, std::move(*done.outcome));
  return std::optional<CallResult>(std::move(result));
}

void TcpTransport::PumpFor(double ms) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::PumpFor");
  const Clock::time_point until = After(ms);
  for (int wait = RemainingPollMs(until); wait > 0;
       wait = RemainingPollMs(until)) {
    std::vector<pollfd> fds;
    std::vector<NetAddress> addrs;
    for (const auto& [addr, conn] : conns_) {
      fds.push_back(pollfd{conn.fd, POLLIN, 0});
      addrs.push_back(addr);
    }
    if (fds.empty()) {
      std::this_thread::sleep_until(until);
      return;
    }
    if (::poll(fds.data(), fds.size(), wait) <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      // A drain that finds a close drops the connection, so the next
      // round polls only live ones.
      auto it = conns_.find(addrs[i]);
      if (it != conns_.end()) Drain(addrs[i], it->second);
    }
  }
}

Status TcpTransport::SendAll(Conn& c, std::string_view bytes,
                             Clock::time_point deadline) {
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
      const int wait = RemainingPollMs(deadline);
      if (wait == 0) {
        ++rpc_.timeouts;
        return Status::IOError("send timed out");
      }
      pollfd pfd{c.fd, POLLOUT, 0};
      if (::poll(&pfd, 1, wait) < 0 && errno != EINTR) {
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
                                         std::string_view request,
                                         const CallOptions& options) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::StartCall");
  InFlight call;
  call.to = to;
  call.deadline_ms = options.deadline_ms > 0.0 ? options.deadline_ms
                                               : options_.default_deadline_ms;
  call.deadline = After(call.deadline_ms);
  ASSIGN_OR_RETURN(Conn * conn, GetConn(to, call.deadline));
  const uint64_t call_id = next_call_id_++;

  RpcHeader rh;
  rh.call_id = call_id;
  rh.type = type;
  std::string frame;
  AppendFrame(EncodeEnvelope(rh, request), &frame);

  call.sent_at = Clock::now();
  ++rpc_.requests_sent;
  const Status sent = SendAll(*conn, frame, call.deadline);
  if (!sent.ok()) {
    // A half-written frame leaves the stream unparseable for the
    // server, so the connection goes whatever the reason.
    CloseConn(to, sent);
    return sent;
  }
  calls_.emplace(call_id, std::move(call));
  return call_id;
}

Result<TcpTransport::CallResult> TcpTransport::WaitCall(uint64_t call_id) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::WaitCall");
  for (;;) {
    ASSIGN_OR_RETURN(std::optional<CallResult> done, Collect(call_id));
    if (done.has_value()) return std::move(*done);
    // Still in flight: sleep until its connection has bytes or its
    // deadline passes, then collect again.
    const InFlight& call = calls_.at(call_id);
    pollfd pfd{conns_.at(call.to).fd, POLLIN, 0};
    (void)::poll(&pfd, 1, RemainingPollMs(call.deadline));
  }
}

Result<std::optional<TcpTransport::CallResult>> TcpTransport::PollCall(
    uint64_t call_id) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::PollCall");
  return Collect(call_id);
}

Result<TcpTransport::CallResult> TcpTransport::Call(
    const NetAddress& to, MsgType type, std::string_view request,
    const CallOptions& options) {
  ExclusiveUse::Scope use(&exclusive_, "TcpTransport::Call");
  ASSIGN_OR_RETURN(uint64_t call_id, StartCall(to, type, request, options));
  return WaitCall(call_id);
}

}  // namespace rpc
}  // namespace p2prange
