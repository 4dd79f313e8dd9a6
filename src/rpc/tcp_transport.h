// The real network: length-prefixed CRC32C frames over TCP.
//
// TcpServer is the daemon side — a poll() event loop over a
// non-blocking listen socket and per-connection read/write buffers;
// each complete frame is decoded into an RPC envelope and dispatched
// to one handler function, and the response is framed back on the same
// connection under the request's call id.
//
// TcpTransport is the caller side: per-destination connections opened
// with non-blocking connect, requests multiplexed by call id (several
// calls may be in flight on one connection; responses match back in
// any order), wall-clock deadlines enforced with poll timeouts, and
// call/byte accounting in RpcStats. It shares no interface with the
// simulator's SimNetwork: the simulations charge messages to that, the
// live ring calls this.
//
// Error discipline mirrors the simulator's, so FaultPolicy semantics
// carry over unchanged: Unavailable = the peer is unreachable (connect
// refused/reset — retrying is futile until it returns), IOError = the
// exchange failed transiently (deadline missed, stream corrupted —
// retrying may succeed).
//
// Threading: neither class is thread-safe; each belongs to one thread
// at a time (the daemon's event loop, or one client). The contract is
// enforced, not just documented: every public entry point opens an
// ExclusiveUse::Scope (common/sync.h), so two threads inside the same
// object CHECK-abort naming the entry points instead of corrupting a
// buffer. Handoff between threads (start the server on a helper
// thread, join it, continue on the main thread) stays legal.
#ifndef P2PRANGE_RPC_TCP_TRANSPORT_H_
#define P2PRANGE_RPC_TCP_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/address.h"
#include "rpc/frame.h"
#include "rpc/message.h"

namespace p2prange {
namespace rpc {

/// \brief Counters of the RPC layer: how calls fared and what moved.
/// TcpServer fills the serving half, TcpTransport the calling half.
struct RpcStats {
  uint64_t requests_sent = 0;
  uint64_t responses_received = 0;
  uint64_t requests_served = 0;  ///< handler invocations (server side)
  uint64_t timeouts = 0;         ///< calls that missed their deadline
  uint64_t retransmits = 0;      ///< calls re-sent under a FaultPolicy
  uint64_t connect_failures = 0; ///< TCP connects refused or timed out
  uint64_t frame_errors = 0;     ///< CRC/length/envelope rejections
  uint64_t connections_opened = 0;
  uint64_t connections_closed = 0;
  uint64_t open_connections = 0;
  uint64_t accepts_shed = 0;           ///< refused at accept (conn limit)
  uint64_t slow_readers_evicted = 0;   ///< write backlog over the cap
  uint64_t idle_closed = 0;            ///< read-idle / first-frame deadline
  uint64_t bytes_in = 0;   ///< framed bytes received
  uint64_t bytes_out = 0;  ///< framed bytes sent

  /// Single-line JSON object (no trailing newline).
  std::string ToJson() const;
};

/// \brief Poll-loop RPC server over one listening socket.
class TcpServer {
 public:
  /// Serves one decoded request; returns the response body or an error
  /// (sent back to the caller as a non-OK envelope, never dropped).
  using Handler =
      std::function<Result<std::string>(MsgType, std::string_view body)>;

  /// First look at every decoded request, for daemons that move
  /// handler work off the poll thread: called with the connection's
  /// stable id and the request envelope. Returning true claims the
  /// request — the server sends nothing and the response must arrive
  /// later through Respond() under the same conn id. Returning false
  /// falls through to the synchronous Handler.
  using AsyncDispatch =
      std::function<bool(uint64_t conn_id, const RpcEnvelope& env)>;

  /// \brief Resource-hardening knobs (DESIGN.md §11). Defaults are
  /// production-shaped: generous enough that a healthy client never
  /// trips them, finite so a hostile or wedged one cannot pin memory
  /// or fds forever.
  struct Options {
    /// User-provided, so `Listen`'s `Options options = {}` may name it
    /// before TcpServer is complete.
    Options() {}
    /// Most unsent response bytes one connection may buffer before it
    /// is evicted as a slow reader (0 = unbounded). Must comfortably
    /// exceed the largest single response frame.
    size_t max_out_buffer = 32 * 1024 * 1024;
    /// Close a connection this long without any byte read from or
    /// written to it (0 = never). Clients detect the idle close and
    /// transparently reconnect (TcpTransport::GetConn).
    double read_idle_timeout_ms = 0.0;
    /// Close a connection that has not completed one frame this long
    /// after accept (0 = never): the slow-loris guard — a trickler
    /// feeding a byte per poll never completes a frame but always
    /// looks "active" to the idle timer.
    double first_frame_timeout_ms = 0.0;
    /// Most concurrent connections; further accepts are shed with an
    /// immediate close (0 = unlimited). The caller sees the drop as
    /// Unavailable and fails over, mirroring the executor's
    /// ResourceExhausted admission control.
    size_t max_connections = 0;
  };

  /// Binds and listens on `bind_addr` (port 0 picks an ephemeral
  /// port; see address()).
  static Result<std::unique_ptr<TcpServer>> Listen(const NetAddress& bind_addr,
                                                   Handler handler,
                                                   Options options = {});

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;
  ~TcpServer();

  /// The bound address (with the real port).
  const NetAddress& address() const { return addr_; }

  /// \brief One event-loop iteration: waits up to `timeout_ms` for
  /// readiness, then accepts, reads, dispatches, and writes whatever
  /// is ready. Returns OK on a quiet iteration too; only a broken
  /// listen socket is an error.
  Status PollOnce(int timeout_ms);

  /// Connections currently open.
  size_t num_connections() const { return conns_.size(); }

  const RpcStats& stats() const { return stats_; }

  /// Installs the async intercept (see AsyncDispatch). Poll-thread
  /// only, like every other method here.
  void set_async_dispatch(AsyncDispatch dispatch) {
    ExclusiveUse::Scope use(&exclusive_, "TcpServer::set_async_dispatch");
    async_ = std::move(dispatch);
  }

  /// \brief Queues an already-encoded response envelope on the
  /// connection that made the request. The caller vanished mid-flight
  /// when this returns false — the response is dropped, which is
  /// exactly what a dead TCP peer gets anyway.
  bool Respond(uint64_t conn_id, std::string_view envelope_payload);

  /// Adds an fd (e.g. a worker pool's completion doorbell) to the
  /// poll set: readable wakes PollOnce immediately instead of burning
  /// the remaining timeout. The fd is polled, never read — draining
  /// it is its owner's job.
  void AddWakeFd(int fd);

 private:
  struct Conn {
    int fd = -1;
    /// Stable identity for deferred responses: fds are recycled by
    /// the kernel the moment a connection closes, ids never are.
    uint64_t id = 0;
    FrameParser parser;
    std::string out;       ///< bytes queued for write
    size_t out_pos = 0;    ///< first unsent byte of `out`
    bool dead = false;
    std::chrono::steady_clock::time_point opened_at;
    /// Last read or write progress, for the read-idle deadline.
    std::chrono::steady_clock::time_point last_activity;
    bool got_frame = false;  ///< completed >= 1 frame (loris guard off)
  };

  TcpServer(int listen_fd, NetAddress addr, Handler handler, Options options)
      : listen_fd_(listen_fd),
        addr_(addr),
        handler_(std::move(handler)),
        options_(options) {}

  void AcceptReady();
  void ReadReady(Conn& c);
  void WriteReady(Conn& c);
  /// Decodes and serves every complete frame buffered on `c`.
  void DispatchFrames(Conn& c);
  void CloseConn(Conn& c);
  /// Evicts `c` when its unsent backlog exceeds max_out_buffer
  /// (after giving the kernel one chance to drain it).
  void EnforceWriteCap(Conn& c);
  /// Applies the read-idle and first-frame deadlines.
  void SweepDeadlines(std::chrono::steady_clock::time_point now);

  int listen_fd_ = -1;
  NetAddress addr_;
  Handler handler_;
  Options options_;
  AsyncDispatch async_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<int> wake_fds_;
  uint64_t next_conn_id_ = 1;
  RpcStats stats_;
  /// One-thread-at-a-time sentinel (see the file comment).
  ExclusiveUse exclusive_;
};

/// \brief The caller side: request/response calls over TCP.
///
/// Every call has one entry in an in-flight table from StartCall until
/// its outcome is collected (WaitCall, PollCall) or reported expired.
/// One drain reads the sockets and files each reply under its call id;
/// ids never repeat within a transport, so a reply can only answer the
/// call that asked. A reply whose call has left the table (timed out)
/// is dropped, and a reply already filed survives its connection
/// closing; a close fails only the calls still unanswered on it.
class TcpTransport {
 public:
  struct Options {
    /// Default per-call deadline when CallOptions leaves it at <= 0.
    double default_deadline_ms = 1000.0;
    /// Source IP (host byte order) outbound connections bind to; 0 =
    /// kernel's choice. Daemons bind their listen host so proxies and
    /// packet captures can attribute traffic to the peer that sent it.
    uint32_t bind_host = 0;
  };

  struct CallOptions {
    /// Wall-clock budget for one call, fixed when it starts: connect,
    /// send and the wait for the reply all spend it. <= 0 falls back to
    /// Options::default_deadline_ms.
    double deadline_ms = 0.0;
  };

  struct CallResult {
    std::string body;        ///< the handler's response payload
    double latency_ms = 0.0; ///< send to reply arrival
  };

  TcpTransport() : TcpTransport(Options()) {}
  explicit TcpTransport(Options options) : options_(options) {}
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// \brief One request/response exchange with `to`'s handler for
  /// `type`: StartCall, then WaitCall. A missed deadline returns IOError
  /// (and counts in rpc_stats().timeouts); an unreachable peer returns
  /// Unavailable; a handler error is returned as that error.
  Result<CallResult> Call(const NetAddress& to, MsgType type,
                          std::string_view request,
                          const CallOptions& options);

  /// Same, with the default deadline.
  Result<CallResult> Call(const NetAddress& to, MsgType type,
                          std::string_view request) {
    return Call(to, type, request, CallOptions());
  }

  void ResetStats() { rpc_ = RpcStats{}; }
  const RpcStats& rpc_stats() const { return rpc_; }

  // --- Multiplexing ----------------------------------------------------

  /// \brief Connects if needed and sends a request without waiting for
  /// the reply; the returned call id (unique within this transport)
  /// collects it, and the call stays in the table until WaitCall or
  /// PollCall does. The call's deadline starts here and bounds the
  /// connect and the send too. Several calls may be in flight per
  /// connection.
  Result<uint64_t> StartCall(const NetAddress& to, MsgType type,
                             std::string_view request,
                             const CallOptions& options);

  /// \brief Blocks until `call_id`'s reply arrives or its deadline
  /// passes (IOError, counted as a timeout), draining the connection
  /// meanwhile. Replies to other calls that arrive first are filed for
  /// their own collection. The call leaves the table either way; an id
  /// that is not in flight answers NotFound.
  Result<CallResult> WaitCall(uint64_t call_id);

  /// \brief Non-blocking check for `call_id`'s reply: drains whatever
  /// the kernel already buffered, then returns the reply, an empty
  /// optional ("not yet": the call stays in flight), or an error (the
  /// connection closed before the reply, the server answered with a
  /// non-OK status, or the deadline passed: IOError, counted as a
  /// timeout). The poll-loop-friendly half of the multiplexing API: a
  /// daemon's membership exchanges ride on it so its event loop never
  /// blocks on a peer.
  Result<std::optional<CallResult>> PollCall(uint64_t call_id);

  /// \brief Waits out `ms` of wall clock without going deaf: drains
  /// every open connection as replies arrive, so a retry backoff doubles
  /// as a drain for the caller's other in-flight calls instead of
  /// freezing them (their WaitCall then returns the filed reply
  /// instantly). With no open connections this is a plain sleep.
  void PumpFor(double ms);

  /// Drops the connection to `to`, if any; its unanswered calls fail
  /// with IOError.
  void Disconnect(const NetAddress& to);

  /// Counter hook for retry layers (e.g. RingClient's FaultPolicy
  /// loop) so retransmissions land in the same stats object.
  RpcStats& mutable_rpc_stats() { return rpc_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    int fd = -1;
    FrameParser parser;
  };

  /// One call from StartCall until its outcome is collected.
  struct InFlight {
    NetAddress to;
    Clock::time_point sent_at;
    Clock::time_point deadline;
    double deadline_ms = 0.0;
    /// Empty while unanswered: the reply, the server's error, or the
    /// failure of the connection it was sent on.
    std::optional<Result<CallResult>> outcome;
  };

  /// Existing connection to `to`, or a fresh non-blocking connect that
  /// must finish by `deadline`.
  Result<Conn*> GetConn(const NetAddress& to, Clock::time_point deadline);
  Status SendAll(Conn& c, std::string_view bytes, Clock::time_point deadline);
  /// The one reader of client sockets: reads whatever the kernel holds
  /// for `to`'s connection, without blocking, and files each reply
  /// under its call. EOF, a reset or a corrupt stream closes the
  /// connection after the replies before it are filed.
  void Drain(const NetAddress& to, Conn& c);
  /// Drains `call_id`'s connection if the call is unanswered, then
  /// takes its outcome out of the table: the reply or error, an expiry
  /// (IOError) past its deadline, or nullopt while still in flight.
  Result<std::optional<CallResult>> Collect(uint64_t call_id);
  /// Closes the connection to `to`, failing its unanswered calls with
  /// `why`.
  void CloseConn(const NetAddress& to, const Status& why);

  Options options_;
  std::unordered_map<NetAddress, Conn, NetAddressHash> conns_;
  std::unordered_map<uint64_t, InFlight> calls_;
  uint64_t next_call_id_ = 1;
  RpcStats rpc_;
  /// One-thread-at-a-time sentinel (see the file comment).
  ExclusiveUse exclusive_;
};

}  // namespace rpc
}  // namespace p2prange

#endif  // P2PRANGE_RPC_TCP_TRANSPORT_H_
