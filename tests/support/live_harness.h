// The one harness for tests and benches that drive the live ring:
// loopback addresses, port reservation, tool lookup, scratch files, a
// fork/exec supervisor for p2prange_node / p2prange_chaosproxy, polled
// waits, and the in-process TcpServer thread and mini ring. No gtest,
// so benches link it too: failures come back as Status / Result.
#ifndef P2PRANGE_TESTS_SUPPORT_LIVE_HARNESS_H_
#define P2PRANGE_TESTS_SUPPORT_LIVE_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rpc/node_service.h"
#include "rpc/ring_client.h"
#include "rpc/tcp_transport.h"

namespace p2prange {
namespace harness {

/// 127.0.0.1:`port`.
NetAddress Loopback(uint16_t port);

/// A free port on `host`'s address: binds port 0, records the kernel's
/// pick, closes. The child re-binds it (SO_REUSEADDR on both sides).
Result<NetAddress> ReservePort(const NetAddress& host);

/// `<build>/tools/<name>`, found from this executable's path
/// (build/tests/... or build/bench/...); NotFound when not built.
Result<std::string> ToolBinary(const std::string& name);

/// A fresh directory `<tmp>/<prefix>XXXXXX`.
Result<std::string> MakeScratchDir(const std::string& prefix);

/// Writes `content` beside `path` and renames it into place, so a
/// reader (the chaos proxy on SIGHUP) never sees half a file.
Status WriteFileAtomic(const std::string& path, const std::string& content);

/// Sums every `"key":<integer>` in a flat JSON metrics file; 0 when
/// the file is absent.
uint64_t SumJsonCounter(const std::string& path, const std::string& key);

/// "a,b,c", as --listen / --upstream take it.
std::string JoinAddresses(const std::vector<NetAddress>& addrs);

/// Calls `done` every 50 ms until it returns true (-> true) or
/// `deadline` passes (-> false).
bool PollUntil(std::chrono::milliseconds deadline,
               const std::function<bool()>& done);

/// \brief One forked child, owned like a unique_ptr: destroying or
/// overwriting a running child SIGKILLs and reaps it, so a failing
/// assertion never leaks a daemon. A default-constructed, moved-from
/// or reaped child is not running, and signalling it is refused, never
/// a kill(-1, ...).
class ChildProcess {
 public:
  ChildProcess() = default;
  /// fork + execv(argv[0], argv). The child also dies with the thread
  /// that spawned it (PR_SET_PDEATHSIG), so an aborted bench cannot
  /// orphan it.
  static Result<ChildProcess> Spawn(std::vector<std::string> argv);

  ChildProcess(ChildProcess&& other) noexcept
      : pid_(std::exchange(other.pid_, -1)) {}
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ~ChildProcess() { Kill().IgnoreError(); }  // not running: nothing to do

  bool running() const { return pid_ > 0; }
  Status Signal(int signo) const;
  /// SIGKILL and reap.
  Status Kill();
  /// SIGTERM and wait up to `deadline`; OK only for exit status 0.
  /// Past the deadline the child is SIGKILLed, reaped, and that is an
  /// error too.
  Status Terminate(std::chrono::milliseconds deadline);
  /// Terminate without the SIGTERM: waits for the child to exit on its
  /// own.
  Status Wait(std::chrono::milliseconds deadline);

 private:
  explicit ChildProcess(pid_t pid) : pid_(pid) {}

  /// Reaps the child within `deadline` (see Terminate); `waiting_for`
  /// names what timed out.
  Status Reap(std::chrono::milliseconds deadline,
              const std::string& waiting_for);

  pid_t pid_ = -1;
};

/// Pings each of `members` until it answers, all within `deadline`.
Status AwaitPing(rpc::RingClient& client,
                 const std::vector<NetAddress>& members,
                 std::chrono::milliseconds deadline);

/// Refreshes the client's view until it holds exactly `expected` alive
/// members (the client only relays what the members gossip, so this is
/// the ring's own views converging) or `deadline` passes.
Status AwaitViewSize(rpc::RingClient& client, size_t expected,
                     std::chrono::milliseconds deadline);

/// \brief Polls a TcpServer on a background thread until stopped. The
/// caller keeps the server and must not touch it until then.
class PollThread {
 public:
  explicit PollThread(rpc::TcpServer* server);
  ~PollThread() { Stop(); }
  PollThread(const PollThread&) = delete;
  PollThread& operator=(const PollThread&) = delete;

  /// Joins the poll loop; idempotent.
  void Stop();

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// \brief A loopback TcpServer with its own PollThread.
class ServerThread {
 public:
  static Result<std::unique_ptr<ServerThread>> Start(
      rpc::TcpServer::Handler handler, rpc::TcpServer::Options options = {});

  /// Joins the poll loop; idempotent. Call before asserting on stats():
  /// the loop thread mutates the counters until it has stopped.
  void Stop() { poller_.Stop(); }

  const NetAddress& address() const { return server_->address(); }
  const rpc::RpcStats& stats() const { return server_->stats(); }

 private:
  explicit ServerThread(std::unique_ptr<rpc::TcpServer> server)
      : server_(std::move(server)), poller_(server_.get()) {}

  std::unique_ptr<rpc::TcpServer> server_;
  PollThread poller_;  // after server_, so it stops before server_ dies
};

/// \brief `n` real NodeServices behind ServerThreads: the in-process
/// miniature of a p2prange_node ring.
class MiniRing {
 public:
  static Result<MiniRing> Start(size_t n);

  const std::vector<NetAddress>& members() const { return members_; }

 private:
  MiniRing() = default;

  // Before the servers that call into them, so the servers stop first.
  std::vector<std::unique_ptr<rpc::NodeService>> services_;
  std::vector<std::unique_ptr<ServerThread>> servers_;
  std::vector<NetAddress> members_;
};

}  // namespace harness
}  // namespace p2prange

#endif  // P2PRANGE_TESTS_SUPPORT_LIVE_HARNESS_H_
