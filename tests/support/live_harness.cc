#include "tests/support/live_harness.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/memory.h"
#include "rpc/tcp.h"

namespace p2prange {
namespace harness {

namespace fs = std::filesystem;

namespace {

Status ErrnoError(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

NetAddress Loopback(uint16_t port) {
  NetAddress a;
  a.host = 0x7F000001;  // 127.0.0.1
  a.port = port;
  return a;
}

Result<NetAddress> ReservePort(const NetAddress& host) {
  NetAddress any = host;
  any.port = 0;
  ASSIGN_OR_RETURN(const rpc::ListenSocket sock, rpc::Listen(any));
  ::close(sock.fd);
  return sock.bound;
}

Result<std::string> ToolBinary(const std::string& name) {
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  const fs::path tool = self.parent_path().parent_path() / "tools" / name;
  if (ec || !fs::exists(tool)) {
    return Status::NotFound(name + " not built at " + tool.string());
  }
  return tool.string();
}

Result<std::string> MakeScratchDir(const std::string& prefix) {
  std::string dir = (fs::temp_directory_path() / (prefix + "XXXXXX")).string();
  if (::mkdtemp(dir.data()) == nullptr) return ErrnoError("mkdtemp " + dir);
  return dir;
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << content;
  out.close();
  if (!out) return Status::IOError("write " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoError("rename " + tmp);
  }
  return Status::OK();
}

uint64_t SumJsonCounter(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  const std::string needle = "\"" + key + "\":";
  uint64_t sum = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    sum += std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
  }
  return sum;
}

std::string JoinAddresses(const std::vector<NetAddress>& addrs) {
  std::string out;
  for (const NetAddress& a : addrs) {
    if (!out.empty()) out += ",";
    out += a.ToString();
  }
  return out;
}

bool PollUntil(std::chrono::milliseconds deadline,
               const std::function<bool()>& done) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return true;
}

Result<ChildProcess> ChildProcess::Spawn(std::vector<std::string> argv) {
  if (argv.empty()) return Status::InvalidArgument("empty argv");
  // Built before the fork: until it execs, the child may only make
  // async-signal-safe calls.
  std::vector<char*> raw;
  for (std::string& s : argv) raw.push_back(s.data());
  raw.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return ErrnoError("fork " + argv[0]);
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::execv(raw[0], raw.data());
    _exit(127);  // exec failed
  }
  return ChildProcess(pid);
}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    Kill().IgnoreError();  // not running: nothing to do
    pid_ = std::exchange(other.pid_, -1);
  }
  return *this;
}

Status ChildProcess::Signal(int signo) const {
  if (!running()) return Status::InvalidArgument("child is not running");
  if (::kill(pid_, signo) != 0) return ErrnoError("kill");
  return Status::OK();
}

Status ChildProcess::Kill() {
  RETURN_NOT_OK(Signal(SIGKILL));
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return Status::OK();
}

Status ChildProcess::Terminate(std::chrono::milliseconds deadline) {
  RETURN_NOT_OK(Signal(SIGTERM));
  int status = 0;
  if (!PollUntil(deadline,
                 [&] { return ::waitpid(pid_, &status, WNOHANG) == pid_; })) {
    RETURN_NOT_OK(Kill());
    return Status::Unavailable("child ignored SIGTERM for " +
                               std::to_string(deadline.count()) + " ms");
  }
  pid_ = -1;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
  return Status::Internal(
      WIFSIGNALED(status)
          ? "child killed by signal " + std::to_string(WTERMSIG(status))
          : "child exited with status " + std::to_string(WEXITSTATUS(status)));
}

Status AwaitPing(rpc::RingClient& client,
                 const std::vector<NetAddress>& members,
                 std::chrono::milliseconds deadline) {
  size_t up = 0;  // members[0, up) have answered
  if (PollUntil(deadline, [&] {
        while (up < members.size() && client.Ping(members[up]).ok()) ++up;
        return up == members.size();
      })) {
    return Status::OK();
  }
  return Status::Unavailable("no pong from " + members[up].ToString() +
                             " in " + std::to_string(deadline.count()) + " ms");
}

Status AwaitViewSize(rpc::RingClient& client, size_t expected,
                     std::chrono::milliseconds deadline) {
  Status last;
  if (PollUntil(deadline, [&] {
        last = client.RefreshView();
        return last.ok() && client.view().size() == expected;
      })) {
    return Status::OK();
  }
  return Status::Unavailable(
      "view stuck at " + std::to_string(client.view().size()) +
      " members, wanted " + std::to_string(expected) +
      " (last refresh: " + last.ToString() + ")");
}

Result<std::unique_ptr<ServerThread>> ServerThread::Start(
    rpc::TcpServer::Handler handler, rpc::TcpServer::Options options) {
  ASSIGN_OR_RETURN(rpc::TcpServer server,
                   rpc::TcpServer::Listen(Loopback(0), std::move(handler),
                                          options));
  return WrapUnique(new ServerThread(std::move(server)));
}

PollThread::PollThread(rpc::TcpServer* server)
    : thread_([this, server] {
        while (!stop_) {
          if (!server->PollOnce(/*timeout_ms=*/20).ok()) break;
        }
      }) {}

void PollThread::Stop() {
  if (!thread_.joinable()) return;
  stop_ = true;
  thread_.join();
}

Result<MiniRing> MiniRing::Start(size_t n) {
  MiniRing ring;
  for (size_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(
        std::unique_ptr<rpc::NodeService> service,
        rpc::NodeService::Make(Loopback(0), rpc::NodeServiceOptions{}));
    rpc::NodeService* raw = service.get();
    ring.services_.push_back(std::move(service));
    ASSIGN_OR_RETURN(std::unique_ptr<ServerThread> server,
                     ServerThread::Start([raw](rpc::MsgType type,
                                               std::string_view body) {
                       return raw->Handle(type, body);
                     }));
    ring.members_.push_back(server->address());
    ring.servers_.push_back(std::move(server));
  }
  return ring;
}

}  // namespace harness
}  // namespace p2prange
