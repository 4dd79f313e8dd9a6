// The real transport over real sockets: loopback round trips, call-id
// multiplexing, deadline timeouts, refused connections, corrupt
// streams — each observable in the RpcStats counters the daemon
// exports. Servers run on a background thread; every port is an
// ephemeral kernel pick so parallel test jobs never collide.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "rpc/frame.h"
#include "rpc/message.h"
#include "rpc/ring_client.h"
#include "rpc/tcp.h"
#include "rpc/tcp_transport.h"
#include "tests/support/live_harness.h"

namespace p2prange {
namespace rpc {
namespace {

using harness::Loopback;
using harness::MiniRing;
using harness::ServerThread;

TEST(TcpTransportTest, EchoRoundTripOverLoopback) {
  auto server = ServerThread::Start(
      [](MsgType type, std::string_view body) {
        EXPECT_EQ(type, MsgType::kPing);
        return Result<std::string>(std::string(body));
      });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  TcpTransport transport;
  transport.Register((*server)->address());
  auto result = transport.Call(NetAddress{}, (*server)->address(),
                               MsgType::kPing, "echo me");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->body, "echo me");
  EXPECT_GE(result->latency_ms, 0.0);
  EXPECT_EQ(transport.rpc_stats().requests_sent, 1u);
  EXPECT_EQ(transport.rpc_stats().responses_received, 1u);
  EXPECT_EQ(transport.rpc_stats().connections_opened, 1u);
  EXPECT_GT(transport.rpc_stats().bytes_out, 0u);
  EXPECT_GT(transport.stats().bytes, 0u);
  EXPECT_TRUE(transport.IsAlive((*server)->address()));
}

TEST(TcpTransportTest, DeliverBytesActuallyCrossesTheWire) {
  std::atomic<size_t> seen{0};
  auto server = ServerThread::Start(
      [&seen](MsgType, std::string_view body) {
        seen = body.size();
        return Result<std::string>(std::string(body));
      });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  TcpTransport transport;
  auto latency =
      transport.DeliverBytes(NetAddress{}, (*server)->address(), 4096);
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(seen, 4096u);
  EXPECT_GE(*latency, 0.0);
}

TEST(TcpTransportTest, PipelinedCallsMatchResponsesByCallId) {
  auto server = ServerThread::Start(
      [](MsgType, std::string_view body) {
        return Result<std::string>("re:" + std::string(body));
      });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  TcpTransport transport;
  const NetAddress to = (*server)->address();
  auto first = transport.StartCall(to, MsgType::kPing, "one");
  auto second = transport.StartCall(to, MsgType::kPing, "two");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_NE(*first, *second);

  // Await them out of order: the second's response forces the first's
  // to be parked, then retrieved without touching the socket again.
  auto r2 = transport.WaitCall(to, *second, 2000.0);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->body, "re:two");
  auto r1 = transport.WaitCall(to, *first, 2000.0);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->body, "re:one");
  // One connection carried both calls.
  EXPECT_EQ(transport.rpc_stats().connections_opened, 1u);
}

TEST(TcpTransportTest, ServerHandlerErrorArrivesAsThatStatus) {
  auto server = ServerThread::Start([](MsgType, std::string_view) {
    return Result<std::string>(Status::NotFound("no partition here"));
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  TcpTransport transport;
  auto result = transport.Call(NetAddress{}, (*server)->address(),
                               MsgType::kFetchPartition, "");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_NE(result.status().message().find("no partition here"),
            std::string::npos);
}

TEST(TcpTransportTest, ConnectRefusedIsUnavailableAndCounted) {
  // A reserved port has no listener behind it.
  auto dead = harness::ReservePort(Loopback(0));
  ASSERT_TRUE(dead.ok()) << dead.status().ToString();

  TcpTransport transport;
  transport.Register(*dead);
  auto result = transport.Call(NetAddress{}, *dead, MsgType::kPing, "");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
  EXPECT_EQ(transport.rpc_stats().connect_failures, 1u);
  EXPECT_FALSE(transport.IsAlive(*dead));
}

TEST(TcpTransportTest, SilentServerMissesDeadlineAsIOError) {
  // A listener that accepts into its backlog but never reads or
  // replies: the connect succeeds, the call must die by deadline.
  auto silent = Listen(Loopback(0));
  ASSERT_TRUE(silent.ok());

  TcpTransport::Options options;
  options.connect_timeout_ms = 1000;
  TcpTransport transport(options);
  Transport::CallOptions call_options;
  call_options.deadline_ms = 120.0;
  auto result = transport.Call(NetAddress{}, silent->bound, MsgType::kPing,
                               "anyone there?", call_options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_EQ(transport.rpc_stats().timeouts, 1u);
  ::close(silent->fd);
}

TEST(TcpTransportTest, CorruptResponseStreamIsFrameErrorAndIOError) {
  // A hand-rolled "server" that answers any request with garbage that
  // can never pass the frame CRC.
  auto listener = Listen(Loopback(0));
  ASSERT_TRUE(listener.ok());
  const int listen_fd = listener->fd;
  std::thread evil([listen_fd] {
    pollfd pfd{listen_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) return;
    char buf[1024];
    (void)!::read(conn, buf, sizeof(buf));
    const char garbage[] = "\x10\x00\x00\x00\xde\xad\xbe\xefgarbagegarbage!!";
    (void)!::write(conn, garbage, sizeof(garbage) - 1);
    ::shutdown(conn, SHUT_WR);
    ::usleep(200 * 1000);
    ::close(conn);
  });

  TcpTransport transport;
  Transport::CallOptions call_options;
  call_options.deadline_ms = 2000.0;
  auto result = transport.Call(NetAddress{}, listener->bound, MsgType::kPing,
                               "hello", call_options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_EQ(transport.rpc_stats().frame_errors, 1u);
  evil.join();
  ::close(listen_fd);
}

// --- Transport resource hardening (DESIGN.md §11): hostile byte
// --- streams against the deadline, write-cap, and accept guards.
// ----------------------------------------------------------------------

/// Blocking loopback connect for hand-rolled hostile clients.
int RawConnect(const NetAddress& to) {
  auto started = StartConnect(to);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  if (!started.ok()) return -1;
  const Status fin = FinishConnect(*started, 2000);
  EXPECT_TRUE(fin.ok()) << fin.ToString();
  if (!fin.ok()) {
    ::close(*started);
    return -1;
  }
  return *started;
}

/// Waits until recv() reports EOF/reset on `fd` (the server hung up),
/// or fails the test after ~5s.
void AwaitPeerClose(int fd) {
  for (int i = 0; i < 500; ++i) {
    char c;
    const ssize_t n = ::recv(fd, &c, 1, MSG_DONTWAIT);
    if (n == 0) return;                       // orderly close
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return;  // reset
    ::usleep(10 * 1000);
  }
  ADD_FAILURE() << "server never closed the hostile connection";
}

TEST(TcpHardeningTest, FirstFrameDeadlineKillsSlowLoris) {
  TcpServer::Options options;
  options.first_frame_timeout_ms = 80.0;
  auto server = ServerThread::Start(
      [](MsgType, std::string_view body) {
        return Result<std::string>(std::string(body));
      },
      options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // The loris: connect, then trickle one header byte and go quiet —
  // without the guard this parks a connection slot forever.
  const int loris = RawConnect((*server)->address());
  ASSERT_GE(loris, 0);
  const char byte = '\x01';
  ASSERT_EQ(::send(loris, &byte, 1, MSG_NOSIGNAL), 1);
  AwaitPeerClose(loris);
  ::close(loris);

  // An honest client is entirely unaffected before, during, and after.
  TcpTransport transport;
  auto result = transport.Call(NetAddress{}, (*server)->address(),
                               MsgType::kPing, "still here");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->body, "still here");
  (*server)->Stop();
  EXPECT_GE((*server)->stats().idle_closed, 1u);
}

TEST(TcpHardeningTest, ReadIdleDeadlineReapsSilentConnections) {
  TcpServer::Options options;
  options.read_idle_timeout_ms = 80.0;
  auto server = ServerThread::Start(
      [](MsgType, std::string_view body) {
        return Result<std::string>(std::string(body));
      },
      options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  TcpTransport transport;
  auto first = transport.Call(NetAddress{}, (*server)->address(),
                              MsgType::kPing, "one");
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Idle past the deadline: the server reaps the connection. The
  // transport's next call must notice the stale cached socket and
  // transparently reconnect rather than fail.
  ::usleep(300 * 1000);
  auto second = transport.Call(NetAddress{}, (*server)->address(),
                               MsgType::kPing, "two");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->body, "two");
  EXPECT_EQ(transport.rpc_stats().connections_opened, 2u);
  (*server)->Stop();
  EXPECT_GE((*server)->stats().idle_closed, 1u);
}

TEST(TcpHardeningTest, MidFrameResetLeavesServerServing) {
  auto server = ServerThread::Start(
      [](MsgType, std::string_view body) {
        return Result<std::string>(std::string(body));
      });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Send half a frame header, then RST the connection mid-parse.
  const int attacker = RawConnect((*server)->address());
  ASSERT_GE(attacker, 0);
  const char half_header[] = "\x40\x00\x00";  // 3 of 8 header bytes
  ASSERT_EQ(::send(attacker, half_header, 3, MSG_NOSIGNAL), 3);
  ::usleep(20 * 1000);
  const linger lg{1, 0};
  ::setsockopt(attacker, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(attacker);  // goes out as RST

  // The server shrugs: the next honest request round-trips.
  TcpTransport transport;
  auto result = transport.Call(NetAddress{}, (*server)->address(),
                               MsgType::kPing, "after the reset");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->body, "after the reset");
}

TEST(TcpHardeningTest, TrickledFrameStillParsesWhenUnderDeadline) {
  // One byte per write with small sleeps — a slow but honest peer.
  // Frame parsing must be purely incremental; no guard configured, so
  // the request completes.
  auto server = ServerThread::Start(
      [](MsgType, std::string_view body) {
        return Result<std::string>("re:" + std::string(body));
      });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RpcHeader header;
  header.call_id = 7;
  header.type = MsgType::kPing;
  std::string frame;
  AppendFrame(EncodeEnvelope(header, "drip"), &frame);

  const int fd = RawConnect((*server)->address());
  ASSERT_GE(fd, 0);
  for (char c : frame) {
    ASSERT_EQ(::send(fd, &c, 1, MSG_NOSIGNAL), 1);
    ::usleep(2 * 1000);
  }
  // Collect the framed response.
  FrameParser parser;
  std::string payload;
  for (int i = 0; i < 500 && payload.empty(); ++i) {
    char buf[512];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      auto next = parser.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (next->has_value()) payload = **next;
    } else {
      ::usleep(5 * 1000);
    }
  }
  ::close(fd);
  ASSERT_FALSE(payload.empty()) << "no response to the trickled frame";
  auto envelope = DecodeEnvelope(payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->body, "re:drip");
}

TEST(TcpHardeningTest, WriteBufferCapEvictsSlowReader) {
  TcpServer::Options options;
  options.max_out_buffer = 256 * 1024;
  const std::string big(128 * 1024, 'x');
  auto server = ServerThread::Start(
      [&big](MsgType, std::string_view) { return Result<std::string>(big); },
      options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // The slow reader: fire requests for large responses, never read.
  // The kernel buffers fill, the server-side backlog crosses the cap,
  // and the server evicts the connection instead of buffering forever.
  const int fd = RawConnect((*server)->address());
  ASSERT_GE(fd, 0);
  std::string frames;
  for (uint64_t id = 1; id <= 64; ++id) {
    RpcHeader header;
    header.call_id = id;
    header.type = MsgType::kPing;
    AppendFrame(EncodeEnvelope(header, "gimme"), &frames);
  }
  (void)!::send(fd, frames.data(), frames.size(), MSG_NOSIGNAL);
  // Eviction closes the offender's socket, so wait on that — not on the
  // stats counter, which only the poll thread may touch while it runs.
  // POLLRDHUP sees the FIN/RST without reading the buffered responses;
  // draining them would make this client an honest reader.
  pollfd hung_up{fd, POLLRDHUP, 0};
  EXPECT_EQ(::poll(&hung_up, 1, 5000), 1)
      << "server never evicted the slow reader";
  ::close(fd);

  // Eviction is per-offender: a fresh well-behaved client still works.
  TcpTransport transport;
  auto result = transport.Call(NetAddress{}, (*server)->address(),
                               MsgType::kPing, "read my reply");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  (*server)->Stop();
  EXPECT_GE((*server)->stats().slow_readers_evicted, 1u);
}

TEST(TcpHardeningTest, MaxConnectionsShedsAtAcceptAndRecovers) {
  TcpServer::Options options;
  options.max_connections = 2;
  auto server = ServerThread::Start(
      [](MsgType, std::string_view body) {
        return Result<std::string>(std::string(body));
      },
      options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const int a = RawConnect((*server)->address());
  const int b = RawConnect((*server)->address());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  // Give the poll loop a beat to accept both into its table.
  ::usleep(100 * 1000);

  // Over the limit: the third connect is accepted by the kernel and
  // immediately shed by the server.
  const int c = RawConnect((*server)->address());
  ASSERT_GE(c, 0);
  AwaitPeerClose(c);
  ::close(c);

  // Freeing a slot restores service.
  ::close(a);
  ::usleep(100 * 1000);
  TcpTransport transport;
  auto result = transport.Call(NetAddress{}, (*server)->address(),
                               MsgType::kPing, "slot freed");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ::close(b);
  (*server)->Stop();
  EXPECT_GE((*server)->stats().accepts_shed, 1u);
}

// --- An in-process live ring: NodeServices behind TcpServers, driven
// --- by a RingClient. The miniature of tools/p2prange_node.
// ----------------------------------------------------------------------

TEST(RingClientTest, PublishThenLookupFindsTheDescriptor) {
  auto ring = MiniRing::Start(3);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  RingClientOptions options;
  options.lsh.k = 10;
  options.lsh.l = 5;
  auto client = RingClient::Make(ring->members(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const PartitionKey published{"T", "a", Range(100, 200)};
  const NetAddress holder = ring->members()[0];
  ASSERT_TRUE((*client)->Publish(published, holder).ok());

  // The identical range collides on every bucket: a guaranteed hit.
  auto outcome = (*client)->Lookup(published);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->ranked.empty());
  EXPECT_EQ(outcome->ranked.front().descriptor.key, published);
  EXPECT_EQ(outcome->ranked.front().descriptor.holder, holder);
  EXPECT_TRUE(outcome->ranked.front().exact);
  EXPECT_EQ(outcome->probes_failed, 0);

  // A disjoint range finds nothing (its buckets are elsewhere, and
  // nothing similar was published).
  auto miss = (*client)->Lookup(PartitionKey{"T", "a", Range(5000, 6000)});
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->ranked.empty());
}

TEST(RingClientTest, PartitionBytesRoundTripThroughHolder) {
  auto ring = MiniRing::Start(2);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  RingClientOptions options;
  auto client = RingClient::Make(ring->members(), options);
  ASSERT_TRUE(client.ok());

  Schema schema({Field{"a", ValueType::kInt64, AttributeDomain{0, 1000}}});
  Relation tuples("T", schema);
  ASSERT_TRUE(tuples.Append({Value(int64_t{150})}).ok());
  const PartitionKey key{"T", "a", Range(100, 200)};
  ASSERT_TRUE(
      (*client)->StorePartition(key, tuples, ring->members()[1]).ok());
  auto fetched = (*client)->FetchPartition(key, ring->members()[1]);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->num_rows(), 1u);
  // Fetching from the wrong holder is a clean NotFound.
  EXPECT_TRUE(
      (*client)->FetchPartition(key, ring->members()[0]).status().IsNotFound());
}

}  // namespace
}  // namespace rpc
}  // namespace p2prange
