// The Transport seam: SimTransport must charge the wrapped simulator
// exactly as direct SimNetwork use always did (the bit-for-bit
// guarantee the refactor rests on), and the request/response layer —
// envelopes, handlers, deadlines, the node service, the ring view —
// must behave identically no matter which transport carries it.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>

#include "chord/ring.h"
#include "net/sim_network.h"
#include "rpc/multi_op.h"
#include "rpc/node_service.h"
#include "rpc/sim_transport.h"
#include "tests/support/live_harness.h"

namespace p2prange {
namespace rpc {
namespace {

NetAddress Addr(uint32_t host, uint16_t port) {
  NetAddress a;
  a.host = host;
  a.port = port;
  return a;
}

TEST(SimTransportTest, DeliveryMatchesRawSimNetworkBitForBit) {
  // Same latency model, same seed, same call sequence: every latency
  // draw and every counter must agree with a bare SimNetwork.
  LatencyModel model;
  model.loss_rate = 0.1;
  SimNetwork raw(model, 977);
  SimTransport transport(model, 977);

  const NetAddress a = Addr(1, 10), b = Addr(2, 20);
  raw.Register(a);
  raw.Register(b);
  transport.Register(a);
  transport.Register(b);

  for (int i = 0; i < 200; ++i) {
    const uint64_t payload = static_cast<uint64_t>(i) * 37 % 5000;
    auto expect = raw.DeliverBytes(a, b, payload);
    auto got = transport.DeliverBytes(a, b, payload);
    ASSERT_EQ(expect.ok(), got.ok()) << "call " << i;
    if (expect.ok()) {
      EXPECT_EQ(*expect, *got) << "call " << i;
    } else {
      EXPECT_EQ(expect.status().code(), got.status().code());
    }
  }
  EXPECT_EQ(raw.stats().messages, transport.stats().messages);
  EXPECT_EQ(raw.stats().bytes, transport.stats().bytes);
  EXPECT_EQ(raw.stats().total_latency_ms, transport.stats().total_latency_ms);
  EXPECT_EQ(raw.stats().lost_messages, transport.stats().lost_messages);
  EXPECT_EQ(raw.stats().failed_deliveries, transport.stats().failed_deliveries);
}

TEST(SimTransportTest, LivenessAndRegistryForward) {
  SimTransport transport;
  const NetAddress a = Addr(9, 99);
  EXPECT_FALSE(transport.IsRegistered(a));
  transport.Register(a);
  EXPECT_TRUE(transport.IsRegistered(a));
  EXPECT_TRUE(transport.IsAlive(a));
  ASSERT_TRUE(transport.SetAlive(a, false).ok());
  EXPECT_FALSE(transport.IsAlive(a));
  EXPECT_EQ(transport.num_registered(), 1u);
  auto r = transport.Deliver(Addr(1, 1), a);
  EXPECT_TRUE(r.status().IsUnavailable());
}

TEST(SimTransportTest, CallRoundTripsThroughHandler) {
  SimTransport transport;
  const NetAddress client = Addr(1, 1), server = Addr(2, 2);
  transport.Register(client);
  transport.Register(server);
  transport.RegisterHandler(server,
                            [](MsgType type, std::string_view body) {
                              EXPECT_EQ(type, MsgType::kPing);
                              return Result<std::string>(std::string(body) +
                                                         " pong");
                            });
  auto result = transport.Call(client, server, MsgType::kPing, "ping");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->body, "ping pong");
  EXPECT_GT(result->latency_ms, 0.0);
  EXPECT_EQ(transport.rpc_stats().requests_sent, 1u);
  EXPECT_EQ(transport.rpc_stats().requests_served, 1u);
  EXPECT_EQ(transport.rpc_stats().responses_received, 1u);
  // Two legs were charged to the simulated network.
  EXPECT_EQ(transport.stats().messages, 2u);
}

TEST(SimTransportTest, HandlerErrorPropagatesToCaller) {
  SimTransport transport;
  const NetAddress client = Addr(1, 1), server = Addr(2, 2);
  transport.Register(client);
  transport.Register(server);
  transport.RegisterHandler(server, [](MsgType, std::string_view) {
    return Result<std::string>(Status::NotFound("no such bucket"));
  });
  auto result = transport.Call(client, server, MsgType::kProbeBucket, "");
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(SimTransportTest, MissedDeadlineIsIOErrorAndCounted) {
  LatencyModel slow;
  slow.base_ms = 50.0;
  slow.jitter_ms = 0.0;
  SimTransport transport(slow, 3);
  const NetAddress client = Addr(1, 1), server = Addr(2, 2);
  transport.Register(client);
  transport.Register(server);
  transport.RegisterHandler(server, [](MsgType, std::string_view) {
    return Result<std::string>(std::string("late"));
  });
  Transport::CallOptions options;
  options.deadline_ms = 10.0;  // two 50ms legs cannot fit
  auto result =
      transport.Call(client, server, MsgType::kPing, "", options);
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_EQ(transport.rpc_stats().timeouts, 1u);
  options.deadline_ms = 1000.0;
  EXPECT_TRUE(
      transport.Call(client, server, MsgType::kPing, "", options).ok());
}

TEST(ChordRingTest, DefaultTransportPreservesSimBehaviour) {
  // Two rings, same seed: one built through the refactored
  // Transport-owning constructor, one compared against known counter
  // behaviour. Lookup results and message accounting must be exactly
  // reproducible.
  auto ring1 = chord::ChordRing::Make(32, 99);
  auto ring2 = chord::ChordRing::Make(32, 99);
  ASSERT_TRUE(ring1.ok());
  ASSERT_TRUE(ring2.ok());
  auto origin1 = ring1->RandomAliveAddress();
  auto origin2 = ring2->RandomAliveAddress();
  ASSERT_TRUE(origin1.ok());
  ASSERT_TRUE(origin2.ok());
  ASSERT_EQ(*origin1, *origin2);
  for (uint32_t target = 0; target < 2000000000u; target += 123456789u) {
    auto r1 = ring1->Lookup(*origin1, target);
    auto r2 = ring2->Lookup(*origin2, target);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r1->owner.addr, r2->owner.addr);
    EXPECT_EQ(r1->hops, r2->hops);
    EXPECT_EQ(r1->latency_ms, r2->latency_ms);
  }
  EXPECT_EQ(ring1->network().stats().messages,
            ring2->network().stats().messages);
  EXPECT_EQ(ring1->network().stats().total_latency_ms,
            ring2->network().stats().total_latency_ms);
}

TEST(ChordRingTest, InjectedTransportIsUsed) {
  auto transport = std::make_unique<SimTransport>();
  SimTransport* raw = transport.get();
  auto ring =
      chord::ChordRing::Make(8, 5, chord::ChordConfig{}, std::move(transport));
  ASSERT_TRUE(ring.ok());
  EXPECT_EQ(&ring->network(), raw);
  EXPECT_EQ(raw->num_registered(), 8u);
}

// --- RingView ----------------------------------------------------------

TEST(RingViewTest, OwnerIsSuccessorAndWraps) {
  std::vector<NetAddress> members = {Addr(0x7F000001, 7001),
                                     Addr(0x7F000001, 7002),
                                     Addr(0x7F000001, 7003)};
  auto view = RingView::Make(members);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 3u);
  const auto& sorted = view->members();
  // Exactly at a member id: that member owns it.
  EXPECT_EQ(view->Owner(sorted[1].first), sorted[1].second);
  // Just past a member: the next one owns it.
  EXPECT_EQ(view->Owner(sorted[1].first + 1), sorted[2].second);
  // Past the largest id: wraps to the smallest.
  EXPECT_EQ(view->Owner(sorted[2].first + 1), sorted[0].second);
}

TEST(RingViewTest, ReplicasAreDistinctSuccessors) {
  std::vector<NetAddress> members;
  for (uint16_t p = 0; p < 5; ++p) members.push_back(Addr(0x0A000001, 9000 + p));
  auto view = RingView::Make(members);
  ASSERT_TRUE(view.ok());
  const auto replicas = view->Replicas(view->members()[0].first, 3);
  ASSERT_EQ(replicas.size(), 3u);
  std::set<std::string> distinct;
  for (const auto& r : replicas) distinct.insert(r.ToString());
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(replicas[0], view->members()[0].second);
  // More replicas than members: clamped, still distinct.
  EXPECT_EQ(view->Replicas(0, 99).size(), 5u);
}

TEST(RingViewTest, RejectsEmptyAndDuplicateMembers) {
  EXPECT_FALSE(RingView::Make({}).ok());
  const NetAddress a = Addr(1, 2);
  EXPECT_FALSE(RingView::Make({a, a}).ok());
}

// --- Protocol codecs ---------------------------------------------------

TEST(ProtocolCodecTest, ProbeRequestAndResponseRoundTrip) {
  ProbeBucketRequest req;
  req.bucket = 0xCAFEBABE;
  req.query = PartitionKey{"T", "a", Range(10, 90)};
  req.criterion = MatchCriterion::kContainment;
  auto decoded = DecodeProbeBucketRequest(EncodeProbeBucketRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->bucket, req.bucket);
  EXPECT_EQ(decoded->query, req.query);
  EXPECT_EQ(decoded->criterion, req.criterion);

  MatchCandidate c;
  c.descriptor = PartitionDescriptor{req.query, Addr(7, 7)};
  c.similarity = 0.123456789;
  c.exact = true;
  auto resp = DecodeProbeBucketResponse(EncodeProbeBucketResponse(c));
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->has_value());
  EXPECT_EQ((*resp)->descriptor, c.descriptor);
  EXPECT_EQ((*resp)->similarity, c.similarity);  // bit-exact
  EXPECT_TRUE((*resp)->exact);

  auto none = DecodeProbeBucketResponse(
      EncodeProbeBucketResponse(std::nullopt));
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
}

TEST(ProtocolCodecTest, StoreDescriptorRequestRoundTrip) {
  StoreDescriptorRequest req;
  req.bucket = 42;
  req.descriptor =
      PartitionDescriptor{PartitionKey{"R", "x", Range(5, 6)}, Addr(3, 30)};
  auto decoded =
      DecodeStoreDescriptorRequest(EncodeStoreDescriptorRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->bucket, req.bucket);
  EXPECT_EQ(decoded->descriptor, req.descriptor);
  // Trailing bytes are rejected (a frame is exactly one message).
  EXPECT_FALSE(
      DecodeStoreDescriptorRequest(EncodeStoreDescriptorRequest(req) + "x")
          .ok());
}

// --- NodeService over SimTransport -------------------------------------

TEST(NodeServiceTest, ServesProtocolOverAnyTransport) {
  const NetAddress node_addr = Addr(0x7F000001, 7100);
  const NetAddress client = Addr(0x7F000001, 7999);
  auto service = NodeService::Make(node_addr, NodeServiceOptions{});
  ASSERT_TRUE(service.ok());

  SimTransport transport;
  transport.Register(node_addr);
  transport.Register(client);
  transport.RegisterHandler(node_addr,
                            [&](MsgType type, std::string_view body) {
                              return (*service)->Handle(type, body);
                            });

  // Store a descriptor, then probe its bucket.
  StoreDescriptorRequest store;
  store.bucket = 7;
  store.descriptor =
      PartitionDescriptor{PartitionKey{"T", "a", Range(100, 200)}, client};
  auto stored =
      transport.Call(client, node_addr, MsgType::kStoreDescriptor,
                     EncodeStoreDescriptorRequest(store));
  ASSERT_TRUE(stored.ok());

  ProbeBucketRequest probe;
  probe.bucket = 7;
  probe.query = PartitionKey{"T", "a", Range(110, 190)};
  auto answer = transport.Call(client, node_addr, MsgType::kProbeBucket,
                               EncodeProbeBucketRequest(probe));
  ASSERT_TRUE(answer.ok());
  auto candidate = DecodeProbeBucketResponse(answer->body);
  ASSERT_TRUE(candidate.ok());
  ASSERT_TRUE(candidate->has_value());
  EXPECT_EQ((*candidate)->descriptor, store.descriptor);

  // An empty bucket answers "no candidate", not an error.
  probe.bucket = 8;
  auto miss = transport.Call(client, node_addr, MsgType::kProbeBucket,
                             EncodeProbeBucketRequest(probe));
  ASSERT_TRUE(miss.ok());
  auto none = DecodeProbeBucketResponse(miss->body);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());

  // Garbage bodies are clean errors, and counted.
  auto bad = transport.Call(client, node_addr, MsgType::kStoreDescriptor,
                            "\xFF\xFF garbage");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ((*service)->counters().bad_requests, 1u);
  EXPECT_EQ((*service)->counters().descriptors_stored, 1u);
  EXPECT_EQ((*service)->counters().probes_served, 2u);
}

TEST(NodeServiceTest, MetricsJsonIsWellFormedSingleLine) {
  auto service = NodeService::Make(Addr(1, 1), NodeServiceOptions{});
  ASSERT_TRUE(service.ok());
  const std::string json =
      (*service)->MetricsJson(NetworkStats{}, RpcStats{});
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"node\":"), std::string::npos);
  EXPECT_NE(json.find("\"network\":"), std::string::npos);
  EXPECT_NE(json.find("\"rpc\":"), std::string::npos);
  EXPECT_NE(json.find("\"timeouts\":0"), std::string::npos);
}

TEST(RpcStatsTest, JsonCoversEveryCounter) {
  RpcStats s;
  s.requests_sent = 1;
  s.timeouts = 2;
  s.retransmits = 3;
  s.bytes_in = 4;
  s.bytes_out = 5;
  s.open_connections = 6;
  s.accepts_shed = 7;
  s.slow_readers_evicted = 8;
  s.idle_closed = 9;
  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"requests_sent\":1"), std::string::npos);
  EXPECT_NE(json.find("\"timeouts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"retransmits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_in\":4"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_out\":5"), std::string::npos);
  EXPECT_NE(json.find("\"open_connections\":6"), std::string::npos);
  EXPECT_NE(json.find("\"accepts_shed\":7"), std::string::npos);
  EXPECT_NE(json.find("\"slow_readers_evicted\":8"), std::string::npos);
  EXPECT_NE(json.find("\"idle_closed\":9"), std::string::npos);
}

TEST(NodeServiceTest, MultiOpRunsEverySlotAndIsolatesFailures) {
  auto service = NodeService::Make(Addr(1, 1), NodeServiceOptions{});
  ASSERT_TRUE(service.ok());

  StoreDescriptorRequest store;
  store.bucket = 7;
  store.descriptor =
      PartitionDescriptor{PartitionKey{"T", "a", Range(100, 200)}, Addr(9, 9)};
  ProbeBucketRequest probe;
  probe.bucket = 7;
  probe.query = PartitionKey{"T", "a", Range(110, 190)};

  // One batch: a store, a probe of the stored bucket, a garbage body.
  // The garbage fails its own slot only.
  MultiOpRequest batch;
  batch.ops.push_back(
      MultiOp{MsgType::kStoreDescriptor, EncodeStoreDescriptorRequest(store)});
  batch.ops.push_back(
      MultiOp{MsgType::kProbeBucket, EncodeProbeBucketRequest(probe)});
  batch.ops.push_back(MultiOp{MsgType::kProbeBucket, "\xFF\xFF garbage"});

  auto raw = (*service)->Handle(MsgType::kMultiOp,
                                EncodeMultiOpRequest(batch));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto resp = DecodeMultiOpResponse(*raw);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->results.size(), 3u);
  EXPECT_EQ(resp->results[0].status, StatusCode::kOk);
  EXPECT_EQ(resp->results[1].status, StatusCode::kOk);
  auto candidate = DecodeProbeBucketResponse(resp->results[1].body);
  ASSERT_TRUE(candidate.ok());
  ASSERT_TRUE(candidate->has_value());
  EXPECT_EQ((*candidate)->descriptor, store.descriptor);
  EXPECT_NE(resp->results[2].status, StatusCode::kOk);

  EXPECT_EQ((*service)->counters().multi_ops, 1u);
  EXPECT_EQ((*service)->counters().descriptors_stored, 1u);
  // The garbage slot was itself a bad request.
  EXPECT_EQ((*service)->counters().bad_requests, 1u);

  // A batch that does not decode is one more bad request, no partial
  // work.
  EXPECT_FALSE((*service)->Handle(MsgType::kMultiOp, "junk").ok());
  EXPECT_EQ((*service)->counters().bad_requests, 2u);
}

TEST(NodeServiceTest, HandleIsSafeUnderConcurrentWorkers) {
  // The executor hands one Handle() call to each worker thread; the
  // data plane must take interleaved stores, probes, fetches, and
  // metrics reads without tearing. TSan runs this suite.
  auto service = NodeService::Make(Addr(1, 1), NodeServiceOptions{});
  ASSERT_TRUE(service.ok());
  NodeService* raw = service->get();

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([raw, t, &failures] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        StoreDescriptorRequest store;
        store.bucket = static_cast<uint32_t>(i % 17);
        store.descriptor = PartitionDescriptor{
            PartitionKey{"T", "a",
                         Range(t * 1000 + i, t * 1000 + i + 10)},
            Addr(8, static_cast<uint16_t>(t + 1))};
        if (!raw->Handle(MsgType::kStoreDescriptor,
                         EncodeStoreDescriptorRequest(store))
                 .ok()) {
          ++failures;
        }
        ProbeBucketRequest probe;
        probe.bucket = static_cast<uint32_t>(i % 17);
        probe.query = PartitionKey{"T", "a", Range(50, 60)};
        if (!raw->Handle(MsgType::kProbeBucket,
                         EncodeProbeBucketRequest(probe))
                 .ok()) {
          ++failures;
        }
        if (i % 50 == 0) {
          (void)raw->MetricsJson(NetworkStats{}, RpcStats{});
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures, 0);
  EXPECT_EQ(raw->counters().descriptors_stored,
            static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(raw->counters().probes_served,
            static_cast<uint64_t>(kThreads * kOpsPerThread));
}

// Regression for the lock-discipline fix the annotation pass surfaced:
// LoadDurable mutated the store and flushed it without holding
// data_mu_. Harmless in practice only because Make() ran before the
// first worker — the kind of implicit argument the gate exists to
// retire. Recovery must still work end-to-end under the lock.
TEST(NodeServiceTest, DurableRecoveryRestoresDescriptors) {
  auto wal_dir = harness::MakeScratchDir("node_service_wal_");
  ASSERT_TRUE(wal_dir.ok()) << wal_dir.status().ToString();

  NodeServiceOptions options;
  options.wal_dir = *wal_dir;
  const NetAddress self = Addr(9, 90);
  {
    auto service = NodeService::Make(self, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE((*service)
                    ->InsertDescriptor(
                        11, PartitionDescriptor{
                                PartitionKey{"T", "a", Range(1, 5)}, self})
                    .ok());
    ASSERT_TRUE((*service)
                    ->InsertDescriptor(
                        12, PartitionDescriptor{
                                PartitionKey{"T", "b", Range(6, 9)}, self})
                    .ok());
  }

  // A fresh incarnation over the same wal_dir recovers both entries.
  auto revived = NodeService::Make(self, options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->recovery().descriptors_restored, 2u);
  const auto entries = (*revived)->SnapshotEntries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 11u);
  EXPECT_EQ(entries[1].first, 12u);
}

}  // namespace
}  // namespace rpc
}  // namespace p2prange
