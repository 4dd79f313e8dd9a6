// google-benchmark microbenchmarks for the performance-critical
// primitives: permutation evaluation, range hashing, LSH identifier
// computation, SHA-1, Chord lookups (heavy ring and the engine's
// compact model), scenario-engine set-up and whole cells, and bucket
// matching.
#include <benchmark/benchmark.h>

#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "chord/ring.h"
#include "common/random.h"
#include "hash/bit_permutation.h"
#include "hash/lsh.h"
#include "hash/minwise.h"
#include "hash/sha1.h"
#include "rpc/frame.h"
#include "rpc/message.h"
#include "rpc/tcp_transport.h"
#include "sim/engine/compact_overlay.h"
#include "sim/engine/scenario_engine.h"
#include "store/bucket_store.h"
#include "store/durable_store.h"
#include "tests/support/live_harness.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

void BM_BitPermutationApply(benchmark::State& state) {
  Rng rng(1);
  const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
  const BitPermutation perm(keys, keys.num_levels());
  uint32_t x = 12345;
  for (auto _ : state) {
    x = perm.Apply(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_BitPermutationApply);

void BM_BitPermutationApplyNaive(benchmark::State& state) {
  Rng rng(1);
  const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
  const BitPermutation perm(keys, static_cast<int>(state.range(0)));
  uint32_t x = 12345;
  for (auto _ : state) {
    x = perm.ApplyNaive(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_BitPermutationApplyNaive)->Arg(1)->Arg(5);

void BM_BitPermutationCompile(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
    BitPermutation perm(keys, keys.num_levels());
    benchmark::DoNotOptimize(perm);
  }
}
BENCHMARK(BM_BitPermutationCompile);

void BM_LinearPermute(benchmark::State& state) {
  Rng rng(2);
  const LinearHashFunction fn(rng);
  uint32_t x = 999;
  for (auto _ : state) {
    x = fn.Permute(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_LinearPermute);

// The production path: sublinear range-min kernels, flat in width.
template <HashFamilyType kFamily>
void BM_HashRange(benchmark::State& state) {
  Rng rng(3);
  auto fn = MakeHashFunction(kFamily, rng);
  const Range q(1000, 1000 + static_cast<uint32_t>(state.range(0)) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn->HashRange(q));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashRange<HashFamilyType::kMinwise>)
    ->Arg(334)->Arg(1000)->Arg(1500)->Arg(100000);
BENCHMARK(BM_HashRange<HashFamilyType::kApproxMinwise>)
    ->Arg(334)->Arg(1000)->Arg(1500)->Arg(100000);
BENCHMARK(BM_HashRange<HashFamilyType::kLinear>)
    ->Arg(334)->Arg(1000)->Arg(1500)->Arg(100000);

// The kernel-vs-naive series: the O(|Q|) reference scan over the same
// widths. Compare against BM_HashRange at equal Arg for the speedup
// (>= 10x at width 1000, >= 100x at width 100000 is the regression
// bar; see EXPERIMENTS.md).
template <HashFamilyType kFamily>
void BM_HashRangeNaive(benchmark::State& state) {
  Rng rng(3);
  auto fn = MakeHashFunction(kFamily, rng);
  const Range q(1000, 1000 + static_cast<uint32_t>(state.range(0)) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn->HashRangeNaive(q));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashRangeNaive<HashFamilyType::kMinwise>)->Arg(1000)->Arg(100000);
BENCHMARK(BM_HashRangeNaive<HashFamilyType::kApproxMinwise>)
    ->Arg(1000)->Arg(100000);
BENCHMARK(BM_HashRangeNaive<HashFamilyType::kLinear>)->Arg(1000)->Arg(100000);

void BM_LshIdentifiers(benchmark::State& state) {
  auto scheme = LshScheme::Make(LshParams::Paper(HashFamilyType::kApproxMinwise, 7));
  CHECK(scheme.ok());
  const Range q(100, 433);  // the workload's mean-sized range
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->Identifiers(q));
  }
}
BENCHMARK(BM_LshIdentifiers);

void BM_Sha1(benchmark::State& state) {
  const std::string input(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(21)->Arg(1024)->Arg(65536);

void BM_ChordLookup(benchmark::State& state) {
  auto ring = chord::ChordRing::Make(static_cast<size_t>(state.range(0)), 11);
  CHECK(ring.ok());
  Rng rng(13);
  auto origin = ring->RandomAliveAddress();
  CHECK(origin.ok());
  for (auto _ : state) {
    auto result = ring->RouteToOwner(*origin, rng.Next32());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ChordLookup)->Arg(100)->Arg(1000)->Arg(5000);

void BM_CompactChordRoute(benchmark::State& state) {
  // One engine probe's routing step: the compact Chord model the
  // scenario engine routes over, random alive origin, random id.
  auto net = sim::MakeCompactOverlay(overlay::Kind::kChord,
                                     static_cast<size_t>(state.range(0)), 11,
                                     /*can_dims=*/2);
  CHECK(net.ok()) << net.status();
  Rng rng(13);
  int hops = 0;
  for (auto _ : state) {
    const uint32_t origin = (*net)->RandomAliveSlot(rng);
    benchmark::DoNotOptimize((*net)->Route(origin, rng.Next32(), &hops));
  }
  state.counters["hops_per_route"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CompactChordRoute)->Arg(100000)->Arg(1000000);

void BM_CompactChordRouteAll(benchmark::State& state) {
  // BM_CompactChordRoute's pairs, 80 to a RouteAll call (a 16-query
  // engine window at l = 5), so the descents' misses overlap. Items are
  // routes: items_per_second compares with 1 / BM_CompactChordRoute.
  constexpr size_t kPairs = 80;
  auto net = sim::MakeCompactOverlay(overlay::Kind::kChord,
                                     static_cast<size_t>(state.range(0)), 11,
                                     /*can_dims=*/2);
  CHECK(net.ok()) << net.status();
  Rng rng(13);
  std::vector<uint32_t> origins(kPairs);
  std::vector<uint32_t> ids(kPairs);
  std::vector<uint32_t> owners(kPairs);
  std::vector<int> hops(kPairs);
  int64_t total_hops = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < kPairs; ++i) {
      origins[i] = (*net)->RandomAliveSlot(rng);
      ids[i] = rng.Next32();
    }
    (*net)->RouteAll(origins, ids, owners, hops);
    benchmark::DoNotOptimize(owners.data());
    benchmark::ClobberMemory();
    for (const int h : hops) total_hops += h;
  }
  const auto routes = static_cast<int64_t>(state.iterations() * kPairs);
  state.SetItemsProcessed(routes);
  state.counters["hops_per_route"] =
      routes == 0 ? 0.0
                  : static_cast<double>(total_hops) /
                        static_cast<double>(routes);
}
BENCHMARK(BM_CompactChordRouteAll)->Arg(100000)->Arg(1000000);

void BM_ScenarioEngineMake(benchmark::State& state) {
  // Engine set-up alone, Make() only: the compact Chord overlay (id
  // draw, sort, rank directory, alive index), the LSH scheme and the
  // query stream of perfbench's engine_uniform cell, at range(0) peers.
  sim::ScenarioConfig config;
  config.kind = overlay::Kind::kChord;
  config.num_peers = static_cast<size_t>(state.range(0));
  config.domain = 1000000;
  config.replication = 3;
  config.num_queries = 20000;
  std::optional<sim::ScenarioEngine> engine;
  for (auto _ : state) {
    state.PauseTiming();
    engine.reset();
    state.ResumeTiming();
    auto made = sim::ScenarioEngine::Make(config);
    benchmark::DoNotOptimize(made);
    CHECK(made.ok()) << made.status();
    engine.emplace(std::move(*made));
  }
}
BENCHMARK(BM_ScenarioEngineMake)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioEngineRun(benchmark::State& state) {
  // One whole engine cell, Run() only: 10^5 Chord peers, replication 3.
  // zipf_width 0 is perfbench's engine_uniform cell (2x10^4 uniform
  // queries); 333000 is the scan-heavy wide-zipf cell under churn
  // (3x10^3 queries), whose buckets grow to tens of thousands of
  // copies.
  sim::ScenarioConfig config;
  config.kind = overlay::Kind::kChord;
  config.num_peers = 100000;
  config.domain = 1000000;
  config.replication = 3;
  if (state.range(0) == 0) {
    config.num_queries = 20000;
  } else {
    config.shape = sim::WorkloadShape::kZipf;
    config.zipf_mean_width = static_cast<double>(state.range(0));
    config.churn = sim::ChurnMode::kChurn;
    config.num_queries = 3000;
  }
  std::optional<sim::ScenarioEngine> engine;
  uint64_t queries = 0;
  uint64_t bytes_per_peer = 0;
  for (auto _ : state) {
    state.PauseTiming();
    engine.reset();
    auto made = sim::ScenarioEngine::Make(config);
    CHECK(made.ok()) << made.status();
    engine.emplace(std::move(*made));
    state.ResumeTiming();
    auto report = engine->Run();
    benchmark::DoNotOptimize(report);
    CHECK(report.ok()) << report.status();
    queries += report->queries;
    bytes_per_peer = report->bytes_per_peer;
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
  // The engine's resident bytes per peer at the end of the run; every
  // iteration runs the same seeded cell, so each reads the same.
  state.counters["bytes_per_peer"] = static_cast<double>(bytes_per_peer);
  // Where a query's time went: each stage's ns per query, from one more
  // run of the same cell after the timed loop, so the row's time
  // carries none of the split's clock reads.
  engine.reset();
  auto made = sim::ScenarioEngine::Make(config);
  CHECK(made.ok()) << made.status();
  sim::StageSplit split;
  auto report = made->Run(&split);
  CHECK(report.ok()) << report.status();
  const auto per_query = [&](uint64_t ns) {
    return static_cast<double>(ns) / static_cast<double>(report->queries);
  };
  state.counters["draw_ns"] = per_query(split.draw_ns);
  state.counters["route_ns"] = per_query(split.route_ns);
  state.counters["prefetch_ns"] = per_query(split.prefetch_ns);
  state.counters["probe_ns"] = per_query(split.probe_ns);
  state.counters["publish_ns"] = per_query(split.publish_ns);
}
BENCHMARK(BM_ScenarioEngineRun)
    ->ArgName("zipf_width")
    ->Arg(0)
    ->Arg(333000)
    ->Unit(benchmark::kMillisecond);

void BM_BucketBestMatch(benchmark::State& state) {
  BucketStore store;
  Rng rng(17);
  const int entries = static_cast<int>(state.range(0));
  for (int i = 0; i < entries; ++i) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(900));
    store.Insert(42, PartitionDescriptor{
                         PartitionKey{"Numbers", "key",
                                      Range(lo, lo + static_cast<uint32_t>(
                                                        rng.NextBounded(100)))},
                         NetAddress{1, 1}});
  }
  const PartitionKey query{"Numbers", "key", Range(300, 500)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.BestMatch(42, query, MatchCriterion::kJaccard));
  }
}
BENCHMARK(BM_BucketBestMatch)->Arg(10)->Arg(100)->Arg(1000);

void BM_PeerIndexBestMatch(benchmark::State& state) {
  // The §5.3 peer-wide matcher: one pass over every entry the store
  // holds, so the cost grows linearly with store size.
  BucketStore store;
  Rng rng(19);
  const int entries = static_cast<int>(state.range(0));
  for (int i = 0; i < entries; ++i) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(100000));
    store.Insert(static_cast<chord::ChordId>(rng.NextBounded(1000)),
                 PartitionDescriptor{
                     PartitionKey{"Numbers", "key",
                                  Range(lo, lo + static_cast<uint32_t>(
                                                     rng.NextBounded(200)))},
                     NetAddress{1, 1}});
  }
  const PartitionKey query{"Numbers", "key", Range(50000, 50400)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.BestMatchAnywhere(query, MatchCriterion::kContainment));
  }
}
BENCHMARK(BM_PeerIndexBestMatch)->Arg(100)->Arg(10000)->Arg(100000);

void BM_DurableInsert(benchmark::State& state) {
  // Refresh inserts into a durable store held at N descriptors: each
  // logs a WAL record, and the checkpoints they trigger re-serialize the
  // whole store. The store is filled through a snapshot and Recover(),
  // so set-up costs O(N) whatever the checkpoint rule.
  const auto n = static_cast<uint32_t>(state.range(0));
  store::SnapshotData snap;
  for (uint32_t i = 0; i < n; ++i) {
    snap.entries.emplace_back(
        i, PartitionDescriptor{PartitionKey{"Numbers", "key", Range(i, i + 100)},
                               NetAddress{1, 1}});
  }
  store::DurableDescriptorStore durable(/*store_capacity=*/0);
  durable.snapshots().Write(snap);
  durable.Recover();
  uint32_t next = 0;
  for (auto _ : state) {
    const auto& [bucket, descriptor] = snap.entries[next];
    benchmark::DoNotOptimize(durable.Insert(bucket, descriptor));
    next = next + 1 == n ? 0 : next + 1;
  }
}
BENCHMARK(BM_DurableInsert)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LshIdentifiersInto(benchmark::State& state) {
  // The batched, allocation-free probe-path form, over a range of the
  // argument's width centred in the engine's [0, 10^6] domain. The lane
  // kernel's cost grows with d, the top bit where lo and hi differ:
  // 334 is the paper's [0, 1000] workload (d = 8), 333334 the mean
  // width of engine_uniform's uniform endpoints (d = 19).
  auto scheme = LshScheme::Make(LshParams::Paper(HashFamilyType::kApproxMinwise, 7));
  CHECK(scheme.ok());
  const auto width = static_cast<uint32_t>(state.range(0));
  const uint32_t lo = 500000 - width / 2;
  const Range q(lo, lo + width - 1);
  std::vector<uint32_t> ids;
  for (auto _ : state) {
    scheme->IdentifiersInto(q, &ids);
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK(BM_LshIdentifiersInto)->Arg(334)->Arg(333334);

void BM_LshIdentifiersIntoVarying(benchmark::State& state) {
  // The engine's case, which one repeated range hides from the branch
  // predictor: each call hashes the next of 4,096 uniform ranges in
  // [0, 10^6], in a scheme of l = 5 and the argument's k·l functions.
  // The lane kernel runs whole seven-block chunks (112 lanes), so 20
  // and 200 functions pay for padding and the paper's 100 do not.
  LshParams params = LshParams::Paper(HashFamilyType::kApproxMinwise, 7);
  params.k = static_cast<int>(state.range(0)) / params.l;
  auto scheme = LshScheme::Make(params);
  CHECK(scheme.ok());
  UniformRangeGenerator gen(0, 1000000, 11);
  std::vector<Range> ranges;
  for (int i = 0; i < 4096; ++i) ranges.push_back(gen.Next());
  std::vector<uint32_t> ids;
  size_t next = 0;
  for (auto _ : state) {
    scheme->IdentifiersInto(ranges[next], &ids);
    benchmark::DoNotOptimize(ids.data());
    next = (next + 1) % ranges.size();
  }
}
BENCHMARK(BM_LshIdentifiersIntoVarying)->Arg(20)->Arg(100)->Arg(200);

// --- RPC layer: frame codec, envelope codec, live TCP round trip ------

void BM_FrameEncodeParse(benchmark::State& state) {
  const std::string payload(static_cast<size_t>(state.range(0)), 'x');
  std::string buf;
  rpc::FrameParser parser;
  for (auto _ : state) {
    buf.clear();
    rpc::AppendFrame(payload, &buf);
    parser.Feed(buf);
    auto got = parser.Next();
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameEncodeParse)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EnvelopeEncodeDecode(benchmark::State& state) {
  rpc::RpcHeader header;
  header.type = rpc::MsgType::kProbeBucket;
  const std::string body(128, 'b');
  for (auto _ : state) {
    ++header.call_id;
    auto got = rpc::DecodeEnvelope(rpc::EncodeEnvelope(header, body));
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_EnvelopeEncodeDecode);

void BM_TcpLoopbackCall(benchmark::State& state) {
  // Full request/response over a real socket pair: the per-probe cost
  // a live ring pays that the simulator only models.
  auto server =
      harness::ServerThread::Start([](rpc::MsgType, std::string_view body) {
        return Result<std::string>(std::string(body));
      });
  CHECK(server.ok()) << server.status();
  rpc::TcpTransport transport;
  const std::string body(static_cast<size_t>(state.range(0)), 'q');
  for (auto _ : state) {
    auto result =
        transport.Call((*server)->address(), rpc::MsgType::kPing, body);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TcpLoopbackCall)->Arg(64)->Arg(4096);

}  // namespace
}  // namespace p2prange

// BENCHMARK_MAIN plus `--smoke` (tools/check.sh): rewrites the flag
// into a tiny --benchmark_min_time so every benchmark still executes —
// catching crashes and CHECK failures — without a full timing run.
int main(int argc, char** argv) {
  std::vector<char*> args;
  static char min_time[] = "--benchmark_min_time=0.001";
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (smoke) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
