// google-benchmark microbenchmarks for the performance-critical
// primitives: permutation evaluation, range hashing, LSH identifier
// computation, SHA-1, Chord lookups (heavy ring and the engine's
// compact model), and bucket matching.
#include <benchmark/benchmark.h>

#include <cstring>
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
#include "store/bucket_store.h"
#include "tests/support/live_harness.h"

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
    auto result = ring->Lookup(*origin, rng.Next32());
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
BENCHMARK(BM_CompactChordRoute)->Arg(100000);

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
  // The §5.3 peer-wide matcher over the interval index: cost stays
  // near-flat in store size for selective queries.
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

void BM_LshIdentifiersInto(benchmark::State& state) {
  // The batched, allocation-free probe-path form.
  auto scheme = LshScheme::Make(LshParams::Paper(HashFamilyType::kApproxMinwise, 7));
  CHECK(scheme.ok());
  const Range q(100, 433);
  std::vector<uint32_t> ids;
  for (auto _ : state) {
    scheme->IdentifiersInto(q, &ids);
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK(BM_LshIdentifiersInto);

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
