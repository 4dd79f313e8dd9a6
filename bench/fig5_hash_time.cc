// Regenerates Figure 5: execution time of hashing a query range with
// the l*k = 100 hash functions, as a function of the range size.
//
// The paper timed a straightforward implementation on a 900 MHz
// Pentium and reported milliseconds; we report microseconds. Two
// numbers are given for each bit-shuffle family:
//   * "naive": round-by-round evaluation of the Figure 3 shuffle —
//     the implementation the paper measures, where the full min-wise
//     family costs log2(W)=5 rounds and the approximate family 1;
//   * "compiled": this library's production path for per-element
//     evaluation, which compiles the (fixed) bit-position permutation
//     into byte lookup tables, making both families equally cheap per
//     element;
//   * "kernel": the sublinear range-min kernels (hash/kernels.h),
//     one function at a time — O(log p) for linear, O(W) for the
//     shuffles — whose cost is flat in range size. Bit-identical
//     results; only the figure's cost model changes;
//   * "approx batched": LshScheme::IdentifiersInto with the paper's
//     k = 20, l = 5 over the same 100 approx functions — the lane
//     kernel eight functions at a time, XOR-folded into 5
//     identifiers: what a probe actually pays.
// The paper's orderings — time linear in range size; linear
// permutations fastest, full min-wise slowest — hold in the naive
// column, with ratios set by 5 rounds vs 1 round vs one multiply.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "hash/bit_permutation.h"
#include "hash/kernels.h"
#include "hash/lsh.h"
#include "hash/minwise.h"
#include "stats/table_printer.h"
#include "workload/range_workload.h"

#include "bench/bench_args.h"

namespace p2prange {
namespace {

constexpr int kNumFunctions = 100;  // l * k = 5 * 20

/// Average microseconds to hash `ranges` with all functions, where
/// `hash_all` hashes one range with all functions.
template <typename HashAll>
double TimeMicros(const std::vector<Range>& ranges, HashAll&& hash_all) {
  // One warmup pass, then timed passes.
  uint64_t sink = 0;
  for (const Range& r : ranges) sink += hash_all(r);
  const auto start = std::chrono::steady_clock::now();
  for (const Range& r : ranges) sink += hash_all(r);
  const auto end = std::chrono::steady_clock::now();
  if (sink == 0xDEADBEEF) std::cerr << "";  // defeat dead-code elimination
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  return ns / 1000.0 / static_cast<double>(ranges.size());
}

struct FamilyTimers {
  std::vector<BitPermutation> full;      // 5 rounds
  std::vector<BitPermutation> approx;    // 1 round: the scheme's functions
  std::vector<LinearHashFunction> linear;
  LshScheme scheme;                      // k = 20, l = 5, approx family
};

FamilyTimers SampleFunctions(uint64_t seed) {
  auto scheme =
      LshScheme::Make(LshParams::Paper(HashFamilyType::kApproxMinwise, seed));
  CHECK(scheme.ok()) << scheme.status();
  FamilyTimers t{{}, {}, {}, std::move(*scheme)};
  CHECK_EQ(t.scheme.num_functions(), kNumFunctions);
  Rng rng(seed);
  for (int i = 0; i < kNumFunctions; ++i) {
    const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
    t.full.emplace_back(keys, keys.num_levels());
    t.linear.emplace_back(rng);
    const auto& approx = static_cast<const ApproxMinwiseHashFunction&>(
        t.scheme.function(i / t.scheme.k(), i % t.scheme.k()));
    t.approx.push_back(approx.permutation());
  }
  return t;
}

/// Range-at-a-time evaluation through the sublinear kernels.
template <typename HashOne>
uint64_t MinHashAllKernel(int n, HashOne&& hash_one) {
  uint64_t acc = 0;
  for (int f = 0; f < n; ++f) acc += hash_one(f);
  return acc;
}

template <typename Eval>
uint64_t MinHashAllFunctions(const Range& r, int n, Eval&& eval) {
  uint64_t acc = 0;
  for (int f = 0; f < n; ++f) {
    uint32_t best = ~0u;
    for (uint32_t x = r.lo();; ++x) {
      const uint32_t h = eval(f, x);
      if (h < best) best = h;
      if (x == r.hi()) break;
    }
    acc += best;
  }
  return acc;
}

void Run(size_t ranges_per_size) {
  const FamilyTimers fns = SampleFunctions(7);
  TablePrinter table({"range size", "linear (us)", "approx naive (us)",
                      "min-wise naive (us)", "approx compiled (us)",
                      "min-wise compiled (us)", "linear kernel (us)",
                      "approx kernel (us)", "min-wise kernel (us)",
                      "approx batched (us)"});
  for (uint32_t size : {10u, 50u, 100u, 200u, 400u, 800u, 1200u, 1500u}) {
    FixedSizeRangeGenerator gen(0, 100000, size, size);
    std::vector<Range> ranges;
    for (size_t i = 0; i < ranges_per_size; ++i) ranges.push_back(gen.Next());

    const double linear_us = TimeMicros(ranges, [&](const Range& r) {
      return MinHashAllFunctions(r, kNumFunctions, [&](int f, uint32_t x) {
        return fns.linear[f].Permute(x);
      });
    });
    const double approx_naive_us = TimeMicros(ranges, [&](const Range& r) {
      return MinHashAllFunctions(r, kNumFunctions, [&](int f, uint32_t x) {
        return fns.approx[f].ApplyNaive(x);
      });
    });
    const double full_naive_us = TimeMicros(ranges, [&](const Range& r) {
      return MinHashAllFunctions(r, kNumFunctions, [&](int f, uint32_t x) {
        return fns.full[f].ApplyNaive(x);
      });
    });
    const double approx_fast_us = TimeMicros(ranges, [&](const Range& r) {
      return MinHashAllFunctions(r, kNumFunctions, [&](int f, uint32_t x) {
        return fns.approx[f].Apply(x);
      });
    });
    const double full_fast_us = TimeMicros(ranges, [&](const Range& r) {
      return MinHashAllFunctions(r, kNumFunctions, [&](int f, uint32_t x) {
        return fns.full[f].Apply(x);
      });
    });
    const double linear_kernel_us = TimeMicros(ranges, [&](const Range& r) {
      return MinHashAllKernel(kNumFunctions, [&](int f) {
        return fns.linear[f].HashRange(r);
      });
    });
    const double approx_kernel_us = TimeMicros(ranges, [&](const Range& r) {
      return MinHashAllKernel(kNumFunctions, [&](int f) {
        return MinPermutedOverRange(fns.approx[f], 0, r);
      });
    });
    const double full_kernel_us = TimeMicros(ranges, [&](const Range& r) {
      return MinHashAllKernel(kNumFunctions, [&](int f) {
        return MinPermutedOverRange(fns.full[f], 0, r);
      });
    });
    std::vector<uint32_t> ids;
    const double approx_batched_us = TimeMicros(ranges, [&](const Range& r) {
      fns.scheme.IdentifiersInto(r, &ids);
      return ids[0];
    });
    table.AddRow({TablePrinter::Fmt(static_cast<int>(size)),
                  TablePrinter::Fmt(linear_us, 1),
                  TablePrinter::Fmt(approx_naive_us, 1),
                  TablePrinter::Fmt(full_naive_us, 1),
                  TablePrinter::Fmt(approx_fast_us, 1),
                  TablePrinter::Fmt(full_fast_us, 1),
                  TablePrinter::Fmt(linear_kernel_us, 1),
                  TablePrinter::Fmt(approx_kernel_us, 1),
                  TablePrinter::Fmt(full_kernel_us, 1),
                  TablePrinter::Fmt(approx_batched_us, 1)});
  }
  table.Print(std::cout,
              "Figure 5: time to hash a query range with 100 hash functions");
  std::cout << "(paper: msec on a 900 MHz Pentium; shape to check: linear in\n"
               " range size, linear << approx < min-wise in the naive column;\n"
               " the kernel columns stay flat, and approx batched — the probe\n"
               " path's actual cost — sits below approx kernel)\n";
}

}  // namespace
}  // namespace p2prange

int main(int argc, char** argv) {
  const size_t n = p2prange::bench::CountFromArgs(argc, argv, 20, 2);
  p2prange::Run(n);
  return 0;
}
