// The benches' scale argument: `--smoke` wins, a count is a whole
// number >= 1, a peer count >= 2, a duration a finite number > 0, and
// anything else exits 2 with the usage line instead of running some
// other scale.
// Whether a run is a smoke run comes from the flag alone.
#include "bench/bench_args.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace p2prange {
namespace bench {
namespace {

/// The argv of `prog args...`.
class Argv {
 public:
  explicit Argv(std::initializer_list<const char*> args) : words_{"prog"} {
    words_.insert(words_.end(), args.begin(), args.end());
    for (std::string& w : words_) ptrs_.push_back(w.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> words_;
  std::vector<char*> ptrs_;
};

size_t Count(std::initializer_list<const char*> args) {
  Argv a(args);
  return CountFromArgs(a.argc(), a.argv(), 1000, 10);
}

double Duration(std::initializer_list<const char*> args) {
  Argv a(args);
  return DurationFromArgs(a.argc(), a.argv(), 20.0, 1.5);
}

TEST(BenchArgsTest, CountTakesAWholeNumberOrSmoke) {
  EXPECT_EQ(Count({}), 1000u);
  EXPECT_EQ(Count({"300"}), 300u);
  EXPECT_EQ(Count({"1"}), 1u);
  EXPECT_EQ(Count({"--smoke"}), 10u);
  EXPECT_EQ(Count({"300", "--smoke"}), 10u);
  EXPECT_EQ(Count({"--smoke", "300"}), 10u);
}

TEST(BenchArgsTest, MalformedCountExitsWithUsage) {
  // A lenient parse runs some other scale instead: "0.5" as 0 queries,
  // "3k" as 3, "abc" and "-5" as the full scale, and "1e400"/"1e30"
  // as a double that size_t cannot hold.
  for (const char* bad :
       {"0.5", "3k", "abc", "-5", "0", "1e400", "1e30", "", "--fast"}) {
    EXPECT_EXIT(Count({bad}), ::testing::ExitedWithCode(2),
                "usage: prog \\[--smoke\\] \\[COUNT\\]")
        << '"' << bad << '"';
  }
  EXPECT_EXIT(Count({"100", "200"}), ::testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(Count({"abc", "--smoke"}), ::testing::ExitedWithCode(2),
              "malformed argument: abc");
}

size_t Peers(std::initializer_list<const char*> args) {
  Argv a(args);
  return PeersFromArgs(a.argc(), a.argv(), 1000, 10);
}

TEST(BenchArgsTest, PeerCountTakesAtLeastTwoOrSmoke) {
  EXPECT_EQ(Peers({}), 1000u);
  EXPECT_EQ(Peers({"2"}), 2u);
  EXPECT_EQ(Peers({"--smoke"}), 10u);
  // One peer is a count, but no scenario cell runs on it: the bench
  // must refuse it with the usage line, not abort inside the engine.
  for (const char* bad : {"1", "0", "0.5", "-2", "abc"}) {
    EXPECT_EXIT(Peers({bad}), ::testing::ExitedWithCode(2),
                "usage: prog \\[--smoke\\] \\[PEERS\\]")
        << '"' << bad << '"';
  }
}

TEST(BenchArgsTest, DurationTakesAFinitePositiveNumberOrSmoke) {
  EXPECT_EQ(Duration({}), 20.0);
  EXPECT_EQ(Duration({"2.5"}), 2.5);
  EXPECT_EQ(Duration({"3"}), 3.0);
  EXPECT_EQ(Duration({"--smoke"}), 1.5);
  for (const char* bad : {"0", "-1", "abc", "2s", "1e400", "inf", "nan"}) {
    EXPECT_EXIT(Duration({bad}), ::testing::ExitedWithCode(2),
                "usage: prog \\[--smoke\\] \\[SECONDS\\]")
        << '"' << bad << '"';
  }
}

bool Smoke(std::initializer_list<const char*> args) {
  Argv a(args);
  return SmokeFromArgs(a.argc(), a.argv());
}

TEST(BenchArgsTest, SmokeIsTheFlagNotTheScale) {
  // Scales at and under the smoke durations the live benches use
  // (1.5 s, 3 s) are real runs.
  EXPECT_FALSE(Smoke({}));
  EXPECT_FALSE(Smoke({"2"}));
  EXPECT_FALSE(Smoke({"1.5"}));
  EXPECT_FALSE(Smoke({"3"}));
  EXPECT_TRUE(Smoke({"--smoke"}));
  EXPECT_TRUE(Smoke({"2", "--smoke"}));
  EXPECT_TRUE(Smoke({"--smoke", "2"}));
  EXPECT_EQ(Duration({"1.5"}), 1.5);
}

}  // namespace
}  // namespace bench
}  // namespace p2prange
