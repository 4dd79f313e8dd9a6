// Logging under concurrency: these tests exist chiefly for the
// ThreadSanitizer configuration (tools/check.sh --tsan builds
// -DP2PRANGE_SANITIZE=thread and runs them alongside the TCP transport
// suite). The assertions are deliberately light — the property under
// test is "no data race between concurrent LogMessage emission and
// SetLogThreshold", and TSan is the real assertion.
#include "common/logging.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace p2prange {
namespace {

using internal::GetLogThreshold;
using internal::LogLevel;
using internal::LogSink;
using internal::SetLogThreshold;
using internal::SwapLogSink;

/// Appends every line to an owned buffer. Write() arrives with the
/// sink mutex held, so the vector needs no lock of its own — that
/// contract is exactly what the swap test below leans on.
class CaptureSink : public LogSink {
 public:
  void Write(const std::string& line) override { lines_.push_back(line); }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

/// Restores stderr as the sink on scope exit.
class SinkGuard {
 public:
  explicit SinkGuard(LogSink* sink) { previous_ = SwapLogSink(sink); }
  ~SinkGuard() { SwapLogSink(previous_); }

 private:
  LogSink* previous_;
};

/// Restores the global threshold on scope exit so test order never
/// leaks a changed default into other suites.
class ThresholdGuard {
 public:
  ThresholdGuard() : saved_(GetLogThreshold()) {}
  ~ThresholdGuard() { SetLogThreshold(saved_); }

 private:
  LogLevel saved_;
};

// A sanitized tree is the one gate that runs optimized code with its
// invariants asserted, so it must evaluate DCHECKs. Detected from the
// compiler, not from the CMake switch under test: ASan and TSan are
// the sanitized configurations tools/check.sh and CI build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define P2PRANGE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define P2PRANGE_TEST_SANITIZED 1
#endif
#endif

TEST(LoggingTest, SanitizedTreesEvaluateDchecks) {
  int evaluated = 0;
  auto touch = [&evaluated] { return ++evaluated > 0; };
  DCHECK(touch());
  EXPECT_EQ(evaluated, P2PRANGE_DCHECK_IS_ON);
#ifdef P2PRANGE_TEST_SANITIZED
  EXPECT_EQ(evaluated, 1) << "this sanitized build compiles DCHECKs out";
#endif
}

TEST(LoggingTest, ThresholdFiltersBelowAndPassesAtOrAbove) {
  ThresholdGuard guard;
  SetLogThreshold(LogLevel::kWarning);

  testing::internal::CaptureStderr();
  LOG_INFO() << "filtered out";
  LOG_WARNING() << "kept-warning";
  LOG_ERROR() << "kept-error";
  const std::string err = testing::internal::GetCapturedStderr();

  EXPECT_EQ(err.find("filtered out"), std::string::npos) << err;
  EXPECT_NE(err.find("kept-warning"), std::string::npos) << err;
  EXPECT_NE(err.find("kept-error"), std::string::npos) << err;
  EXPECT_NE(err.find("logging_test.cc"), std::string::npos) << err;
}

TEST(LoggingTest, ConcurrentLoggingAndThresholdFlipsAreRaceFree) {
  ThresholdGuard guard;
  constexpr int kThreads = 4;
  constexpr int kLinesPerThread = 200;

  testing::internal::CaptureStderr();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        LOG_INFO() << "worker " << t << " line " << i;
        LOG_DEBUG() << "usually filtered " << i;
      }
    });
  }
  // Flip the threshold while the workers stream: the atomic load in the
  // LogMessage constructor must never race with these stores.
  for (int flip = 0; flip < 100; ++flip) {
    SetLogThreshold(flip % 2 == 0 ? LogLevel::kDebug : LogLevel::kError);
  }
  for (std::thread& w : workers) w.join();
  const std::string err = testing::internal::GetCapturedStderr();

  // Every emitted line is intact (no interleaved torn prefixes): each
  // non-empty line starts with its "[LEVEL " tag.
  size_t lines = 0;
  size_t start = 0;
  while (start < err.size()) {
    size_t end = err.find('\n', start);
    if (end == std::string::npos) end = err.size();
    const std::string line = err.substr(start, end - start);
    if (!line.empty()) {
      ++lines;
      EXPECT_EQ(line[0], '[') << "torn log line: " << line;
    }
    start = end + 1;
  }
  EXPECT_LE(lines, static_cast<size_t>(kThreads * kLinesPerThread * 2));
}

TEST(LoggingTest, SinkCapturesLinesAndRestores) {
  ThresholdGuard guard;
  SetLogThreshold(LogLevel::kInfo);
  CaptureSink sink;
  {
    SinkGuard installed(&sink);
    LOG_INFO() << "to the sink";
    LOG_DEBUG() << "still filtered by threshold";
  }
  testing::internal::CaptureStderr();
  LOG_INFO() << "back to stderr";
  const std::string err = testing::internal::GetCapturedStderr();

  ASSERT_EQ(sink.lines().size(), 1u);
  EXPECT_NE(sink.lines()[0].find("to the sink"), std::string::npos);
  EXPECT_EQ(sink.lines()[0].back(), '\n') << "sink gets whole lines";
  EXPECT_NE(err.find("back to stderr"), std::string::npos) << err;
  EXPECT_EQ(err.find("to the sink"), std::string::npos) << err;
}

// Regression for the latent sink-swap hazard the annotated layer
// closes: swapping the sink while other threads emit must neither
// race (TSan checks that) nor let a Write land on the swapped-out
// sink after SwapLogSink returned — the swapper destroys it
// immediately, as this test does by scoping each CaptureSink to one
// iteration of the loop.
TEST(LoggingTest, SwappingSinksUnderConcurrentLoggingIsSafe) {
  ThresholdGuard guard;
  SetLogThreshold(LogLevel::kInfo);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&stop, t] {
      for (int i = 0; !stop.load(); ++i) {
        LOG_INFO() << "writer " << t << " line " << i;
      }
    });
  }

  testing::internal::CaptureStderr();  // absorb the between-sinks lines
  size_t captured = 0;
  for (int round = 0; round < 50; ++round) {
    CaptureSink sink;
    LogSink* prev = SwapLogSink(&sink);
    LOG_INFO() << "round " << round;
    SwapLogSink(prev);
    // `sink` dies here; any late Write after the swap would be a
    // use-after-free under ASan and a race under TSan.
    captured += sink.lines().size();
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  (void)testing::internal::GetCapturedStderr();

  EXPECT_GE(captured, 50u) << "each round's own line reaches its sink";
}

}  // namespace
}  // namespace p2prange
