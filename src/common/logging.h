// Minimal logging and assertion macros (glog-flavoured, no deps).
#ifndef P2PRANGE_COMMON_LOGGING_H_
#define P2PRANGE_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace p2prange {
namespace internal {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Global threshold; messages below it are discarded. Default kInfo.
LogLevel GetLogThreshold();
void SetLogThreshold(LogLevel level);

/// \brief Destination for emitted log lines — the test seam that lets
/// suites capture output without stderr heroics. Write() is called
/// with the sink mutex held, serialized across threads; a sink must
/// never log (the self-deadlock is caught by the lock-rank CHECK in
/// common/sync.h) and must stay alive until SwapLogSink returns it.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const std::string& line) = 0;
};

/// \brief Installs `sink` as the emission target (nullptr restores
/// stderr) and returns the previous sink. The swap and every emission
/// synchronize on one annotated Mutex, so when this returns the old
/// sink is guaranteed not to be mid-Write on any thread — the caller
/// may destroy it immediately.
LogSink* SwapLogSink(LogSink* sink);

/// \brief Accumulates one log line and emits it (to stderr) on destruction.
/// kFatal aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

/// Swallows a streamed expression when a check passes; keeps the
/// ternary in CHECK well-typed.
struct LogMessageVoidify {
  void operator&(LogMessage&) {}
};

}  // namespace internal
}  // namespace p2prange

#define P2P_LOG_INTERNAL(level) \
  ::p2prange::internal::LogMessage(::p2prange::internal::LogLevel::level, __FILE__, __LINE__)

#define LOG_DEBUG() P2P_LOG_INTERNAL(kDebug)
#define LOG_INFO() P2P_LOG_INTERNAL(kInfo)
#define LOG_WARNING() P2P_LOG_INTERNAL(kWarning)
#define LOG_ERROR() P2P_LOG_INTERNAL(kError)
#define LOG_FATAL() P2P_LOG_INTERNAL(kFatal)

#define CHECK(cond)                                     \
  (cond) ? (void)0                                      \
         : ::p2prange::internal::LogMessageVoidify() &  \
               P2P_LOG_INTERNAL(kFatal) << "Check failed: " #cond " "

#define CHECK_EQ(a, b) CHECK((a) == (b))
#define CHECK_NE(a, b) CHECK((a) != (b))
#define CHECK_LT(a, b) CHECK((a) < (b))
#define CHECK_LE(a, b) CHECK((a) <= (b))
#define CHECK_GT(a, b) CHECK((a) > (b))
#define CHECK_GE(a, b) CHECK((a) >= (b))

// DCHECKs compile out of NDEBUG (release) builds. A build that defines
// P2PRANGE_DCHECK_ALWAYS_ON evaluates them anyway: every sanitized CMake
// tree does (CMakeLists.txt), so the checking gates run optimized code
// with its invariants asserted. P2PRANGE_DCHECK_IS_ON says which.
#if defined(NDEBUG) && !defined(P2PRANGE_DCHECK_ALWAYS_ON)
#define P2PRANGE_DCHECK_IS_ON 0
#define DCHECK(cond) \
  while (false) CHECK(cond)
#else
#define P2PRANGE_DCHECK_IS_ON 1
#define DCHECK(cond) CHECK(cond)
#endif
#define DCHECK_EQ(a, b) DCHECK((a) == (b))
#define DCHECK_NE(a, b) DCHECK((a) != (b))
#define DCHECK_LT(a, b) DCHECK((a) < (b))
#define DCHECK_LE(a, b) DCHECK((a) <= (b))
#define DCHECK_GT(a, b) DCHECK((a) > (b))
#define DCHECK_GE(a, b) DCHECK((a) >= (b))

#endif  // P2PRANGE_COMMON_LOGGING_H_
