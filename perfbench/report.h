// Shared plumbing of p2prange_perfbench: the result line, sample
// statistics, resident-memory probes, and the span recorder.
//
// A run prints context lines ("# key=value") and a human-readable metric
// table on stdout, then one JSON object as its last line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// perfbench/run.py relays that line unchanged.
#ifndef P2PRANGE_PERFBENCH_REPORT_H_
#define P2PRANGE_PERFBENCH_REPORT_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace p2prange {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this process has run so far, all threads. On a guest
/// with paravirtual steal accounting this leaves out the time the
/// hypervisor ran other guests, which wall time charges to the program.
double ProcessCpuSeconds();

/// The share of its physical core this vCPU gets right now, 1 when it
/// has the core to itself: two fixed loops of the benchmark's own (none
/// of the repo's code) timed in CPU seconds against their times on an
/// unshared core, and the mean of the two ratios inverted. One loop is
/// ALU-bound (eight xorshift streams), the other bound by branch misses
/// and cache latency (binary search over 10^5 sorted identifiers), the
/// two kinds of work the engine does. When another guest runs on the
/// core's sibling hyperthread, the loops and the program all get less
/// done per CPU second, which CPU time cannot see. Takes about 135 ms.
double CoreShare();

/// Pins the calling thread to the CPU, of those the process started
/// with, on which CoreShare's loops (at a tenth of their size) run
/// fastest now; threads and processes it starts later inherit the pin.
/// Returns that CPU, or -1 when no affinity could be set. On a shared
/// host a vCPU whose core's other hyperthread is busy runs up to 1.5x
/// slower; choosing again before each batch or round keeps the work on
/// an unshared core when there is one.
int PinToFastestCpu();

/// Independent 64-bit seed for sub-stream `stream` of the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// What every workload receives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Writable directory inside the checkout (WAL dirs, span files).
  std::string scratch_dir;
};

/// \brief The run's verdict, counters, metrics, and context lines.
class Report {
 public:
  /// Sets metric `name` (units live in the metric tables of main.cc).
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const { return values_.contains(name); }
  /// Records an output check; a false one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Context(const std::string& key, const std::string& value);

  void CountAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }

  /// \brief One named metric with its unit, as the result line lists it.
  struct MetricSpec {
    const char* name;
    const char* unit;
  };

  /// Context lines, check failures, the metric table, then the JSON
  /// result line (exactly the metrics in `specs`, in order) — all on
  /// stdout.
  void Print(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> context_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1] (0 when empty).
double Percentile(std::vector<double> v, double p);

/// Peak resident set of this process, MB (getrusage).
double SelfPeakRssMb();
/// Peak resident set (VmHWM) of a live child, MB; 0 when unreadable.
double ProcessPeakRssMb(pid_t pid);

/// Filesystem type name of the mount holding `path` ("ext4", "tmpfs").
std::string FilesystemType(const std::string& path);

/// Value of the first `"key":<number>` in a flat JSON text (the
/// daemon's metrics line); -1 when absent.
double JsonNumber(std::string_view json, std::string_view key);

/// \brief Spans recorded by the benchmark around its calls into each
/// layer: name, start, end, parent span, and the trace (one per
/// operation). Kept in memory, written as JSON lines at the end of the
/// run. Disabled, every call is a no-op that reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled). A root span
  /// (parent 0) starts a new trace.
  uint32_t Begin(const char* name, uint32_t parent = 0);
  void End(uint32_t span);

  /// Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint32_t trace;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench
}  // namespace p2prange

#endif  // P2PRANGE_PERFBENCH_REPORT_H_
