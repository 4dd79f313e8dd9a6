#include "report.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <numeric>

namespace p2prange {
namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/// CPU seconds of the two full-size probe loops on an unshared core:
/// the fastest passes seen on the 4-vCPU Xeon (Sapphire Rapids) guest
/// the benchmark was tuned on.
constexpr double kAluNominalS = 0.055;
constexpr double kSearchNominalS = 0.078;
constexpr int kAluIters = 10'000'000;
constexpr int kSearchIters = 600'000;
/// PinToFastestCpu runs the probe at 1/kPickDivisor of its full size.
constexpr int kPickDivisor = 10;

volatile uint64_t core_probe_sink;  ///< keeps the loops' results live

/// Eight independent xorshift streams: bound by the core's ALU ports.
double AluLoopSeconds(int iters) {
  uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const double cpu0 = ProcessCpuSeconds();
  for (int i = 0; i < iters; ++i) {
    for (uint64_t& s : x) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
    }
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  core_probe_sink = std::accumulate(std::begin(x), std::end(x), uint64_t{0});
  return cpu_s;
}

/// Binary searches for random keys in a sorted array of 10^5 random
/// 32-bit identifiers (400 KB): bound by branch misses and cache
/// latency, like routing over the engine's sorted peer array.
double SearchLoopSeconds(int iters) {
  static const std::vector<uint32_t> ids = [] {
    std::vector<uint32_t> v(100000);
    uint64_t s = 88172645463325252ULL;
    for (uint32_t& id : v) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      id = static_cast<uint32_t>(s);
    }
    std::sort(v.begin(), v.end());
    return v;
  }();
  uint64_t s = 1234567;
  uint64_t acc = 0;
  const double cpu0 = ProcessCpuSeconds();
  for (int i = 0; i < iters; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    acc += static_cast<uint64_t>(
        std::upper_bound(ids.begin(), ids.end(), static_cast<uint32_t>(s)) -
        ids.begin());
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  core_probe_sink = acc;
  return cpu_s;
}

/// Mean of the two loops' times against their nominal ones, the probe
/// run at 1/`divisor` of its full size.
double Slowdown(int divisor) {
  const double d = divisor;
  return (AluLoopSeconds(kAluIters / divisor) * d / kAluNominalS +
          SearchLoopSeconds(kSearchIters / divisor) * d / kSearchNominalS) /
         2.0;
}

bool PinTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(0, sizeof(one), &one) == 0;
}

}  // namespace

double CoreShare() { return 1.0 / Slowdown(1); }

int PinToFastestCpu() {
  // The set the process started with; later calls find the thread
  // already pinned to one of its CPUs.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  int best = -1;
  double best_s = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || !PinTo(cpu)) continue;
    // Wall time, so a CPU that other processes or the hypervisor take
    // turns on also reads slow.
    const Clock::time_point t0 = Clock::now();
    Slowdown(kPickDivisor);
    const double s = SecondsSince(t0);
    if (best < 0 || s < best_s) {
      best = cpu;
      best_s = s;
    }
  }
  return best >= 0 && PinTo(best) ? best : -1;
}

void Report::Set(const std::string& name, double value) {
  Check(std::isfinite(value), name + " is finite");
  values_[name] = std::isfinite(value) ? value : 0.0;
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::Print(const std::vector<MetricSpec>& specs) const {
  for (const auto& [key, value] : context_) {
    std::printf("# %s=%s\n", key.c_str(), value.c_str());
  }
  for (const std::string& failure : failures_) {
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
  }
  auto value_of = [this](const char* name) {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  };
  for (const MetricSpec& m : specs) {
    std::printf("%-42s %16.6f %s\n", m.name, value_of(m.name), m.unit);
  }
  std::string json = "{\"correct\":";
  json += correct() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted_);
  json += ",\"failed\":" + std::to_string(failed_);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < specs.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", value_of(specs[i].name));
    if (i > 0) json += ',';
    json += std::string("\"") + specs[i].name + "\":{\"value\":" + value +
            ",\"unit\":\"" + specs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double SelfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

double JsonNumber(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) return -1.0;
  const std::string rest(json.substr(at + needle.size(), 32));
  char* end = nullptr;
  const double v = std::strtod(rest.c_str(), &end);
  return end == rest.c_str() ? -1.0 : v;
}

uint32_t Tracer::Begin(const char* name, uint32_t parent) {
  if (!enabled_) return 0;
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  const uint32_t trace = parent == 0 ? id : spans_[parent - 1].trace;
  spans_.push_back(Span{name, parent, trace, now, -1});
  return id;
}

void Tracer::End(uint32_t span) {
  if (span == 0) return;
  spans_[span - 1].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - epoch_)
                                .count();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"trace\":" << s.trace
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
}  // namespace p2prange
