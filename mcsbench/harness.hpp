// Shared plumbing of the end-to-end benchmark: options, the per-run
// result every workload fills, timing and percentile helpers, output
// hashing and /proc readers.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcsbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;  ///< path of the mcs-cli binary
  std::string git_sha = "unknown";
  std::string build_type = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every run starts with this many warm-up rounds. They are checked and
/// count as attempted, but their timings and set-ups are left out: a
/// process's first round pays for page faults, a cold page cache and
/// first-time allocations. On the host of mcsbench/STEADINESS.md a
/// first design_flow round took up to 1.3x as long as the run's median
/// round, and its set-up up to 1.5x.
constexpr std::size_t kWarmupRounds = 1;

/// What one workload run reports. Every round repeats the same work, so
/// the end-to-end timings are trimmed means over the measured rounds
/// (add_round); setups_s holds one set-up per round. The traced run adds
/// `layers`.
struct Result {
  struct Round {
    std::uint64_t ops = 0;  ///< completed ops inside the timed phase
    double timed_s = 0.0;
    std::vector<double> latencies_ms;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Round> rounds;
  std::vector<double> setups_s;
  double rss_mb = 0.0;
  std::vector<Metric> layers;
  std::uint64_t input_hash = 0;
  std::uint64_t output_hash = 0;
  /// Exact counts that must repeat bit for bit across runs of one seed.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  /// Parallelism and shape facts for the determinism record.
  std::vector<std::pair<std::string, std::string>> facts;
  std::vector<std::string> errors;

  /// Counts `failed_ops` failed ops and keeps the first few reasons.
  void fail(std::uint64_t failed_ops, const std::string& why) {
    failed += failed_ops;
    if (errors.size() < 8) errors.push_back(why);
    else if (errors.size() == 8) errors.push_back("(further errors elided)");
  }
  /// Records one timed round; its ops count as attempted.
  void add_round(std::uint64_t ops, double timed_s,
                 std::vector<double> latencies_ms) {
    attempted += ops;
    rounds.push_back({ops, timed_s, std::move(latencies_ms)});
  }
  /// Timed seconds of the measured rounds.
  [[nodiscard]] double timed_s() const {
    double sum = 0.0;
    for (std::size_t i = kWarmupRounds; i < rounds.size(); ++i)
      sum += rounds[i].timed_s;
    return sum;
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
};

/// FNV-1a over raw bytes; hashes inputs and checked outputs.
class Fnv {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void add(std::string_view s) {
    add(s.data(), s.size());
    add_u64(s.size());
  }
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

[[nodiscard]] inline double min_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *std::min_element(samples.begin(), samples.end());
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

/// Mean without the lowest and the highest sample; the plain mean of
/// fewer than five. Aggregates the per-round figures of a run: when the
/// host puts some rounds in a fast mode and others in a slow one, a
/// median over rounds jumps between the modes, while a single odd round
/// cannot move this far.
[[nodiscard]] inline double trimmed_mean(std::vector<double> samples) {
  if (samples.size() >= 5) {
    std::sort(samples.begin(), samples.end());
    samples.pop_back();
    samples.erase(samples.begin());
  }
  return mean(samples);
}

/// Exact decimal spelling that strtod maps back to the same double.
[[nodiscard]] std::string exact(double v);

/// Value of ` key=<digits>` in a reply line (0 when absent).
[[nodiscard]] std::uint64_t reply_u64(const std::string& reply,
                                      const std::string& key);

/// Peak resident set (VmHWM) of a process, in MiB; `pid` 0 is this
/// process.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// utime + stime of a process from /proc/<pid>/stat, in seconds.
[[nodiscard]] double cpu_seconds(pid_t pid);

}  // namespace mcsbench
