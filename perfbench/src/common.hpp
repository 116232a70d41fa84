#pragma once
// Shared pieces of the sctune benchmark harness: command-line options, the
// result record every workload fills, sample statistics, report digests,
// the seeded stream that orders jobs, and the expected-digest table.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sct {}

namespace perfbench {

/// The harness drives the sctune modules by their own names (core::,
/// server::, ...).
using namespace sct;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;  ///< default seed: the one the expected digests use
  double seconds = 20.0;
  bool trace = false;
  std::string revision = "unknown";
  // Relative to the checkout root, the harness's working directory.
  std::filesystem::path expectedDir = "perfbench/expected";
  std::filesystem::path workDir = ".bench_work";
  std::size_t threads = 0;  ///< resolved to the host's CPU count in main()
  /// When set, the workload computes every job of its universe and writes
  /// the expected-digest table here instead of measuring.
  std::optional<std::filesystem::path> recordPath;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the contract's result line plus human-readable
/// notes printed above it.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checksPassed = true;  ///< cross-checks that are not per-operation
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; `what` lands in the notes.
  void fail(const std::string& what);
  /// Counts one operation; a false `ok` counts it as failed.
  void count(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return failed == 0 && checksPassed; }
};

// ---- statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> xs);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. With fewer than 11 samples no such percentile exists and
/// the maximum stands in (level 100).
struct Tail {
  double value = 0.0;
  double levelPct = 100.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> xs);

/// Adds `<prefix>_p50_<unit>` and `<prefix>_tail_<unit>` (seconds scaled by
/// `scale`): each statistic is taken per round of samples and the median
/// over the rounds is reported. Notes the tail level and sample count.
void addLatency(RunResult& out, const std::string& prefix,
                const std::vector<std::vector<double>>& rounds, double scale,
                const std::string& unit);

/// Peak resident set size of this process [MB].
[[nodiscard]] double peakRssMb();

// ---- digests and seeded order ---------------------------------------------

/// 128-bit content digest (two FNV-1a/64 lanes with distinct offset bases,
/// plus the length) rendered as hex; independent of the program's hashing.
[[nodiscard]] std::string digestOf(std::string_view bytes);

/// splitmix64 stream: the only source of randomness in the harness.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform index in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& xs) {
    for (std::size_t i = xs.size(); i > 1; --i) std::swap(xs[i - 1], xs[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Text of a double inside a job key ("%.12g": 4.854, 0.02).
[[nodiscard]] std::string numberKey(double v);

// ---- expected digests ------------------------------------------------------

/// `key digest` lines; '#' starts a comment.
class ExpectedTable {
 public:
  static ExpectedTable load(const std::filesystem::path& path);
  /// Empty when the key has no recorded digest.
  [[nodiscard]] std::optional<std::string> find(const std::string& key) const;

 private:
  std::map<std::string, std::string> digests_;
};

void writeExpectedTable(const std::filesystem::path& path,
                        const std::string& header,
                        const std::map<std::string, std::string>& digests);

/// Fresh per-run scratch directory under the work root; removed by the
/// destructor.
class ScratchDir {
 public:
  ScratchDir(const std::filesystem::path& root, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace perfbench
