#pragma once
// In-memory span recorder for the traced run. Spans are opened by the
// harness itself around its calls into each sctune module's public entry
// points (never inside the program), kept in memory, and written out when
// the run ends. A layer's self time is its spans' duration minus the part
// covered by their child spans.

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< string literal
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  long parent = -1;  ///< index into the recorder's spans, -1 at top level
  long job = -1;     ///< job the span works for; shared by its children
  [[nodiscard]] double seconds() const {
    return static_cast<double>(endNs - startNs) * 1e-9;
  }
};

class SpanRecorder {
 public:
  /// The recorder every Scope writes to.
  static SpanRecorder& global();

  void setEnabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void clear();

  /// RAII span on the calling thread; nests under the thread's open span.
  class Scope {
   public:
    Scope(const char* name, long job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    long index_ = -1;
  };

  [[nodiscard]] std::vector<Span> snapshot() const;

  /// Per-name self time [s] over every recorded span.
  [[nodiscard]] std::map<std::string, double> selfSeconds() const;
  /// Per-name total duration [s] and span count.
  [[nodiscard]] std::map<std::string, std::pair<double, std::size_t>>
  totals() const;
  /// Σ duration of the direct children of every top-level span named
  /// `root` — the time the layers account for inside those spans.
  [[nodiscard]] double childSeconds(const char* root) const;

  /// One tab-separated line per span: index, name, start, end, parent, job.
  void write(const std::filesystem::path& path) const;

 private:
  long open(const char* name, long job);
  void close(long index);

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Runs `fn` inside a span and returns its result.
template <class Fn>
decltype(auto) inSpan(const char* name, long job, Fn&& fn) {
  SpanRecorder::Scope scope(name, job);
  return fn();
}

}  // namespace perfbench
