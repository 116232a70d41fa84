#pragma once
// The three benchmark workloads. Each entry point runs either the timed
// closed loop (end-to-end metrics), the traced run (per-layer metrics) or
// the record mode that writes the expected report digests.

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/flow_job.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

RunResult runSweepMcu(const Options& options);
RunResult runBigCold(const Options& options);
RunResult runDaemonMix(const Options& options);

// ---- shared by the workloads ----------------------------------------------

/// The two paper periods every sweep runs at: the tight 2.5-equivalent and
/// the medium 4-equivalent of the 2.41 ns high-performance constraint.
inline constexpr double kPaperPeriods[] = {4.854, 7.766};

/// Baseline plus 5 methods x 4 Table 2 values at each paper period.
[[nodiscard]] std::vector<core::FlowJob> paperJobs(const std::string& profile,
                                                   const std::string& workload);

/// "profile/workload/period/method/value" (method "baseline" when untuned).
[[nodiscard]] std::string jobKey(const core::FlowJob& job);

/// Every per-layer metric of the traced run, in report order. A layer the
/// workload's traced run does not exercise stays 0.
class LayerReport {
 public:
  LayerReport();
  void set(const std::string& name, double value);
  /// Self times of the recorder's spans, as `<span>_s` metrics.
  void setSpanTimes();
  /// Counters read from the program's metrics registry.
  void setCounters(const obs::MetricsSnapshot& snapshot);
  void emit(RunResult& out) const;

 private:
  std::map<std::string, double> values_;
};

/// Human-readable per-layer table of the recorder's spans, into the notes.
void noteSpanTable(RunResult& out);

}  // namespace perfbench
