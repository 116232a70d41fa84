#pragma once
// One self-contained flow request and its deterministic rendering — the
// canonical unit shared by the CLI `flow` command and the sctuned daemon
// (DESIGN.md §14). Both paths build the FlowConfig through makeFlowConfig
// and render the result through runFlowJob, so a daemon response is
// byte-identical to the CLI's --report file for the same job by
// construction, not by convention.

#include <cstdint>
#include <string>
#include <string_view>

#include "artifact/fields.hpp"
#include "core/flow.hpp"
#include "tuning/methods.hpp"

namespace sct::core {

struct FlowJob {
  std::string profile = "full";  ///< "small" | "full" stage presets
  std::string workload = "mcu";  ///< subject design: mcu|dsp|noc|big
  double period = 0.0;           ///< clock period [ns]
  std::string method;  ///< tuning method name; empty = baseline synthesis
  double value = 0.0;  ///< tuning method parameter
  std::uint64_t mcCount = 0;     ///< MC library instances; 0 = profile default
  std::uint64_t mcSeed = 2014;   ///< paper's seed
  std::string lintMode = "error";  ///< "error" | "warn" | "off"
};

/// Serialized order of a FlowJob (SCTP payloads, scenario cell keys). Not
/// the declaration order: workload was appended to the wire last.
template <artifact::FieldsOf<FlowJob> J>
auto fields(J& j) {
  return std::tie(j.profile, j.period, j.method, j.value, j.mcCount, j.mcSeed,
                  j.lintMode, j.workload);
}

/// CLI method-name dictionary (strength-load, strength-slew, cell-load,
/// cell-slew, sigma-ceiling); throws std::runtime_error on unknown names.
[[nodiscard]] tuning::TuningMethod tuningMethodByName(const std::string& name);
/// Inverse of tuningMethodByName.
[[nodiscard]] std::string_view tuningMethodName(tuning::TuningMethod method);

/// Full-precision round-trippable double rendering ("%.17g") used by every
/// deterministic report, which are compared byte for byte between CLI,
/// daemon, thread counts and cache temperatures.
[[nodiscard]] std::string fmt17(double v);

/// Flow configuration for a job: profile presets, MC count/seed, lint mode.
/// Cache wiring (cacheDir / shared tiers) is left at the defaults for the
/// caller to fill in — it never affects results.
[[nodiscard]] FlowConfig makeFlowConfig(const FlowJob& job);

struct FlowJobResult {
  bool success = false;
  std::string summary;  ///< the one-line human summary the CLI prints
  std::string report;   ///< deterministic "flow-report v1" text (%.17g)
};

/// Runs the job on an already-constructed flow and renders both outputs.
/// The report bytes depend only on the job inputs — never on cache state,
/// thread count, or observability settings.
[[nodiscard]] FlowJobResult runFlowJob(TuningFlow& flow, const FlowJob& job);

}  // namespace sct::core
