#pragma once
// The job runners shared by the CLI and the sctuned daemon (DESIGN.md §14).
// `sctune flow|scenario|evolve` and the daemon's handlers pass the same
// request struct to the same runJob overload, so a local --report file and
// a `sctune client ... --report` file are byte-identical by construction.

#include <string>

#include "core/flow.hpp"
#include "server/protocol.hpp"

namespace sct::server {

struct JobResult {
  /// False makes the CLI exit 2: flow missed timing, evolve found no
  /// feasible point. A scenario matrix always succeeds — unmet cells at
  /// tight periods are the measurement it exists to take.
  bool success = false;
  std::string summary;  ///< the one-line human summary
  std::string body;     ///< report text, or JSON when the request asks
};

/// Throws std::invalid_argument unless `period` is a positive, finite clock
/// period [ns].
void checkPeriod(double period);

/// Each runner checks its clock period(s) before any compute, then runs the
/// job on `flow` (configured from request.job by the caller, who adds the
/// cache wiring). Errors of the underlying job propagate as exceptions.
[[nodiscard]] JobResult runJob(const FlowRequest& request,
                               core::TuningFlow& flow);
[[nodiscard]] JobResult runJob(const ScenarioRequest& request,
                               core::TuningFlow& flow);
[[nodiscard]] JobResult runJob(const EvolveRequest& request,
                               core::TuningFlow& flow);

}  // namespace sct::server
