#include "server/jobs.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/flow_job.hpp"
#include "evo/tuner.hpp"
#include "postsi/scenario.hpp"

namespace sct::server {

void checkPeriod(double period) {
  if (std::isfinite(period) && period > 0.0) return;
  std::ostringstream message;
  message << "clock period must be a positive number of ns, got " << period;
  throw std::invalid_argument(message.str());
}

JobResult runJob(const FlowRequest& request, core::TuningFlow& flow) {
  checkPeriod(request.job.period);
  core::FlowJobResult result = core::runFlowJob(flow, request.job);
  return {result.success, std::move(result.summary), std::move(result.report)};
}

JobResult runJob(const ScenarioRequest& request, core::TuningFlow& flow) {
  for (const double period : request.periods) checkPeriod(period);
  const postsi::ScenarioJob job{request.job,      request.periods,
                                request.scenarios, request.element,
                                request.mcTrials, request.mcSeed};
  postsi::ScenarioRunResult result = postsi::runScenarioJob(flow, job);
  return {true, std::move(result.summary),
          std::move(request.json ? result.json : result.report)};
}

JobResult runJob(const EvolveRequest& request, core::TuningFlow& flow) {
  checkPeriod(request.job.period);
  const evo::EvolveJob job{request.job, request.params};
  evo::EvolveRunResult result = evo::runEvolveJob(flow, job);
  return {result.success, std::move(result.summary),
          std::move(request.json ? result.json : result.report)};
}

}  // namespace sct::server
