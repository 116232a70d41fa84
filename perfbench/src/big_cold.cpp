// big-cold: one tuned flow (sigma-ceiling 0.02 at the tight paper period) on
// the `big` random-DAG workload at a quarter of its default scale, with no
// artifact store — a fresh core::TuningFlow with an empty cacheDir, repeated.
// The workload seed picks the random-DAG seed. No stage can hit a cache, so
// every flow is cold. The full-scale flow takes about 6 s, too few samples
// per run for a steady median on a host whose speed drifts; a quarter-scale
// flow takes about 1 s.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "lint/engine.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "replica.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 7;
constexpr std::size_t kMinFlows = 3;
/// `big` generator scale: 250 of its default 1000 (54k generated gates).
constexpr std::size_t kScale = 250;
/// Wall time of one flow on the reference host (4 CPUs): the run's flow
/// count is --seconds over this, so both sides of a comparison do the same
/// work.
constexpr double kNominalFlowSeconds = 1.1;

core::FlowJob bigJob() {
  core::FlowJob job;
  job.profile = "full";
  job.workload = "big";
  job.period = kPaperPeriods[0];
  job.method = "sigma-ceiling";
  job.value = 0.02;
  return job;
}

core::FlowConfig bigConfig(std::uint64_t seed) {
  core::FlowConfig config = core::makeFlowConfig(bigJob());
  config.big.scale = kScale;
  config.big.seed = seed;
  return config;
}

std::string seedKey(std::uint64_t seed) {
  return jobKey(bigJob()) + "/scale" + std::to_string(kScale) + "/seed" +
         std::to_string(seed);
}

std::string runFlow(const core::FlowConfig& config) {
  core::TuningFlow flow(config);
  return core::runFlowJob(flow, bigJob()).report;
}

RunResult record(const Options& options) {
  writeExpectedTable(
      *options.recordPath, "big-cold: flow-report v1 digest at the default seed",
      {{seedKey(options.seed), digestOf(runFlow(bigConfig(options.seed)))}});
  RunResult out;
  out.attempted = 1;
  return out;
}

/// Replica of the whole cold flow (set-up included, as runFlowJob without a
/// store computes it) under one "flow.job" span.
std::string replicaFlow(const core::FlowConfig& config, ReplicaCounts& counts) {
  return inSpan("flow.job", 0, [&] {
    FlowReplica replica(config, nullptr);
    replica.setUp(0);
    std::string report = replica.run(bigJob(), 0);
    counts = replica.counts();
    return report;
  });
}

RunResult traced(const Options& options) {
  RunResult out;
  LayerReport layers;
  SpanRecorder& spans = SpanRecorder::global();
  const core::FlowConfig config = bigConfig(options.seed);

  obs::MetricsRegistry::global().resetValues();
  obs::setMetricsEnabled(true);
  Clock::time_point start = Clock::now();
  const std::string report = runFlow(config);
  const double flowAtN = secondsSince(start);
  const std::optional<std::string> want =
      ExpectedTable::load(options.expectedDir / "big-cold.txt")
          .find(seedKey(options.seed));
  if (want && *want != digestOf(report)) out.fail("big flow report digest");
  obs::setMetricsEnabled(false);
  layers.setCounters(obs::MetricsRegistry::global().snapshot());

  parallel::setThreadCount(1);
  start = Clock::now();
  const std::string reportAtOne = runFlow(config);
  const double flowAtOne = secondsSince(start);
  parallel::setThreadCount(options.threads);
  if (reportAtOne != report) out.fail("big flow report differs at 1 thread");

  spans.setEnabled(true);
  ReplicaCounts counts;
  if (replicaFlow(config, counts) != report) {
    out.fail("replica report differs from runFlowJob");
  }
  spans.setEnabled(false);
  layers.setSpanTimes();
  layers.set("netlist.gates", static_cast<double>(counts.gates));
  layers.set("lint.findings", static_cast<double>(counts.lintFindings));
  layers.set("synth.resizes", static_cast<double>(counts.resizes));
  layers.set("synth.buffers", static_cast<double>(counts.buffers));
  layers.set("core.unattributed_s", flowAtN - spans.childSeconds("flow.job"));
  layers.set("trace.overhead_s", spans.totals()["flow.job"].first - flowAtN);
  layers.set("scale.flow", flowAtOne / flowAtN);
  noteSpanTable(out);
  spans.write(options.workDir /
              ("spans-big-cold-seed" + std::to_string(options.seed) + ".tsv"));
  const double synthAtN = spans.totals()["synth.run"].first;
  const double staAtN = spans.totals()["sta.analyze"].first;

  // The replica again at 1 thread, for the synthesis and STA scaling.
  spans.clear();
  spans.setEnabled(true);
  parallel::setThreadCount(1);
  if (replicaFlow(config, counts) != report) {
    out.fail("replica report differs at 1 thread");
  }
  parallel::setThreadCount(options.threads);
  spans.setEnabled(false);
  layers.set("scale.synth.run", spans.totals()["synth.run"].first / synthAtN);
  layers.set("scale.sta.analyze", spans.totals()["sta.analyze"].first / staAtN);
  out.attempted = 4;
  layers.emit(out);
  return out;
}

}  // namespace

RunResult runBigCold(const Options& options) {
  if (options.recordPath) return record(options);
  if (options.trace) return traced(options);

  const ExpectedTable expected =
      ExpectedTable::load(options.expectedDir / "big-cold.txt");
  const core::FlowConfig config = bigConfig(options.seed);
  RunResult out;

  // Set-up: generate the seeded subject and lint it, so a generator that
  // emits a broken netlist fails before any flow is timed.
  std::vector<double> setups;
  const lint::LintEngine linter = lint::LintEngine::withAllRules();
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    const netlist::Design subject = netlist::generateRandomDag(config.big);
    lint::LintSubject lintSubject;
    lintSubject.design = &subject;
    const lint::LintReport report =
        linter.run(lintSubject, lint::packBit(lint::RulePack::kNetlist));
    setups.push_back(secondsSince(start));
    if (report.hasErrors()) out.fail("seeded subject has lint errors");
  }

  std::optional<std::string> first;
  std::vector<double> flows;
  const std::size_t flowCount = std::max(
      kMinFlows,
      static_cast<std::size_t>(std::lround(options.seconds / kNominalFlowSeconds)));
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < flowCount; ++i) {
    const Clock::time_point flowStart = Clock::now();
    std::string report;
    try {
      report = runFlow(config);
    } catch (const std::exception& error) {
      out.count(false, std::string("big flow: ") + error.what());
      break;
    }
    flows.push_back(secondsSince(flowStart));
    const std::string digest = digestOf(report);
    if (!first) {
      first = digest;
      // Digests are recorded for the default seed; other seeds check that
      // every repetition reproduces the first report.
      const std::optional<std::string> want = expected.find(seedKey(options.seed));
      out.count(!want || *want == digest,
                seedKey(options.seed) + ": report digest " + digest +
                    " != expected " + want.value_or("(none)"));
    } else {
      out.count(digest == *first, "big flow report differs between repetitions");
    }
  }
  const double elapsed = secondsSince(start);
  std::string times = "flow seconds:";
  for (const double seconds : flows) times += " " + std::to_string(seconds);
  out.notes.push_back(times);

  out.add("setup_s", median(setups), "s");
  addLatency(out, "flow_cold", {flows}, 1.0, "s");
  // No stage can hit without a store: the warm figures are the cold ones.
  addLatency(out, "flow_warm", {flows}, 1.0, "s");
  addLatency(out, "req", {flows}, 1e3, "ms");
  out.add("req_per_s", static_cast<double>(flows.size()) / elapsed, "1/s");
  out.add("peak_rss_mb", peakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
