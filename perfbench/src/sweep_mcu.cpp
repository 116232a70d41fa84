// sweep-mcu: the paper's Table 3 protocol on the full-profile MCU. Set-up
// fills an empty artifact store with the nominal library, the statistical
// library (50 Monte-Carlo libraries) and the subject's lint report. Each job
// then builds a fresh core::TuningFlow on that store and calls
// core::runFlowJob — one `sctune flow` invocation. Pass A runs every job once
// in seeded order (synthesis misses the cache); pass B reruns them (every
// stage hits), twice. The work is fixed — the passes take about 35 s on the
// reference host (4 CPUs) — so --seconds does not change it.

#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "artifact/codecs.hpp"
#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "replica.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetups = 5;
constexpr int kWarmPasses = 2;
/// Jobs the traced run replays cold and warm (a seeded prefix of pass A).
constexpr std::size_t kTracedJobs = 8;

core::FlowConfig storeConfig(const core::FlowJob& job, const fs::path& store) {
  core::FlowConfig config = core::makeFlowConfig(job);
  config.cacheDir = store.string();
  return config;
}

core::FlowJob mcuJob() {
  core::FlowJob job;
  job.profile = "full";
  job.workload = "mcu";
  return job;
}

/// What the first `sctune flow` on an empty store computes before any job
/// specific stage: nominal library, statistical library, subject lint.
void fillStore(const fs::path& store) {
  core::TuningFlow flow(storeConfig(mcuJob(), store));
  (void)flow.nominalLibrary();
  (void)flow.statLibrary();
  (void)flow.subject();
}

std::string runJob(const core::FlowJob& job, const fs::path& store) {
  core::TuningFlow flow(storeConfig(job, store));
  return core::runFlowJob(flow, job).report;
}

std::vector<core::FlowJob> seededJobs(std::uint64_t seed) {
  std::vector<core::FlowJob> jobs = paperJobs("full", "mcu");
  Stream(seed).shuffle(jobs);
  return jobs;
}

ExpectedTable loadExpected(const Options& options) {
  return ExpectedTable::load(options.expectedDir / "sweep-mcu.txt");
}

void checkExpected(RunResult& out, const ExpectedTable& expected,
                   const std::string& key, const std::string& digest) {
  const std::optional<std::string> want = expected.find(key);
  out.count(want && *want == digest,
            key + ": report digest " + digest + " != expected " +
                want.value_or("(none)"));
}

std::string statLibraryDigest(const statlib::StatLibrary& library) {
  artifact::SctbWriter writer;
  artifact::encodeStatLibrary(writer, library);
  const std::vector<std::byte> bytes = writer.finish();
  return digestOf(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                   bytes.size()));
}

/// Adds `<prefix>_p50_s` as the median of the per-period medians and
/// `<prefix>_tail_s` over the pooled jobs. Tight-period jobs are slower, so
/// the two periods' jobs form two overlapping clusters of equal size; the
/// median of the pooled jobs would fall where they meet and jump between
/// them from run to run.
void addFlowLatency(RunResult& out, const std::string& prefix,
                    const std::map<double, std::vector<double>>& byPeriod) {
  std::vector<double> medians;
  std::vector<double> pooled;
  for (const auto& [period, samples] : byPeriod) {
    medians.push_back(median(samples));
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  const Tail t = tail(pooled);
  out.add(prefix + "_p50_s", median(medians), "s");
  out.add(prefix + "_tail_s", t.value, "s");
  char note[160];
  std::snprintf(note, sizeof note,
                "%s_p50_s: median of %zu period medians; %s_tail_s: p%.1f "
                "over %zu samples",
                prefix.c_str(), medians.size(), prefix.c_str(), t.levelPct,
                t.samples);
  out.notes.emplace_back(note);
}

RunResult record(const Options& options) {
  ScratchDir dir(options.workDir, "sweep-mcu-record");
  const fs::path store = dir.path() / "store";
  fillStore(store);
  std::map<std::string, std::string> digests;
  for (const core::FlowJob& job : paperJobs("full", "mcu")) {
    digests[jobKey(job)] = digestOf(runJob(job, store));
  }
  writeExpectedTable(*options.recordPath,
                     "sweep-mcu: flow-report v1 digest of every paper job",
                     digests);
  RunResult out;
  out.attempted = digests.size();
  return out;
}

RunResult traced(const Options& options) {
  ScratchDir dir(options.workDir, "sweep-mcu-trace");
  const ExpectedTable expected = loadExpected(options);
  RunResult out;
  LayerReport layers;
  SpanRecorder& spans = SpanRecorder::global();
  const core::FlowConfig config = core::makeFlowConfig(mcuJob());

  // Set-up replayed at 1 thread; the N-thread replay is the main replica's.
  parallel::setThreadCount(1);
  spans.setEnabled(true);
  std::string statAtOne;
  {
    FlowReplica replica(config, nullptr);
    replica.setUp(-1);
    statAtOne = statLibraryDigest(replica.statLibrary());
  }
  const double mcAtOne = spans.totals()["charlib.mc"].first;
  spans.clear();
  spans.setEnabled(false);
  parallel::setThreadCount(options.threads);

  // Reference: the real flow, untraced, with the program's counters on.
  std::vector<core::FlowJob> jobs = seededJobs(options.seed);
  jobs.resize(kTracedJobs);
  obs::MetricsRegistry::global().resetValues();
  obs::setMetricsEnabled(true);
  const fs::path flowStore = dir.path() / "flow";
  fillStore(flowStore);
  std::vector<std::string> reference;
  double referenceSeconds = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const core::FlowJob& job : jobs) {
      const Clock::time_point start = Clock::now();
      const std::string report = runJob(job, flowStore);
      referenceSeconds += secondsSince(start);
      const std::string digest = digestOf(report);
      checkExpected(out, expected, jobKey(job), digest);
      reference.push_back(digest);
    }
  }
  obs::setMetricsEnabled(false);
  layers.setCounters(obs::MetricsRegistry::global().snapshot());

  // Replica: the same set-up and jobs, one span per module call.
  spans.setEnabled(true);
  artifact::ArtifactStore replicaStore(dir.path() / "replica");
  FlowReplica replica(config, &replicaStore);
  inSpan("setup", -1, [&] { replica.setUp(-1); });
  if (statLibraryDigest(replica.statLibrary()) != statAtOne) {
    out.fail("statistical library differs between 1 and " +
             std::to_string(options.threads) + " threads");
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const core::FlowJob& job = jobs[i % jobs.size()];
    const auto id = static_cast<long>(i);
    const std::string digest =
        digestOf(inSpan("flow.job", id, [&] { return replica.run(job, id); }));
    if (digest != reference[i]) {
      out.fail(jobKey(job) + ": replica report differs from runFlowJob");
    }
  }
  spans.setEnabled(false);

  layers.setSpanTimes();
  const ReplicaCounts& counts = replica.counts();
  layers.set("netlist.gates", static_cast<double>(counts.gates));
  layers.set("lint.findings", static_cast<double>(counts.lintFindings));
  layers.set("synth.resizes", static_cast<double>(counts.resizes));
  layers.set("synth.buffers", static_cast<double>(counts.buffers));
  const double replicaSeconds = spans.totals()["flow.job"].first;
  layers.set("core.unattributed_s",
             referenceSeconds - spans.childSeconds("flow.job"));
  layers.set("trace.overhead_s", replicaSeconds - referenceSeconds);
  layers.set("scale.charlib.mc", mcAtOne / spans.totals()["charlib.mc"].first);
  noteSpanTable(out);
  spans.write(options.workDir / ("spans-sweep-mcu-seed" +
                                 std::to_string(options.seed) + ".tsv"));
  layers.emit(out);
  return out;
}

}  // namespace

RunResult runSweepMcu(const Options& options) {
  if (options.recordPath) return record(options);
  if (options.trace) return traced(options);

  ScratchDir dir(options.workDir, "sweep-mcu");
  const ExpectedTable expected = loadExpected(options);
  RunResult out;

  std::vector<double> setups;
  fs::path store;
  for (int i = 0; i < kSetups; ++i) {
    if (!store.empty()) fs::remove_all(store);
    store = dir.path() / ("store" + std::to_string(i));
    const Clock::time_point start = Clock::now();
    fillStore(store);
    setups.push_back(secondsSince(start));
  }

  const std::vector<core::FlowJob> jobs = seededJobs(options.seed);
  std::map<std::string, std::string> passA;
  std::map<double, std::vector<double>> cold;  ///< by clock period
  std::map<double, std::vector<double>> warm;
  std::vector<double> all;
  const auto runTimed = [&](const core::FlowJob& job,
                            std::map<double, std::vector<double>>& samples)
      -> std::optional<std::string> {
    const Clock::time_point start = Clock::now();
    try {
      const std::string report = runJob(job, store);
      samples[job.period].push_back(secondsSince(start));
      all.push_back(samples[job.period].back());
      return digestOf(report);
    } catch (const std::exception& error) {
      out.count(false, jobKey(job) + ": " + error.what());
      return std::nullopt;
    }
  };

  const Clock::time_point start = Clock::now();
  for (const core::FlowJob& job : jobs) {
    if (const std::optional<std::string> digest = runTimed(job, cold)) {
      passA[jobKey(job)] = *digest;
      checkExpected(out, expected, jobKey(job), *digest);
    }
  }
  // Pass B runs twice, so two thirds of the jobs are warm and the median
  // over all jobs sits inside the warm population, not on its border.
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    for (const core::FlowJob& job : jobs) {
      if (const std::optional<std::string> digest = runTimed(job, warm)) {
        out.count(passA.count(jobKey(job)) != 0 && passA[jobKey(job)] == *digest,
                  jobKey(job) + ": pass B report differs from pass A");
      }
    }
  }
  const double elapsed = secondsSince(start);

  out.add("setup_s", median(setups), "s");
  addFlowLatency(out, "flow_cold", cold);
  addFlowLatency(out, "flow_warm", warm);
  addLatency(out, "req", {all}, 1e3, "ms");
  out.add("req_per_s", static_cast<double>(all.size()) / elapsed, "1/s");
  out.add("peak_rss_mb", peakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
