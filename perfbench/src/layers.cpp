// Job universe helpers and the per-layer report shared by the workloads.

#include <cstdio>
#include <stdexcept>

#include "spans.hpp"
#include "tuning/methods.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct LayerDef {
  const char* name;
  const char* unit;
};

/// Keep in step with "per_layer" in BENCHMARK.json.
constexpr LayerDef kLayerMetrics[] = {
    {"charlib.nominal_s", "s"},
    {"charlib.mc_s", "s"},
    {"statlib.merge_s", "s"},
    {"charlib.mc.samples", "count"},
    {"netlist.generate_s", "s"},
    {"netlist.gates", "count"},
    {"tuning.tune_s", "s"},
    {"lint.run_s", "s"},
    {"lint.findings", "count"},
    {"synth.run_s", "s"},
    {"synth.resizes", "count"},
    {"synth.buffers", "count"},
    {"sta.update.calls", "count"},
    {"sta.update.full_fallbacks", "count"},
    {"sta.analyze_s", "s"},
    {"sta.paths_s", "s"},
    {"variation.path_stats_s", "s"},
    {"power.analyze_s", "s"},
    {"artifact.open_s", "s"},
    {"artifact.publish_s", "s"},
    {"artifact.hit_ratio", "ratio"},
    {"artifact.bytes_read", "B"},
    {"artifact.bytes_written", "B"},
    {"memcache.hits", "count"},
    {"server.ping_ms", "ms"},
    {"server.cache.hit_ratio", "ratio"},
    {"flow.singleflight.coalesced", "count"},
    {"server.rejects", "count"},
    {"evo.rtt_s", "s"},
    {"evo.unique_ratio", "ratio"},
    {"postsi.scenario_s", "s"},
    {"parallel.utilization", "ratio"},
    {"core.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
    {"scale.flow", "x"},
    {"scale.charlib.mc", "x"},
    {"scale.synth.run", "x"},
    {"scale.sta.analyze", "x"},
};

double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

}  // namespace

std::vector<core::FlowJob> paperJobs(const std::string& profile,
                                     const std::string& workload) {
  static const char* const kMethods[] = {"strength-load", "strength-slew",
                                         "cell-load", "cell-slew",
                                         "sigma-ceiling"};
  std::vector<core::FlowJob> jobs;
  for (const double period : kPaperPeriods) {
    core::FlowJob baseline;
    baseline.profile = profile;
    baseline.workload = workload;
    baseline.period = period;
    jobs.push_back(baseline);
    for (const char* method : kMethods) {
      for (const double value :
           tuning::sweepValues(core::tuningMethodByName(method))) {
        core::FlowJob job = baseline;
        job.method = method;
        job.value = value;
        jobs.push_back(job);
      }
    }
  }
  return jobs;
}

std::string jobKey(const core::FlowJob& job) {
  std::string key = job.profile + "/" + job.workload + "/" + numberKey(job.period);
  if (job.method.empty()) return key + "/baseline";
  return key + "/" + job.method + "/" + numberKey(job.value);
}

LayerReport::LayerReport() {
  for (const LayerDef& def : kLayerMetrics) values_[def.name] = 0.0;
}

void LayerReport::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("unknown per-layer metric " + name);
  }
  it->second = value;
}

void LayerReport::setSpanTimes() {
  for (const auto& [name, seconds] : SpanRecorder::global().selfSeconds()) {
    if (values_.count(name + "_s") != 0) set(name + "_s", seconds);
  }
}

void LayerReport::setCounters(const obs::MetricsSnapshot& s) {
  const auto c = [&](const char* name) {
    return static_cast<double>(s.counterValue(name));
  };
  for (const char* name :
       {"charlib.mc.samples", "sta.update.calls", "sta.update.full_fallbacks",
        "artifact.bytes_read", "artifact.bytes_written", "memcache.hits",
        "flow.singleflight.coalesced"}) {
    set(name, c(name));
  }
  set("artifact.hit_ratio",
      ratio(c("artifact.hits"), c("artifact.hits") + c("artifact.misses")));
  set("server.cache.hit_ratio",
      ratio(c("server.cache.hits"),
            c("server.cache.hits") + c("server.cache.misses")));
  set("parallel.utilization",
      ratio(c("parallel.workers.busy_ns"),
            c("parallel.workers.busy_ns") + c("parallel.workers.idle_ns")));
}

void LayerReport::emit(RunResult& out) const {
  for (const LayerDef& def : kLayerMetrics) {
    out.add(def.name, values_.at(def.name), def.unit);
  }
}

void noteSpanTable(RunResult& out) {
  const std::map<std::string, double> self = SpanRecorder::global().selfSeconds();
  out.notes.emplace_back("layer                       spans     total_s      self_s");
  for (const auto& [name, total] : SpanRecorder::global().totals()) {
    char line[160];
    std::snprintf(line, sizeof line, "%-26s %6zu %11.4f %11.4f", name.c_str(),
                  total.second, total.first, self.at(name));
    out.notes.emplace_back(line);
  }
}

}  // namespace perfbench
