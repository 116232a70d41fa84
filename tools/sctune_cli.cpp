// sctune — command-line driver for the library-tuning flow.
//
// Subcommands (artifacts are the repository's text formats, so stages can
// run in separate invocations, like the tool hand-offs in the paper):
//
//   sctune characterize --out lib.lib [--corner TT|SS|FF] [--mc N --seed S
//                        --stat-out stat.slib]
//   sctune generate     --design mcu|dsp|accumulator --out design.v
//   sctune tune         --stat stat.slib --method <name> --value <v>
//                        --out constraints.txt [--script constraints.tcl]
//   sctune synth        --lib lib.lib --design <name|netlist.v>
//                        --period <ns> [--constraints c.txt] [--out out.v]
//   sctune report       --lib lib.lib --stat stat.slib
//                        --netlist out.v --period <ns>
//   sctune lint         <artifact> [--type lib|stat|netlist|constraints]
//                        [--ref nominal.lib] [--json | --sarif] [--out file]
//   sctune flow         --period <ns> [--method <name> --value <v>]
//                        [--profile small|full] [--cache-dir DIR | --no-cache]
//                        [--cache-stats] [--lint-mode error|warn|off]
//                        [--report out.txt]
//   sctune scenario     --period <ns> | --periods a,b,c [--scenarios LIST]
//                        [--trials N] [--json] + the flow flags
//   sctune evolve       --period <ns> [--population N --generations G]
//                        [--objectives LIST] [--json] + the flow flags
//   sctune client <op>  --socket PATH | --tcp-port N, <op> one of
//                        flow|scenario|evolve|lint|sta|ping|health|shutdown
//   sctune cache stats  --cache-dir DIR
//   sctune cache gc     --cache-dir DIR [--max-bytes N] [--max-age seconds]
//
// Methods: strength-load, strength-slew, cell-load, cell-slew,
//          sigma-ceiling.
//
// `flow` runs the whole pipeline in-process on top of the content-addressed
// artifact store (SCT_CACHE_DIR is the --cache-dir default): a warm rerun
// loads every stage artifact instead of recomputing, and its --report file
// is byte-identical to the cold run's. `flow`, `scenario` and `evolve` parse
// their flags into the daemon's request structs and run them through the
// daemon's runners, so `client <op>` answers byte-identically.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "artifact/store.hpp"
#include "charlib/characterizer.hpp"
#include "core/env.hpp"
#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "server/client.hpp"
#include "server/jobs.hpp"
#include "lint/engine.hpp"
#include "lint/loaded_artifact.hpp"
#include "lint/report_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "postsi/scenario.hpp"
#include "sta/report.hpp"
#include "netlist/dsp.hpp"
#include "netlist/noc.hpp"
#include "netlist/random.hpp"
#include "netlist/verilog_io.hpp"
#include "statlib/stat_io.hpp"
#include "tuning/constraints_io.hpp"
#include "variation/path_stats.hpp"
#include "variation/ssta.hpp"

namespace {

using namespace sct;

/// The flags one command reads: `--name value` pairs and valueless
/// `--name` switches.
struct FlagSpec {
  std::vector<std::string> values;
  std::vector<std::string> booleans;
};

/// Minimal --flag value parser over a command's FlagSpec. A flag outside
/// the spec is an error naming it, raised before the command runs; reading
/// a flag the spec does not declare is a bug in this file (logic_error).
/// `start` skips the command (and subcommand) words.
class Args {
 public:
  Args(int argc, char** argv, int start, const std::string& command,
       FlagSpec spec)
      : spec_(std::move(spec)) {
    for (int i = start; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::runtime_error(std::string("expected flag, got ") + argv[i]);
      }
      const std::string name = argv[i] + 2;
      if (contains(spec_.booleans, name)) {
        values_[name] = "1";
        continue;
      }
      if (!contains(spec_.values, name)) {
        throw std::runtime_error("unknown flag --" + name + " for `sctune " +
                                 command + "`");
      }
      if (i + 1 >= argc) {
        throw std::runtime_error("flag --" + name + " needs a value");
      }
      values_[name] = argv[++i];
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    declared(key);
    return values_.contains(key);
  }
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    declared(key);
    const auto it = values_.find(key);
    return it != values_.end() ? std::optional(it->second) : std::nullopt;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) throw std::runtime_error("missing required flag --" + key);
    return *v;
  }
  /// Strict finite real (env::parseReal); garbage throws naming the flag.
  [[nodiscard]] double requireReal(const std::string& key) const {
    return env::parseReal("--" + key, require(key));
  }
  [[nodiscard]] double getReal(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? env::parseReal("--" + key, *v) : fallback;
  }
  /// Strict digits-only count (env::parseCount); garbage, a sign or a value
  /// above `max` throws naming the flag.
  [[nodiscard]] std::uint64_t getUint(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const auto v = get(key);
    return v ? env::parseCount("--" + key, *v, max) : fallback;
  }

 private:
  static bool contains(const std::vector<std::string>& names,
                       const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  }
  void declared(const std::string& key) const {
    if (!contains(spec_.values, key) && !contains(spec_.booleans, key)) {
      throw std::logic_error("flag --" + key + " is read but not declared");
    }
  }

  FlagSpec spec_;
  std::map<std::string, std::string> values_;
};

// ---- observability wiring (DESIGN.md §12) --------------------------------

/// What --trace-out/--metrics-out/--obs-off (plus the SCT_TRACE/SCT_METRICS
/// variables) resolved to. Tracing/metrics stay globally off unless asked
/// for; --obs-off wins over everything, pinning one side of the
/// bit-identity comparison the flow tests make.
struct ObsOptions {
  bool tracing = false;
  bool metrics = false;
  std::string traceOut;
  std::string metricsOut;
};

ObsOptions setupObservability(const Args& args) {
  ObsOptions opts;
  if (!args.has("obs-off")) {
    opts.traceOut = args.get("trace-out").value_or("");
    opts.metricsOut = args.get("metrics-out").value_or("");
    opts.tracing =
        !opts.traceOut.empty() ||
        env::parseFlag("SCT_TRACE", env::get("SCT_TRACE").value_or(""), false);
    opts.metrics = !opts.metricsOut.empty() ||
                   env::parseFlag("SCT_METRICS",
                                  env::get("SCT_METRICS").value_or(""), false);
  }
  obs::setTracingEnabled(opts.tracing);
  obs::setMetricsEnabled(opts.metrics);
  return opts;
}

/// Writes the requested exporter files once the command finished.
void finishObservability(const ObsOptions& opts) {
  if (opts.tracing && !opts.traceOut.empty()) {
    std::ofstream out(opts.traceOut);
    if (!out) throw std::runtime_error("cannot open " + opts.traceOut);
    const obs::TraceSnapshot snapshot = obs::traceSnapshot();
    obs::writeChromeTrace(out, snapshot);
    std::printf("wrote %s (%zu spans%s)\n", opts.traceOut.c_str(),
                snapshot.events.size(),
                snapshot.dropped > 0 ? ", some dropped" : "");
  }
  if (opts.metrics && !opts.metricsOut.empty()) {
    std::ofstream out(opts.metricsOut);
    if (!out) throw std::runtime_error("cannot open " + opts.metricsOut);
    obs::writeMetricsJson(out, obs::MetricsRegistry::global().snapshot());
    std::printf("wrote %s\n", opts.metricsOut.c_str());
  }
}

/// Per-stage timing / cache-hit table, read back out of the metrics
/// snapshot. Goes to stdout only — never into the --report file, whose
/// bytes must not depend on whether observability is on.
void printStageTable(const obs::MetricsSnapshot& snapshot) {
  std::printf("%-10s %10s %7s %5s %7s %7s\n", "stage", "time_ms", "probes",
              "hits", "misses", "stores");
  for (const char* stage : {"nominal", "stat", "subject", "tune", "synth",
                            "measure", "lint"}) {
    const std::string prefix = std::string("flow.stage.") + stage + ".";
    if (!snapshot.hasCounter(prefix + "ns") &&
        !snapshot.hasCounter(prefix + "probes")) {
      continue;
    }
    std::printf(
        "%-10s %10.2f %7llu %5llu %7llu %7llu\n", stage,
        static_cast<double>(snapshot.counterValue(prefix + "ns")) / 1e6,
        static_cast<unsigned long long>(
            snapshot.counterValue(prefix + "probes")),
        static_cast<unsigned long long>(snapshot.counterValue(prefix + "hits")),
        static_cast<unsigned long long>(
            snapshot.counterValue(prefix + "misses")),
        static_cast<unsigned long long>(
            snapshot.counterValue(prefix + "stores")));
    if (std::strcmp(stage, "measure") != 0) continue;
    // Inner phases of a computed measurement (absent on a warm hit).
    for (const char* phase : {"sta", "paths", "path_stats", "power"}) {
      const std::string name = std::string("flow.measure.") + phase + ".ns";
      if (!snapshot.hasCounter(name)) continue;
      std::printf("  %-10s %8.2f\n", phase,
                  static_cast<double>(snapshot.counterValue(name)) / 1e6);
    }
  }
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << contents;
  std::printf("wrote %s (%.1f KB)\n", path.c_str(),
              static_cast<double>(contents.size()) / 1024.0);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

charlib::ProcessCorner cornerByName(const std::string& name) {
  if (name == "TT") return charlib::ProcessCorner::typical();
  if (name == "SS") return charlib::ProcessCorner::slow();
  if (name == "FF") return charlib::ProcessCorner::fast();
  throw std::runtime_error("unknown corner '" + name + "' (TT/SS/FF)");
}

// One method-name dictionary for CLI and daemon (core/flow_job.hpp).
tuning::TuningMethod methodByName(const std::string& name) {
  return core::tuningMethodByName(name);
}

netlist::Design designByName(const std::string& name,
                             const liberty::Library* library) {
  if (name == "mcu") return netlist::generateMcu();
  if (name == "dsp") return netlist::generateDsp();
  if (name == "noc") return netlist::buildNocRouter();
  if (name == "big") {
    // The flow's 10x-paper-size subject (core::FlowConfig::big defaults).
    return netlist::generateRandomDag({.primaryInputs = 64,
                                       .gates = 200,
                                       .flipFlops = 16,
                                       .primaryOutputs = 64,
                                       .scale = 1000,
                                       .seed = 1});
  }
  if (name == "accumulator") return netlist::generateAccumulator(16);
  // Otherwise: a structural Verilog file.
  std::ifstream in(name);
  if (!in) throw std::runtime_error("no built-in design or file '" + name + "'");
  return netlist::readVerilog(in, library);
}

int cmdCharacterize(const Args& args) {
  const charlib::Characterizer characterizer;
  const auto corner = cornerByName(args.get("corner").value_or("TT"));
  const liberty::Library library = characterizer.characterizeNominal(corner);
  writeFile(args.require("out"), liberty::writeLibraryToString(library));
  if (const auto statOut = args.get("stat-out")) {
    const std::size_t n = args.getUint("mc", 50);
    const std::uint64_t seed = args.getUint("seed", 2014);
    std::printf("characterizing %zu Monte-Carlo library instances...\n", n);
    const auto instances = characterizer.characterizeMonteCarlo(corner, n, seed);
    const statlib::StatLibrary stat = statlib::buildStatLibrary(instances);
    writeFile(*statOut, statlib::writeStatLibraryToString(stat));
  }
  return 0;
}

int cmdGenerate(const Args& args) {
  const netlist::Design design = designByName(args.require("design"), nullptr);
  std::printf("generated '%s': %zu gates\n", design.name().c_str(),
              design.gateCount());
  writeFile(args.require("out"), netlist::writeVerilogToString(design));
  return 0;
}

int cmdTune(const Args& args) {
  const statlib::StatLibrary stat =
      statlib::readStatLibraryFromString(readFile(args.require("stat")));
  const tuning::TuningConfig config = tuning::TuningConfig::forMethod(
      methodByName(args.require("method")), args.requireReal("value"));
  const tuning::LibraryConstraints constraints =
      tuning::tuneLibrary(stat, config);
  std::printf("tuned %zu cells (%zu unusable)\n", constraints.size(),
              constraints.unusableCellCount());
  writeFile(args.require("out"), tuning::writeConstraintsToString(constraints));
  if (const auto script = args.get("script")) {
    writeFile(*script,
              tuning::writeSynthesisScriptToString(constraints, stat.name()));
  }
  return 0;
}

int cmdSynth(const Args& args) {
  const liberty::Library library =
      liberty::readLibraryFromString(readFile(args.require("lib")));
  std::optional<tuning::LibraryConstraints> constraints;
  if (const auto path = args.get("constraints")) {
    constraints = tuning::readConstraintsFromString(readFile(*path));
  }
  const netlist::Design subject =
      designByName(args.require("design"), nullptr);
  sta::ClockSpec clock;
  clock.period = args.requireReal("period");
  const synth::Synthesizer synthesizer(
      library, constraints ? &*constraints : nullptr);
  const synth::SynthesisResult result = synthesizer.run(subject, clock);
  std::printf("synthesis: %s | wns %+.4f ns | area %.0f um^2 | %zu gates | "
              "%zu buffers | %zu resizes\n",
              result.success() ? "MET" : "FAILED", result.worstSlack,
              result.area, result.design.gateCount(), result.buffersInserted,
              result.resizes);
  if (const auto out = args.get("out")) {
    writeFile(*out, netlist::writeVerilogToString(result.design));
  }
  return result.success() ? 0 : 2;
}

int cmdReport(const Args& args) {
  const liberty::Library library =
      liberty::readLibraryFromString(readFile(args.require("lib")));
  const statlib::StatLibrary stat =
      statlib::readStatLibraryFromString(readFile(args.require("stat")));
  std::ifstream netIn(args.require("netlist"));
  if (!netIn) throw std::runtime_error("cannot open netlist");
  const netlist::Design design = netlist::readVerilog(netIn, &library);
  sta::ClockSpec clock;
  clock.period = args.requireReal("period");
  sta::TimingAnalyzer sta(design, library, clock);
  if (!sta.analyze()) throw std::runtime_error("timing analysis failed");

  const auto paths = sta.endpointWorstPaths();
  const variation::PathStatistics stats(stat);
  const variation::DesignStats designStats = stats.designStats(paths);
  const variation::SstaResult ssta = variation::runSsta(design, sta, stat);

  std::printf("design %s @ %.3f ns\n", design.name().c_str(), clock.period);
  std::printf("  gates %zu, area %.0f um^2\n", design.gateCount(),
              design.totalArea());
  std::printf("  setup: wns %+.4f ns (%s); hold: %+.4f ns (%s)\n",
              sta.worstSlack(), sta.met() ? "met" : "VIOLATED",
              sta.worstHoldSlack(), sta.holdMet() ? "met" : "VIOLATED");
  std::printf("  per-path statistics (paper eq. 11): design sigma %.4f ns "
              "over %zu endpoint paths\n",
              designStats.sigma, designStats.paths);
  std::printf("  SSTA: critical delay %.4f +- %.4f ns, expected failing "
              "endpoints %.3g, timing yield %.4f\n",
              ssta.designArrival.mean, ssta.designArrival.sigma,
              ssta.expectedFailures, ssta.timingYield);
  if (const auto reportOut = args.get("out")) {
    std::ofstream file(*reportOut);
    if (!file) throw std::runtime_error("cannot open " + *reportOut);
    sta::writeTimingReport(file, design, sta);
    std::printf("wrote full timing report to %s\n", reportOut->c_str());
  } else {
    std::printf("\n");
    std::ostringstream report;
    sta::writeTimingReport(report, design, sta);
    std::fputs(report.str().c_str(), stdout);
  }
  return 0;
}

// ---- lint ----------------------------------------------------------------

/// `sctune lint <artifact>`: parse one text artifact, run the matching rule
/// pack(s), and render the report as text (default), JSON or SARIF. Exit
/// code 0 = no error-severity findings, 3 = errors found; parse failures
/// report through the generic error path (exit 1).
int cmdLint(const std::string& path, const Args& args) {
  std::string type;
  if (const auto explicitType = args.get("type")) {
    type = *explicitType;
  } else {
    const std::string ext = std::filesystem::path(path).extension().string();
    if (ext == ".lib") type = "lib";
    else if (ext == ".slib") type = "stat";
    else if (ext == ".v") type = "netlist";
    else if (ext == ".txt" || ext == ".constraints") type = "constraints";
    else {
      throw std::runtime_error(
          "cannot infer artifact type of '" + path +
          "'; pass --type lib|stat|netlist|constraints");
    }
  }

  // Optional nominal library for the cross-checking rules (stat grids,
  // netlist cell binding, constraint targets/ranges).
  std::optional<liberty::Library> reference;
  if (const auto refPath = args.get("ref")) {
    reference.emplace(liberty::readLibraryFromString(readFile(*refPath)));
  }

  const lint::LoadedArtifact artifact(type, readFile(path),
                                      reference ? &*reference : nullptr);

  const lint::LintEngine engine = lint::LintEngine::withAllRules();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const bool timed = obs::metricsEnabled();
  const std::uint64_t lintStart = timed ? obs::monotonicNanos() : 0;
  lint::LintReport report;
  {
    SCT_TRACE_SPAN("lint.run");
    report = engine.run(artifact.subject());
  }
  if (timed) {
    registry.counter("lint.runs").inc();
    registry.counter("lint.ns").add(obs::monotonicNanos() - lintStart);
    registry.counter("lint.diagnostics").add(report.diagnostics().size());
  }

  std::string rendered;
  if (args.has("sarif")) {
    rendered = lint::writeSarifToString(report, &engine);
  } else if (args.has("json")) {
    rendered = lint::writeJsonToString(report);
  } else {
    rendered = lint::writeTextToString(report);
  }
  if (const auto out = args.get("out")) {
    writeFile(*out, rendered);
    std::printf("lint: %s\n", report.summary().c_str());
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return report.hasErrors() ? 3 : 0;
}

// ---- resumable flow + cache maintenance ----------------------------------

std::filesystem::path cacheRoot(const Args& args) {
  if (const auto dir = args.get("cache-dir")) return *dir;
  if (const auto env = env::get("SCT_CACHE_DIR")) return *env;
  throw std::runtime_error("need --cache-dir (or the SCT_CACHE_DIR variable)");
}

core::FlowConfig makeFlowConfigFor(const core::FlowJob& job,
                                   const Args& args) {
  core::FlowConfig config = core::makeFlowConfig(job);
  if (!args.has("no-cache")) {
    if (const auto dir = args.get("cache-dir")) {
      config.cacheDir = *dir;
    } else if (const auto env = env::get("SCT_CACHE_DIR")) {
      config.cacheDir = *env;
    }
  }
  return config;
}

// ---- request parsers -----------------------------------------------------
//
// One parser per request kind, shared by the local command and `sctune
// client <op>`: both paths build the same request struct, so they run the
// same job (and the daemon derives the same cache key).

/// The FlowJob flags of the job kinds. --period is left 0 (each kind reads
/// its own clock periods); evolve explores the method space itself, so it
/// takes no --method/--value.
core::FlowJob flowJobFromArgs(const Args& args, bool withMethod) {
  core::FlowJob job;
  job.profile = args.get("profile").value_or("full");
  job.workload = args.get("workload").value_or(job.workload);
  if (withMethod) {
    if (const auto method = args.get("method")) {
      job.method = *method;
      job.value = args.requireReal("value");
    }
  }
  job.mcCount = args.getUint("mc", 0);  // 0 = profile default
  job.mcSeed = args.getUint("seed", job.mcSeed);
  job.lintMode = args.get("lint-mode").value_or("error");
  return job;
}

void parseArgs(const Args& args, server::FlowRequest& r) {
  r.job = flowJobFromArgs(args, true);
  r.job.period = args.requireReal("period");
}

void parseArgs(const Args& args, server::ScenarioRequest& r) {
  r.job = flowJobFromArgs(args, true);
  if (const auto list = args.get("periods")) {
    std::stringstream stream(*list);
    std::string token;
    while (std::getline(stream, token, ',')) {
      if (token.empty()) continue;
      r.periods.push_back(env::parseReal("--periods", token));
    }
  } else {
    // Paper protocol: the four clock periods as ratios of a base period.
    r.periods = postsi::paperPeriods(args.requireReal("period"));
  }
  r.scenarios = args.get("scenarios").value_or(r.scenarios);
  r.element.rangeMin = args.getReal("tune-range-min", r.element.rangeMin);
  r.element.rangeMax = args.getReal("tune-range-max", r.element.rangeMax);
  r.element.step = args.getReal("tune-step", r.element.step);
  r.element.areaPerElement =
      args.getReal("tune-area", r.element.areaPerElement);
  r.mcTrials = args.getUint("trials", 0);  // 0 = profile default
  r.mcSeed = r.job.mcSeed;
}

void parseArgs(const Args& args, server::EvolveRequest& r) {
  r.job = flowJobFromArgs(args, false);
  r.job.period = args.requireReal("period");
  r.params.population = args.getUint("population", r.params.population);
  r.params.generations = args.getUint("generations", r.params.generations);
  r.params.objectives = args.get("objectives").value_or(r.params.objectives);
  r.params.geneMin = args.getReal("gene-min", r.params.geneMin);
  r.params.geneMax = args.getReal("gene-max", r.params.geneMax);
  r.params.seed = args.getUint("evo-seed", r.params.seed);
}

void parseArgs(const Args& args, server::LintRequest& r) {
  r.artifactType = args.require("type");
  r.content = readFile(args.require("path"));
}

void parseArgs(const Args& args, server::StaRequest& r) {
  r.libraryText = readFile(args.require("lib"));
  r.netlistText = readFile(args.require("netlist"));
  r.period = args.requireReal("period");
}

void parseArgs(const Args& args, server::PingRequest& r) {
  r.echo = args.get("echo").value_or("");
  r.sleepMillis = args.getUint("sleep-ms", 0);
}

// The flags each parser above reads (plus --json where the request has
// it, see requestFromArgs).
std::vector<std::string> jobFlags(bool withMethod,
                                  std::vector<std::string> extra) {
  extra.insert(extra.end(), {"profile", "workload", "mc", "seed", "lint-mode"});
  if (withMethod) extra.insert(extra.end(), {"method", "value"});
  return extra;
}

FlagSpec requestFlags(std::type_identity<server::FlowRequest>) {
  return {.values = jobFlags(true, {"period"})};
}

FlagSpec requestFlags(std::type_identity<server::ScenarioRequest>) {
  return {.values = jobFlags(true, {"period", "periods", "scenarios",
                                    "tune-range-min", "tune-range-max",
                                    "tune-step", "tune-area", "trials"})};
}

FlagSpec requestFlags(std::type_identity<server::EvolveRequest>) {
  return {.values = jobFlags(false, {"period", "population", "generations",
                                     "objectives", "gene-min", "gene-max",
                                     "evo-seed"})};
}

FlagSpec requestFlags(std::type_identity<server::LintRequest>) {
  return {.values = {"type", "path"}};
}

FlagSpec requestFlags(std::type_identity<server::StaRequest>) {
  return {.values = {"lib", "netlist", "period"}};
}

FlagSpec requestFlags(std::type_identity<server::PingRequest>) {
  return {.values = {"echo", "sleep-ms"}};
}

template <class R>
FlagSpec requestFlagSpec() {
  FlagSpec spec = requestFlags(std::type_identity<R>{});
  if constexpr (requires(R request) { request.json; }) {
    spec.booleans.emplace_back("json");
  }
  return spec;
}

template <class R>
R requestFromArgs(const Args& args) {
  R request;
  parseArgs(args, request);
  if constexpr (requires { request.json; }) request.json = args.has("json");
  return request;
}

void printCacheStats(const core::TuningFlow& flow) {
  if (const artifact::ArtifactStore* store = flow.cache()) {
    const artifact::StoreStats& s = store->stats();
    const auto [files, bytes] = store->diskUsage();
    std::printf(
        "cache %s: %zu hits, %zu misses, %zu corrupt, %zu stores; "
        "%.1f KB read, %.1f KB written; %zu entries / %.1f KB on disk\n",
        store->root().c_str(), s.hits.load(), s.misses.load(),
        s.corrupt.load(), s.stores.load(),
        static_cast<double>(s.bytesRead.load()) / 1024.0,
        static_cast<double>(s.bytesWritten.load()) / 1024.0, files,
        static_cast<double>(bytes) / 1024.0);
  } else {
    std::printf("cache: disabled\n");
  }
}

/// The local job command's flags: its request's plus the cache and report
/// flags the command itself reads.
template <class R>
FlagSpec jobCommandFlags() {
  FlagSpec spec = requestFlagSpec<R>();
  spec.values.insert(spec.values.end(), {"cache-dir", "report"});
  spec.booleans.emplace_back("no-cache");
  if constexpr (std::is_same_v<R, server::FlowRequest>) {
    spec.booleans.emplace_back("cache-stats");
  }
  return spec;
}

/// `sctune flow|scenario|evolve`: the job runs through the same runner the
/// daemon uses (server::runJob), so the --report file and a `client <op>
/// --report` file are byte-identical by construction. Exit code 2 when the
/// job fails (flow misses timing, evolve finds no feasible point).
template <class R>
int cmdJob(const Args& args) {
  constexpr bool isFlow = std::is_same_v<R, server::FlowRequest>;
  const R request = requestFromArgs<R>(args);
  core::TuningFlow flow(makeFlowConfigFor(request.job, args));
  const server::JobResult result = server::runJob(request, flow);
  std::printf("%s\n", result.summary.c_str());
  if (const auto out = args.get("report")) {
    writeFile(*out, result.body);
  } else if (!isFlow) {
    std::fputs(result.body.c_str(), stdout);
  }
  if (isFlow && obs::metricsEnabled()) {
    printStageTable(obs::MetricsRegistry::global().snapshot());
  }
  if (isFlow && args.has("cache-stats")) printCacheStats(flow);
  return result.success ? 0 : 2;
}

int cmdCacheStats(const Args& args) {
  const artifact::ArtifactStore store(cacheRoot(args));
  const auto [files, bytes] = store.diskUsage();
  if (args.has("json")) {
    // Summaries route through the same deterministic exporter the flow's
    // --metrics-out uses (gauges record even while metrics are off).
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.gauge("cache.entries").set(static_cast<double>(files));
    registry.gauge("cache.bytes").set(static_cast<double>(bytes));
    obs::writeMetricsJson(std::cout, registry.snapshot());
    return 0;
  }
  std::printf("cache %s: %zu entries, %.1f KB\n", store.root().c_str(), files,
              static_cast<double>(bytes) / 1024.0);
  return 0;
}

int cmdCacheGc(const Args& args) {
  artifact::GcPolicy policy;
  policy.maxBytes = args.getUint("max-bytes", 0);
  policy.maxAgeSeconds = args.getUint("max-age", 0);
  artifact::ArtifactStore store(cacheRoot(args));
  const artifact::GcResult r = store.gc(policy);
  if (args.has("json")) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.gauge("cache.gc.files_removed")
        .set(static_cast<double>(r.filesRemoved));
    registry.gauge("cache.gc.bytes_removed")
        .set(static_cast<double>(r.bytesRemoved));
    registry.gauge("cache.gc.files_kept").set(static_cast<double>(r.filesKept));
    registry.gauge("cache.gc.bytes_kept").set(static_cast<double>(r.bytesKept));
    obs::writeMetricsJson(std::cout, registry.snapshot());
    return 0;
  }
  std::printf(
      "cache gc %s: removed %zu entries (%.1f KB), kept %zu (%.1f KB)\n",
      store.root().c_str(), r.filesRemoved,
      static_cast<double>(r.bytesRemoved) / 1024.0, r.filesKept,
      static_cast<double>(r.bytesKept) / 1024.0);
  return 0;
}

// ---- daemon client -------------------------------------------------------

/// Connection target for `sctune client`: --socket (Unix-domain path, also
/// the SCT_SOCKET variable) or --tcp-port (127.0.0.1 loopback).
server::Client connectClient(const Args& args) {
  if (const auto port = args.get("tcp-port")) {
    return server::Client::connectTcp(static_cast<std::uint16_t>(
        env::parseCount("--tcp-port", *port, UINT16_MAX)));
  }
  if (const auto path = args.get("socket")) {
    return server::Client::connectUnix(*path);
  }
  if (const auto env = env::get("SCT_SOCKET")) {
    return server::Client::connectUnix(*env);
  }
  throw std::runtime_error(
      "need --socket PATH or --tcp-port N (or the SCT_SOCKET variable)");
}

/// Renders one daemon response like the equivalent local command would:
/// summary to stdout, body to --report/--out or stdout. Exit codes: 0 ok,
/// 1 error, 4 busy, 5 deadline expired, 6 server shutting down.
int finishClientCall(const server::Response& response, const Args& args) {
  if (!response.summary.empty()) {
    std::printf("%s\n", response.summary.c_str());
  }
  if (!response.body.empty()) {
    std::optional<std::string> out = args.get("report");
    if (!out) out = args.get("out");
    if (out) {
      writeFile(*out, response.body);
    } else {
      std::fputs(response.body.c_str(), stdout);
    }
  }
  switch (response.status) {
    case server::Status::kOk: return 0;
    case server::Status::kBusy: return 4;
    case server::Status::kTimeout: return 5;
    case server::Status::kShuttingDown: return 6;
    case server::Status::kError:
    default: return 1;
  }
}

/// `sctune client` ops; one list for the usage text and the errors.
constexpr const char* kClientOps =
    "flow|scenario|evolve|lint|sta|ping|health|shutdown";

template <class R>
int sendRequest(server::Client& client, const Args& args) {
  R request = requestFromArgs<R>(args);
  request.deadlineMillis = args.getUint("deadline-ms", 0);
  return finishClientCall(client.send(request), args);
}

/// The flags of `sctune client <op>`. An unknown op throws here, before
/// anything connects.
FlagSpec clientFlags(const std::string& op) {
  FlagSpec spec;
  if (op != "health" && op != "shutdown" &&
      !server::anyRequestKind([&]<class R>(std::type_identity<R>) {
        if (op != R::kName) return false;
        spec = requestFlagSpec<R>();
        spec.values.emplace_back("deadline-ms");
        return true;
      })) {
    throw std::runtime_error("unknown client op '" + op + "' (" + kClientOps +
                             ")");
  }
  spec.values.insert(spec.values.end(), {"socket", "tcp-port", "report", "out"});
  return spec;
}

/// `op` was validated by clientFlags().
int cmdClient(const std::string& op, const Args& args) {
  server::Client client = connectClient(args);
  if (op == "health") return finishClientCall(client.health(), args);
  if (op == "shutdown") return finishClientCall(client.shutdown(), args);
  int code = 1;
  server::anyRequestKind([&]<class R>(std::type_identity<R>) {
    if (op != R::kName) return false;
    code = sendRequest<R>(client, args);
    return true;
  });
  return code;
}

int usage() {
  std::printf(
      "sctune — standard cell library tuning for variability tolerant "
      "designs\n\n"
      "usage: sctune <command> [--flag value ...]\n\n"
      "commands:\n"
      "  characterize  --out lib.lib [--corner TT] [--mc 50 --seed 2014\n"
      "                --stat-out stat.slib]\n"
      "  generate      --design mcu|dsp|noc|big|accumulator --out design.v\n"
      "  tune          --stat stat.slib --method sigma-ceiling --value 0.02\n"
      "                --out constraints.txt [--script constraints.tcl]\n"
      "  synth         --lib lib.lib --design <name|file.v> --period <ns>\n"
      "                [--constraints c.txt] [--out mapped.v]\n"
      "  report        --lib lib.lib --stat stat.slib --netlist mapped.v\n"
      "                --period <ns> [--out report.txt]\n"
      "  lint          <artifact> [--type lib|stat|netlist|constraints]\n"
      "                [--ref nominal.lib] [--json | --sarif] [--out file]\n"
      "                (type inferred from .lib/.slib/.v/.txt; exit 3 when\n"
      "                 error-severity findings exist)\n"
      "  flow          --period <ns> [--method <m> --value <v>]\n"
      "                [--workload mcu|dsp|noc|big]\n"
      "                [--profile small|full] [--mc N --seed S]\n"
      "                [--cache-dir DIR | --no-cache] [--cache-stats]\n"
      "                [--lint-mode error|warn|off] [--report report.txt]\n"
      "  scenario      --period <ns> | --periods a,b,c — post-silicon\n"
      "                scenario matrix (tuning/clock/buffers) at each period;\n"
      "                [--scenarios LIST] [--method <m> --value <v>]\n"
      "                [--profile small|full] [--trials N] [--tune-range-min\n"
      "                X --tune-range-max Y --tune-step S --tune-area A]\n"
      "                [--json] [--report report.txt] + flow cache flags\n"
      "  evolve        --period <ns> — multi-objective evolutionary window\n"
      "                tuner (NSGA-II over per-cluster sigma thresholds,\n"
      "                seeded with the five paper methods' sweep points);\n"
      "                [--workload mcu|dsp|noc|big] [--population N]\n"
      "                [--generations G] [--objectives sigma,area,power]\n"
      "                [--gene-min X --gene-max Y] [--evo-seed S]\n"
      "                [--profile small|full] [--json] [--report report.txt]\n"
      "                + flow cache flags\n"
      "  client <op>   --socket PATH | --tcp-port N — run <op> on a sctuned\n"
      "                daemon, <op> one of\n"
      "                %s:\n"
      "                flow, scenario and evolve take the local command's\n"
      "                flags; lint --path F --type T [--json]; sta --lib F\n"
      "                --netlist F --period <ns>; ping [--sleep-ms N\n"
      "                --echo TEXT]; all but health and shutdown accept\n"
      "                --deadline-ms N\n"
      "  cache stats   --cache-dir DIR [--json]\n"
      "  cache gc      --cache-dir DIR [--max-bytes N] [--max-age seconds]\n"
      "                [--json]\n\n"
      "flow and cache default --cache-dir to SCT_CACHE_DIR; warm flow reruns\n"
      "load every stage artifact and are bit-identical to cold runs.\n"
      "every command accepts --threads <N|serial|auto> (default: the\n"
      "SCT_THREADS environment variable); results do not depend on it.\n"
      "every command also accepts --trace-out trace.json (Chrome/Perfetto\n"
      "span trace), --metrics-out metrics.json and --obs-off; SCT_TRACE=1 /\n"
      "SCT_METRICS=1 enable collection without an output file. Observability\n"
      "never changes any numeric artifact. A flag the command does not read\n"
      "is an error.\n",
      kClientOps);
  return 1;
}

/// Every flag `sctune <command>` reads; nullopt for an unknown command.
std::optional<FlagSpec> commandFlags(const std::string& command,
                                     const std::string& clientOp) {
  FlagSpec spec;
  if (command == "characterize") {
    spec.values = {"out", "corner", "stat-out", "mc", "seed"};
  } else if (command == "generate") {
    spec.values = {"design", "out"};
  } else if (command == "tune") {
    spec.values = {"stat", "method", "value", "out", "script"};
  } else if (command == "synth") {
    spec.values = {"lib", "constraints", "design", "period", "out"};
  } else if (command == "report") {
    spec.values = {"lib", "stat", "netlist", "period", "out"};
  } else if (command == "lint") {
    spec = {.values = {"type", "ref", "out"}, .booleans = {"json", "sarif"}};
  } else if (command == "flow") {
    spec = jobCommandFlags<server::FlowRequest>();
  } else if (command == "scenario") {
    spec = jobCommandFlags<server::ScenarioRequest>();
  } else if (command == "evolve") {
    spec = jobCommandFlags<server::EvolveRequest>();
  } else if (command == "cache stats") {
    spec = {.values = {"cache-dir"}, .booleans = {"json"}};
  } else if (command == "cache gc") {
    spec = {.values = {"cache-dir", "max-bytes", "max-age"},
            .booleans = {"json"}};
  } else if (command == "client") {
    spec = clientFlags(clientOp);
  } else {
    return std::nullopt;
  }
  // Read by main() and setupObservability() for every command.
  spec.values.insert(spec.values.end(), {"threads", "trace-out", "metrics-out"});
  spec.booleans.emplace_back("obs-off");
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  int start = 2;
  std::string lintPath;
  if (command == "lint") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr, "lint needs an artifact file operand\n\n");
      return usage();
    }
    lintPath = argv[2];
    start = 3;
  }
  if (command == "cache") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr, "cache needs a subcommand (stats|gc)\n\n");
      return usage();
    }
    command = std::string("cache ") + argv[2];
    start = 3;
  }
  std::string clientOp;
  if (command == "client") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr, "client needs an op (%s)\n\n", kClientOps);
      return usage();
    }
    clientOp = argv[2];
    start = 3;
  }
  try {
    std::optional<FlagSpec> flags = commandFlags(command, clientOp);
    if (!flags) {
      std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
      return usage();
    }
    const Args args(argc, argv, start,
                    clientOp.empty() ? command : command + " " + clientOp,
                    std::move(*flags));
    // Worker-pool size for the parallelized kernels. The flag takes
    // precedence over SCT_THREADS; results are identical either way.
    if (const auto threads = args.get("threads")) {
      const std::size_t hw = std::thread::hardware_concurrency();
      parallel::setThreadCount(
          parallel::parseThreadSpec(*threads, hw > 1 ? hw : 0));
    }
    const ObsOptions obsOptions = setupObservability(args);
    int code = -1;
    if (command == "characterize") code = cmdCharacterize(args);
    else if (command == "generate") code = cmdGenerate(args);
    else if (command == "tune") code = cmdTune(args);
    else if (command == "synth") code = cmdSynth(args);
    else if (command == "report") code = cmdReport(args);
    else if (command == "lint") code = cmdLint(lintPath, args);
    else if (command == "flow") code = cmdJob<server::FlowRequest>(args);
    else if (command == "scenario") code = cmdJob<server::ScenarioRequest>(args);
    else if (command == "evolve") code = cmdJob<server::EvolveRequest>(args);
    else if (command == "cache stats") code = cmdCacheStats(args);
    else if (command == "cache gc") code = cmdCacheGc(args);
    else code = cmdClient(clientOp, args);  // commandFlags() admits no other
    finishObservability(obsOptions);
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
