#include "replica.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "artifact/codecs.hpp"
#include "artifact/hash.hpp"
#include "power/power_model.hpp"
#include "power/power_stats.hpp"
#include "spans.hpp"
#include "statlib/stat_library.hpp"
#include "synth/synthesis.hpp"
#include "tuning/constraints_io.hpp"
#include "tuning/restriction.hpp"
#include "variation/path_stats.hpp"

namespace perfbench {
namespace {

std::string fmt17(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

netlist::Design makeSubject(const core::FlowConfig& config) {
  if (config.workload == "dsp") return netlist::generateDsp(config.dsp);
  if (config.workload == "noc") return netlist::buildNocRouter(config.noc);
  if (config.workload == "big") return netlist::generateRandomDag(config.big);
  return netlist::generateMcu(config.mcu);
}

artifact::Digest stageKey(const char* stage, const core::FlowJob& job,
                          const core::FlowConfig& config, bool withPeriod) {
  artifact::Hasher h;
  h.str("perfbench-replica").str(stage).str(job.profile).str(config.workload);
  h.u64(config.big.seed).str(job.method).f64(job.value);
  if (withPeriod) h.f64(job.period);
  return h.digest();
}

}  // namespace

FlowReplica::FlowReplica(core::FlowConfig config, artifact::ArtifactStore* store)
    : config_(std::move(config)),
      store_(store),
      characterizer_(config_.characterization),
      linter_(lint::LintEngine::withAllRules()) {}

void FlowReplica::lint(const lint::LintSubject& subject,
                       lint::RulePackMask packs, long job) {
  if (config_.lintMode == core::LintMode::kOff) return;
  const lint::LintReport report =
      inSpan("lint.run", job, [&] { return linter_.run(subject, packs); });
  counts_.lintFindings += report.size();
  if (report.hasErrors() && config_.lintMode == core::LintMode::kError) {
    throw std::runtime_error("replica lint gate failed: " + report.summary());
  }
}

void FlowReplica::publish(const artifact::Digest& key,
                          const artifact::SctbWriter& writer, long job) {
  if (store_ == nullptr) return;
  inSpan("artifact.publish", job, [&] { store_->publish(key, writer); });
}

template <class T, class Decode>
std::optional<T> FlowReplica::load(const artifact::Digest& key, long job,
                                   Decode&& decode) {
  if (store_ == nullptr) return std::nullopt;
  return inSpan("artifact.open", job, [&]() -> std::optional<T> {
    const std::optional<artifact::SctbReader> reader = store_->open(key);
    if (!reader) return std::nullopt;
    return decode(*reader);
  });
}

void FlowReplica::generateSubject(long job) {
  subject_ = std::make_unique<netlist::Design>(
      inSpan("netlist.generate", job, [&] { return makeSubject(config_); }));
  counts_.gates = subject_->gateCount();
}

void FlowReplica::setUp(long job) {
  const charlib::ProcessCorner corner = charlib::ProcessCorner::typical();
  generateSubject(job);
  nominal_ = std::make_unique<liberty::Library>(inSpan(
      "charlib.nominal", job,
      [&] { return characterizer_.characterizeNominal(corner); }));
  const std::vector<liberty::Library> instances =
      inSpan("charlib.mc", job, [&] {
        return characterizer_.characterizeMonteCarlo(
            corner, config_.mcLibraryCount, config_.mcSeed);
      });
  stat_ = std::make_unique<statlib::StatLibrary>(inSpan(
      "statlib.merge", job, [&] { return statlib::buildStatLibrary(instances); }));

  lint::LintSubject nominal;
  nominal.library = nominal_.get();
  lint(nominal, lint::packBit(lint::RulePack::kLiberty), job);
  lint::LintSubject stat;
  stat.statLibrary = stat_.get();
  stat.referenceLibrary = nominal_.get();
  lint(stat, lint::packBit(lint::RulePack::kStatLib), job);
  lint::LintSubject design;
  design.design = subject_.get();
  lint(design, lint::packBit(lint::RulePack::kNetlist), job);

  if (store_ != nullptr) {
    const core::FlowJob none;
    artifact::SctbWriter nominalWriter;
    artifact::encodeLibrary(nominalWriter, *nominal_);
    publish(stageKey("nominal", none, config_, false), nominalWriter, job);
    artifact::SctbWriter statWriter;
    artifact::encodeStatLibrary(statWriter, *stat_);
    publish(stageKey("stat", none, config_, false), statWriter, job);
  }
}

std::string FlowReplica::run(const core::FlowJob& job, long jobId) {
  if (!stat_) throw std::logic_error("FlowReplica::run before setUp");
  std::optional<tuning::TuningConfig> tuningConfig;
  if (!job.method.empty()) {
    tuningConfig = tuning::TuningConfig::forMethod(
        core::tuningMethodByName(job.method), job.value);
  }
  const core::FlowJob none;
  const artifact::Digest tuneKey = stageKey("tune", job, config_, false);
  const artifact::Digest synthKey = stageKey("synth", job, config_, true);
  if (store_ != nullptr) {
    nominal_ = std::make_unique<liberty::Library>(
        load<liberty::Library>(stageKey("nominal", none, config_, false), jobId,
                               artifact::decodeLibrary)
            .value());
    stat_ = std::make_unique<statlib::StatLibrary>(
        load<statlib::StatLibrary>(stageKey("stat", none, config_, false),
                                   jobId, artifact::decodeStatLibrary)
            .value());
    subject_.reset();
  }

  std::optional<tuning::LibraryConstraints> constraints;
  if (tuningConfig) {
    constraints = load<tuning::LibraryConstraints>(tuneKey, jobId,
                                                   artifact::decodeConstraints);
    if (!constraints) {
      constraints.emplace(inSpan("tuning.tune", jobId, [&] {
        return tuning::tuneLibrary(*stat_, *tuningConfig);
      }));
      lint::LintSubject subject;
      subject.constraints = &*constraints;
      subject.referenceLibrary = nominal_.get();
      lint(subject, lint::packBit(lint::RulePack::kConstraints), jobId);
      artifact::SctbWriter writer;
      artifact::encodeConstraints(writer, *constraints);
      publish(tuneKey, writer, jobId);
    }
  }

  sta::ClockSpec clock = config_.clock;
  clock.period = job.period;
  core::DesignMeasurement m;
  m.clockPeriod = job.period;
  std::optional<synth::SynthesisResult> synthesized =
      load<synth::SynthesisResult>(synthKey, jobId,
                                   [&](const artifact::SctbReader& reader) {
                                     return artifact::decodeSynthesisResult(
                                         reader, nominal_.get());
                                   });
  if (synthesized) {
    m.synthesis = std::move(*synthesized);
  } else {
    if (!subject_) generateSubject(jobId);
    m.synthesis = inSpan("synth.run", jobId, [&] {
      const synth::Synthesizer synthesizer(
          *nominal_, constraints ? &*constraints : nullptr);
      return synthesizer.run(*subject_, clock, config_.synthesis);
    });
    counts_.resizes += m.synthesis.resizes;
    counts_.buffers += m.synthesis.buffersInserted;
    artifact::SctbWriter writer;
    artifact::encodeSynthesisResult(writer, m.synthesis);
    publish(synthKey, writer, jobId);
  }

  // Measurement, in the order core::TuningFlow::measure runs it.
  std::optional<sta::TimingAnalyzer> timing;
  const bool analyzed = inSpan("sta.analyze", jobId, [&] {
    timing.emplace(m.synthesis.design, *nominal_, clock);
    return timing->analyze();
  });
  if (analyzed) {
    const sta::TimingAnalyzer& analyzer = *timing;
    const std::vector<sta::TimingPath> paths =
        inSpan("sta.paths", jobId, [&] { return analyzer.endpointWorstPaths(); });
    inSpan("variation.path_stats", jobId, [&] {
      const variation::PathStatistics stats(*stat_, config_.rho);
      m.design = stats.designStats(paths);
      m.paths.reserve(paths.size());
      for (const sta::TimingPath& path : paths) {
        const variation::PathStats ps = stats.pathStats(path);
        core::PathRecord record;
        record.depth = ps.depth;
        record.mean = ps.mean;
        record.sigma = ps.sigma;
        record.arrival = path.endpoint.arrival;
        record.slack = path.endpoint.slack;
        record.endpoint = analyzer.endpointName(path.endpoint);
        m.paths.push_back(std::move(record));
      }
    });
    m.power = inSpan("power.analyze", jobId, [&] {
      const power::PowerModel powerModel(characterizer_.model());
      return power::analyzeDesignPower(
          m.synthesis.design, analyzer, characterizer_, powerModel,
          config_.powerActivity, config_.powerSamples, config_.powerSeed);
    });
  }
  return renderFlowReport(job, m, constraints ? &*constraints : nullptr);
}

std::string renderFlowReport(const core::FlowJob& job,
                             const core::DesignMeasurement& m,
                             const tuning::LibraryConstraints* constraints) {
  std::ostringstream report;
  report << "flow-report v1\n";
  report << "design " << m.synthesis.design.name() << " period "
         << fmt17(job.period) << "\n";
  report << "synthesis met " << m.synthesis.timingMet << " legal "
         << m.synthesis.legal << " wns " << fmt17(m.synthesis.worstSlack)
         << " tns " << fmt17(m.synthesis.tns) << " area "
         << fmt17(m.synthesis.area) << "\n";
  report << "gates " << m.synthesis.design.gateCount() << " buffers "
         << m.synthesis.buffersInserted << " resizes " << m.synthesis.resizes
         << " decomposed " << m.synthesis.decomposed << "\n";
  report << "design-sigma " << fmt17(m.sigma()) << " paths " << m.paths.size()
         << "\n";
  report << "power mean " << fmt17(m.power.meanPower) << " sigma "
         << fmt17(m.power.sigmaPower) << " cells " << m.power.cells << "\n";
  if (constraints != nullptr) {
    artifact::Hasher hasher;
    hasher.str(tuning::writeConstraintsToString(*constraints));
    report << "constraints " << constraints->size() << " unusable "
           << constraints->unusableCellCount() << " digest "
           << hasher.digest().hex() << "\n";
  }
  for (const core::PathRecord& p : m.paths) {
    report << "path " << p.endpoint << " depth " << p.depth << " mean "
           << fmt17(p.mean) << " sigma " << fmt17(p.sigma) << " arrival "
           << fmt17(p.arrival) << " slack " << fmt17(p.slack) << "\n";
  }
  return report.str();
}

}  // namespace perfbench
