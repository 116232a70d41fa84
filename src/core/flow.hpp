#pragma once
// End-to-end library-tuning flow (the paper's methodology, sections II-VII):
//   characterize -> build statistical library -> extract thresholds ->
//   restrict LUTs -> synthesize under constraints -> measure design sigma.
// Every bench and example drives this facade.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "artifact/fields.hpp"
#include "artifact/mem_cache.hpp"
#include "artifact/store.hpp"
#include "charlib/characterizer.hpp"
#include "lint/engine.hpp"
#include "netlist/dsp.hpp"
#include "netlist/mcu.hpp"
#include "netlist/noc.hpp"
#include "netlist/random.hpp"
#include "power/power_stats.hpp"
#include "statlib/stat_library.hpp"
#include "synth/synthesis.hpp"
#include "tuning/restriction.hpp"
#include "variation/path_stats.hpp"

namespace sct::core {

/// How the flow treats lint findings on its stage inputs (DESIGN.md §11).
/// kError fails fast (throws) on error-severity findings before the tainted
/// artifact feeds a downstream stage; kWarn reports everything to stderr but
/// never stops; kOff skips linting entirely — flow *results* are identical
/// across all three settings for clean inputs, since the gate only ever
/// reads the artifacts.
enum class LintMode : std::uint8_t { kError = 0, kWarn = 1, kOff = 2 };

struct FlowConfig {
  charlib::CharacterizationConfig characterization{};
  std::size_t mcLibraryCount = 50;  ///< paper: 50 library instances
  std::uint64_t mcSeed = 2014;
  /// Subject-design selector for the design-diversity matrix: "mcu"
  /// (default), "dsp" (FIR datapath), "noc" (wormhole router) or "big"
  /// (scaled random DAG — ~200k gates at the default scale, the
  /// 10x-paper-size workload). Only the selected generator's config enters
  /// the stage keys.
  std::string workload = "mcu";
  netlist::McuConfig mcu{};
  netlist::DspConfig dsp{};
  netlist::NocConfig noc{};
  netlist::RandomDagConfig big{.primaryInputs = 64,
                               .gates = 200,
                               .flipFlops = 16,
                               .primaryOutputs = 64,
                               .scale = 1000,
                               .seed = 1};
  sta::ClockSpec clock{};  ///< period is overridden per experiment
  synth::SynthesisOptions synthesis{};
  double rho = 0.0;  ///< pairwise cell correlation in path convolution
  /// Worker threads for the parallel stages (characterization, stat-library
  /// merge, tuning, path MC): -1 keeps the process-wide setting (SCT_THREADS
  /// or hardware concurrency), 0 forces serial, N pins the pool size.
  /// Results are bit-identical for every setting.
  int threads = -1;
  /// Root of the content-addressed artifact cache; empty disables caching.
  /// Each pipeline stage (characterize, merge, tune, synthesize, measure)
  /// consults the store before computing and skips to a warm SCTB load on a
  /// hit. Keys hash all stage inputs (characterization config, MC count +
  /// seed, tuning parameters, subject/clock/synthesis options, rho, power
  /// knobs, schema version), so warm results are bit-identical to a cold
  /// run by construction.
  std::string cacheDir{};
  /// Lint gate over each stage's input artifact. Lint reports are cached in
  /// the artifact store keyed by subject digest + lint::kRulePackVersion.
  LintMode lintMode = LintMode::kError;
  /// Externally-owned cache tiers for long-lived processes (the sctuned
  /// daemon shares one store + one memory cache across every session).
  /// sharedStore overrides cacheDir; neither is owned by the flow.
  artifact::ArtifactStore* sharedStore = nullptr;
  artifact::MemoryArtifactCache* sharedMemCache = nullptr;
  /// Design-power measurement knobs (src/power wired into measure(); the
  /// totals land in the flow report and the scenario trade-off output).
  /// Deterministic: per-instance streams are derived from powerSeed alone.
  double powerActivity = 0.1;      ///< transitions per clock per cell
  std::size_t powerSamples = 50;   ///< mismatch draws per instance
  std::uint64_t powerSeed = 7;
};

/// Per-endpoint worst-path record used by the path-population figures.
struct PathRecord {
  std::size_t depth = 0;
  double mean = 0.0;    ///< statistical path mean [ns]
  double sigma = 0.0;   ///< statistical path sigma [ns]
  double arrival = 0.0; ///< STA arrival at the endpoint [ns]
  double slack = 0.0;
  std::string endpoint;
};

template <artifact::FieldsOf<PathRecord> P>
auto fields(P& p) {
  return std::tie(p.depth, p.mean, p.sigma, p.arrival, p.slack, p.endpoint);
}

struct DesignMeasurement {
  synth::SynthesisResult synthesis;
  variation::DesignStats design;  ///< eq. (11) aggregate
  std::vector<PathRecord> paths;  ///< one per unique endpoint
  power::DesignPower power;       ///< dynamic-power mean/sigma totals
  double clockPeriod = 0.0;

  /// Artifact section of the `flow.stage.measure` record.
  static constexpr const char* kSection = "measure";

  [[nodiscard]] bool success() const noexcept { return synthesis.success(); }
  [[nodiscard]] double area() const noexcept { return synthesis.area; }
  [[nodiscard]] double sigma() const noexcept { return design.sigma; }
};

/// The measure record: only what measurement adds on top of synthesis.
/// `synthesis` is not listed — it comes from its own stage, so no design
/// bytes are stored twice.
template <artifact::FieldsOf<DesignMeasurement> M>
auto fields(M& m) {
  return std::tie(m.clockPeriod, m.design, m.power, m.paths);
}

class TuningFlow {
 public:
  explicit TuningFlow(FlowConfig config = {});

  [[nodiscard]] const FlowConfig& config() const noexcept { return config_; }
  [[nodiscard]] const charlib::Characterizer& characterizer() const noexcept {
    return characterizer_;
  }

  /// Nominal TT library used by synthesis (lazily characterized).
  const liberty::Library& nominalLibrary();
  /// Statistical library from N Monte-Carlo library instances (Fig. 2).
  const statlib::StatLibrary& statLibrary();
  /// The subject graph selected by config().workload (lazily generated).
  const netlist::Design& subject();

  /// Digest of everything that can influence a (constraints -> synthesize ->
  /// measure) evaluation at this clock period: characterization, corner,
  /// MC parameters, subject/workload, clock, synthesis options, rho and the
  /// power knobs. The evolutionary tuner mixes candidate genes into this to
  /// key its memoized fitness evaluations.
  [[nodiscard]] artifact::Digest measurementContextDigest(double period) const;

  /// Stage 1+2 of the tuning method for a given config.
  tuning::LibraryConstraints tune(const tuning::TuningConfig& config);

  /// Baseline synthesis (untuned library) at a clock period.
  DesignMeasurement synthesizeBaseline(double period);
  /// Constrained synthesis under a tuning config.
  DesignMeasurement synthesizeTuned(double period,
                                    const tuning::TuningConfig& config);

  /// Statistical measurement of an already-synthesized design. Uncached:
  /// callers (the evolutionary tuner, ablation benches) measure designs
  /// synthesized under constraints no TuningConfig describes, so there is
  /// no stage key for them. synthesizeBaseline/synthesizeTuned go through
  /// the cached `flow.stage.measure` stage instead.
  DesignMeasurement measure(synth::SynthesisResult result, double period);

  /// Traced endpoint worst paths of a synthesized design (for Monte-Carlo
  /// experiments that need the full path structure, Figs. 15/16).
  [[nodiscard]] std::vector<sta::TimingPath> tracePaths(
      const synth::SynthesisResult& result, double period) const;

  /// Minimum feasible clock period of the baseline (Table 1 protocol).
  std::optional<double> findMinPeriod(double lo = 0.5, double hi = 14.0,
                                      double tolerance = 0.02);

  // ---- method sweeps (Table 3 / Fig. 10) --------------------------------
  struct SweepPoint {
    tuning::TuningMethod method{};
    double parameter = 0.0;
    DesignMeasurement measurement;
    double sigmaReductionPct = 0.0;  ///< vs baseline, positive = better
    double areaIncreasePct = 0.0;    ///< vs baseline
  };

  /// Runs the Table 2 parameter sweep of one method at one clock period.
  std::vector<SweepPoint> sweepMethod(tuning::TuningMethod method,
                                      double period,
                                      const DesignMeasurement& baseline);

  /// Paper's Fig. 10 selection rule: highest sigma reduction among
  /// successful runs with area increase below the cap (default 10%).
  [[nodiscard]] static const SweepPoint* bestUnderAreaCap(
      std::span<const SweepPoint> points, double maxAreaIncreasePct = 10.0);

  /// Artifact store backing the resumable stages; nullptr when caching is
  /// disabled (empty cacheDir, or a cache directory that could not be
  /// created — the flow then degrades to always computing).
  [[nodiscard]] artifact::ArtifactStore* cache() noexcept { return store_; }
  [[nodiscard]] const artifact::ArtifactStore* cache() const noexcept {
    return store_;
  }
  /// In-memory tier in front of the store; nullptr when disabled.
  [[nodiscard]] artifact::MemoryArtifactCache* memCache() noexcept {
    return mem_;
  }
  [[nodiscard]] const artifact::MemoryArtifactCache* memCache() const noexcept {
    return mem_;
  }

 private:
  // ---- stage cache keys (see DESIGN.md §10 for the derivation rules) -----
  [[nodiscard]] artifact::Hasher flowHasher() const;
  [[nodiscard]] artifact::Digest nominalKey() const;
  [[nodiscard]] artifact::Digest statKey() const;
  [[nodiscard]] artifact::Digest tuneKey(
      const tuning::TuningConfig& config) const;
  [[nodiscard]] artifact::Digest synthKey(
      double period, const tuning::TuningConfig* config) const;
  [[nodiscard]] artifact::Digest measureKey(
      double period, const tuning::TuningConfig* config) const;

  /// Shared cached-synthesis stage behind synthesizeBaseline/synthesizeTuned
  /// (config == nullptr means the untuned baseline library).
  synth::SynthesisResult synthesizeCached(double period,
                                          const tuning::TuningConfig* config);
  /// Cached synthesis followed by the cached measurement stage: a warm hit
  /// decodes both artifacts and runs no STA, path statistics or power MC.
  DesignMeasurement synthesizeAndMeasure(double period,
                                         const tuning::TuningConfig* config);
  /// Measurement of `result` without its synthesis: every field but
  /// DesignMeasurement::synthesis, which stays default-constructed.
  DesignMeasurement measureFields(const synth::SynthesisResult& result,
                                  double period);

  /// Runs the selected rule packs over `subject` before a stage consumes it
  /// (cached by `stageKey` + rule-pack version). Throws std::runtime_error
  /// on error-severity findings in LintMode::kError; prints a one-line
  /// summary to stderr in kWarn (and for warning-only reports in kError);
  /// no-op in kOff.
  void lintGate(std::string_view stageName, const artifact::Digest& stageKey,
                const lint::LintSubject& subject, lint::RulePackMask packs);

  FlowConfig config_;
  charlib::Characterizer characterizer_;
  lint::LintEngine linter_;
  std::unique_ptr<artifact::ArtifactStore> ownedStore_;
  std::unique_ptr<artifact::MemoryArtifactCache> ownedMem_;
  artifact::ArtifactStore* store_ = nullptr;  ///< owned or shared
  artifact::MemoryArtifactCache* mem_ = nullptr;
  std::unique_ptr<liberty::Library> nominal_;
  std::unique_ptr<statlib::StatLibrary> stat_;
  std::unique_ptr<netlist::Design> subject_;
};

}  // namespace sct::core
