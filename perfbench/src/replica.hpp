#pragma once
// Layer-by-layer replica of one `sctune flow` job for the traced run. It
// calls each module's public entry point directly — netlist generation,
// characterization, stat merge, tuning, lint, synthesis, STA, path
// statistics, power, artifact store — inside a span per call, and renders
// the same "flow-report v1" text as core::runFlowJob. The traced run
// asserts the replica's report equals the end-to-end report, so the spans
// time the same work the timed runs measure.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "artifact/store.hpp"
#include "common.hpp"
#include "charlib/characterizer.hpp"
#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "lint/engine.hpp"

namespace perfbench {

/// Counts read off the replica's own calls.
struct ReplicaCounts {
  std::uint64_t gates = 0;         ///< gates of the generated subject
  std::uint64_t lintFindings = 0;  ///< diagnostics over every lint run
  std::uint64_t resizes = 0;       ///< Σ SynthesisResult::resizes
  std::uint64_t buffers = 0;       ///< Σ SynthesisResult::buffersInserted
};

class FlowReplica {
 public:
  /// `store` may be null: every stage is then computed (the big-cold case).
  FlowReplica(core::FlowConfig config, artifact::ArtifactStore* store);

  /// Subject generation, nominal + Monte-Carlo characterization, stat merge
  /// and their lint gates; publishes the libraries when a store is set.
  void setUp(long job);

  /// One flow job. With a store it works like a fresh `sctune flow`
  /// invocation: the libraries are opened from the store, and the job is
  /// warm (every stage opened) when an earlier run() published its
  /// artifacts. Without a store it uses the set-up libraries.
  [[nodiscard]] std::string run(const core::FlowJob& job, long jobId);

  [[nodiscard]] const ReplicaCounts& counts() const { return counts_; }
  [[nodiscard]] const statlib::StatLibrary& statLibrary() const { return *stat_; }

 private:
  void lint(const lint::LintSubject& subject, lint::RulePackMask packs, long job);
  void publish(const artifact::Digest& key, const artifact::SctbWriter& writer,
               long job);
  /// Opens and decodes one artifact inside an "artifact.open" span; empty
  /// on a miss or without a store.
  template <class T, class Decode>
  std::optional<T> load(const artifact::Digest& key, long job, Decode&& decode);
  void generateSubject(long job);

  core::FlowConfig config_;
  artifact::ArtifactStore* store_;
  charlib::Characterizer characterizer_;
  lint::LintEngine linter_;
  std::unique_ptr<netlist::Design> subject_;
  std::unique_ptr<liberty::Library> nominal_;
  std::unique_ptr<statlib::StatLibrary> stat_;
  ReplicaCounts counts_;
};

/// The "flow-report v1" text of core::runFlowJob for a measured design.
[[nodiscard]] std::string renderFlowReport(
    const core::FlowJob& job, const core::DesignMeasurement& m,
    const tuning::LibraryConstraints* constraints);

}  // namespace perfbench
