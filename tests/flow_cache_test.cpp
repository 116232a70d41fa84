// Cold-vs-warm equivalence of the resumable flow: a second TuningFlow over
// the same cache directory must serve characterization, stat-merge, tuning,
// synthesis and measurement from the artifact store and produce
// bit-identical results.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "artifact/binary_format.hpp"
#include "artifact/codecs.hpp"
#include "artifact/fields.hpp"
#include "core/flow.hpp"
#include "liberty/liberty_io.hpp"
#include "obs/metrics.hpp"
#include "statlib/stat_io.hpp"
#include "tuning/constraints_io.hpp"

namespace sct::core {
namespace {

namespace fs = std::filesystem;

FlowConfig smallConfig(const fs::path& cacheDir) {
  FlowConfig config;
  config.characterization.slewAxis = {0.002, 0.05, 0.2, 0.6};
  config.characterization.loadFractions = {0.01, 0.1, 0.4, 1.0};
  config.mcLibraryCount = 6;
  config.mcu.registers = 8;
  config.mcu.readPorts = 2;
  config.mcu.bankedRegisters = 1;
  config.mcu.macUnits = 1;
  config.mcu.macWidth = 8;
  config.mcu.timers = 1;
  config.mcu.dmaChannels = 1;
  config.mcu.gpioWidth = 16;
  config.mcu.cacheTagEntries = 16;
  config.mcu.decodeOutputs = 64;
  config.mcu.interruptSources = 8;
  config.cacheDir = cacheDir.string();
  return config;
}

/// Every byte the flow caches of a measurement: the measure record, then
/// the synthesis result (scalar head and design).
std::vector<std::byte> encoded(const DesignMeasurement& m) {
  artifact::SctbWriter writer;
  artifact::writeRecord(writer, m);
  artifact::encodeSynthesisResult(writer, m.synthesis);
  return writer.finish();
}

// The cache contract is bit-identity, not tolerance-level agreement.
void expectBitIdentical(const DesignMeasurement& warm,
                        const DesignMeasurement& cold) {
  EXPECT_EQ(encoded(warm), encoded(cold));
}

/// Stage-counter deltas of one call, read from the global metrics registry.
class StageCounters {
 public:
  explicit StageCounters(const std::function<void()>& run) {
    obs::setMetricsEnabled(true);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    before_ = registry.snapshot();
    run();
    after_ = registry.snapshot();
    obs::setMetricsEnabled(false);
  }
  /// Delta of `flow.stage.<stage>.<counter>`.
  [[nodiscard]] std::uint64_t operator()(const std::string& stage,
                                         const std::string& counter) const {
    const std::string name = "flow.stage." + stage + "." + counter;
    return after_.counterValue(name) - before_.counterValue(name);
  }

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

/// The one cached measurement artifact under `dir` (found by its section).
fs::path measureArtifact(const fs::path& dir) {
  fs::path found;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    try {
      if (artifact::SctbReader::fromFile(entry.path().string())
              .hasSection("measure")) {
        EXPECT_TRUE(found.empty()) << "two measurement artifacts";
        found = entry.path();
      }
    } catch (const artifact::FormatError&) {
    }
  }
  return found;
}

void writeBytes(const fs::path& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(FlowCache, WarmRunHitsEveryStageBitIdentically) {
  const fs::path dir = fs::temp_directory_path() / "sct_flow_cache_test";
  fs::remove_all(dir);
  const tuning::TuningConfig tc = tuning::TuningConfig::forMethod(
      tuning::TuningMethod::kSigmaCeiling, 0.02);

  TuningFlow cold(smallConfig(dir));
  ASSERT_NE(cold.cache(), nullptr);
  const DesignMeasurement coldRun = cold.synthesizeTuned(8.0, tc);
  ASSERT_TRUE(coldRun.success());
  // nominal + stat + tune + synth + measure (plus the lint reports)
  EXPECT_GE(cold.cache()->stats().stores, 5u);
  const std::string coldLib = liberty::writeLibraryToString(
      cold.nominalLibrary());
  const std::string coldStat =
      statlib::writeStatLibraryToString(cold.statLibrary());
  const std::string coldConstraints =
      tuning::writeConstraintsToString(cold.tune(tc));

  // A fresh flow over the same cache directory: every stage must be served
  // from the store (zero misses) and reproduce the cold results exactly.
  // The measurement hit makes the statistical library unnecessary, so its
  // stage is never even probed.
  TuningFlow warm(smallConfig(dir));
  DesignMeasurement warmRun;
  const StageCounters counters([&] { warmRun = warm.synthesizeTuned(8.0, tc); });
  ASSERT_NE(warm.cache(), nullptr);
  EXPECT_EQ(warm.cache()->stats().misses, 0u);
  EXPECT_EQ(warm.cache()->stats().corrupt, 0u);
  EXPECT_EQ(warm.cache()->stats().stores, 0u);
  EXPECT_GE(warm.cache()->stats().hits, 3u);  // nominal, synth, measure
  EXPECT_EQ(counters("measure", "hits"), 1u);
  EXPECT_EQ(counters("measure", "misses"), 0u);
  EXPECT_EQ(counters("stat", "probes"), 0u);
  expectBitIdentical(warmRun, coldRun);
  EXPECT_EQ(liberty::writeLibraryToString(warm.nominalLibrary()), coldLib);
  EXPECT_EQ(statlib::writeStatLibraryToString(warm.statLibrary()), coldStat);
  EXPECT_EQ(tuning::writeConstraintsToString(warm.tune(tc)), coldConstraints);

  fs::remove_all(dir);
}

TEST(FlowCache, CorruptCacheDegradesToRecompute) {
  const fs::path dir = fs::temp_directory_path() / "sct_flow_corrupt_test";
  fs::remove_all(dir);

  TuningFlow cold(smallConfig(dir));
  const DesignMeasurement coldRun = cold.synthesizeBaseline(8.0);
  ASSERT_TRUE(coldRun.success());

  // Vandalize every cached artifact; the warm flow must detect it, evict,
  // recompute and still match the cold run exactly.
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << "not an artifact";
    }
  }
  TuningFlow warm(smallConfig(dir));
  const DesignMeasurement warmRun = warm.synthesizeBaseline(8.0);
  EXPECT_GE(warm.cache()->stats().corrupt, 1u);
  expectBitIdentical(warmRun, coldRun);

  fs::remove_all(dir);
}

TEST(FlowCache, DifferentInputsUseDifferentKeys) {
  const fs::path dir = fs::temp_directory_path() / "sct_flow_keys_test";
  fs::remove_all(dir);

  TuningFlow first(smallConfig(dir));
  (void)first.statLibrary();
  const auto usageAfterFirst = first.cache()->diskUsage();

  // A different MC seed must miss the stat-stage entry and publish a new
  // one (the nominal characterization is seed-independent and hits).
  FlowConfig other = smallConfig(dir);
  other.mcSeed += 1;
  TuningFlow second(other);
  (void)second.statLibrary();
  EXPECT_GE(second.cache()->stats().misses, 1u);
  EXPECT_GT(second.cache()->diskUsage().first, usageAfterFirst.first);

  fs::remove_all(dir);
}

TEST(FlowCache, MeasureKeyCoversEveryMeasurementInput) {
  const fs::path dir = fs::temp_directory_path() / "sct_flow_measure_key_test";
  fs::remove_all(dir);
  {
    TuningFlow first(smallConfig(dir));
    ASSERT_TRUE(first.synthesizeBaseline(8.0).success());
  }

  // Each variant changes one input that only measurement reads: the
  // baseline synthesis must still hit, the measurement must miss, and the
  // result must be what a store-less flow computes for the same config.
  const std::vector<std::pair<const char*, std::function<void(FlowConfig&)>>>
      variants = {
          {"rho", [](FlowConfig& c) { c.rho = 0.3; }},
          {"powerSeed", [](FlowConfig& c) { c.powerSeed += 1; }},
          {"powerSamples", [](FlowConfig& c) { c.powerSamples = 20; }},
          {"powerActivity", [](FlowConfig& c) { c.powerActivity = 0.2; }},
          {"mcSeed", [](FlowConfig& c) { c.mcSeed += 1; }},
      };
  for (const auto& [name, apply] : variants) {
    SCOPED_TRACE(name);
    FlowConfig config = smallConfig(dir);
    apply(config);
    TuningFlow cached(config);
    DesignMeasurement run;
    const StageCounters counters([&] { run = cached.synthesizeBaseline(8.0); });
    EXPECT_EQ(counters("synth", "hits"), 1u);
    EXPECT_EQ(counters("measure", "misses"), 1u);
    EXPECT_EQ(counters("measure", "hits"), 0u);

    config.cacheDir.clear();
    TuningFlow uncached(config);
    expectBitIdentical(run, uncached.synthesizeBaseline(8.0));
  }

  fs::remove_all(dir);
}

TEST(FlowCache, HostileMeasureArtifactRecomputes) {
  const fs::path dir = fs::temp_directory_path() / "sct_flow_measure_hostile";
  fs::remove_all(dir);
  TuningFlow cold(smallConfig(dir));
  const DesignMeasurement coldRun = cold.synthesizeBaseline(8.0);
  ASSERT_TRUE(coldRun.success());
  ASSERT_GE(coldRun.paths.size(), 2u);
  const fs::path path = measureArtifact(dir);
  ASSERT_FALSE(path.empty());

  // A well-formed container whose measure section declares `count` paths
  // but carries only the first `written`, plus optional trailing bytes.
  const auto hostile = [&](std::uint64_t count, std::size_t written,
                           bool trailing) {
    // The record's list spelled out so the declared count can lie while
    // the container checksums stay valid.
    artifact::SctbWriter writer;
    writer.beginSection(DesignMeasurement::kSection);
    artifact::FieldWriter<artifact::SctbWriter> put{writer};
    put(coldRun.clockPeriod);
    artifact::forEachField(coldRun.design, put);
    artifact::forEachField(coldRun.power, put);
    writer.u64(count);
    for (std::size_t i = 0; i < written; ++i) {
      artifact::forEachField(coldRun.paths[i], put);
    }
    if (trailing) writer.u64(0);
    return writer.finish();
  };
  std::vector<std::byte> cut =
      hostile(coldRun.paths.size(), coldRun.paths.size(), false);
  cut.resize(cut.size() / 2);
  const std::vector<std::pair<const char*, std::vector<std::byte>>> cases = {
      {"file cut in half", cut},
      {"section truncated",
       hostile(coldRun.paths.size(), coldRun.paths.size() / 2, false)},
      {"path count 2^62", hostile(std::uint64_t{1} << 62, 1, false)},
      {"trailing bytes",
       hostile(coldRun.paths.size(), coldRun.paths.size(), true)},
  };
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    writeBytes(path, bytes);
    TuningFlow warm(smallConfig(dir));
    DesignMeasurement run;
    const StageCounters counters([&] { run = warm.synthesizeBaseline(8.0); });
    EXPECT_EQ(counters("synth", "hits"), 1u);
    EXPECT_EQ(counters("measure", "misses"), 1u);
    expectBitIdentical(run, coldRun);
  }

  fs::remove_all(dir);
}

}  // namespace
}  // namespace sct::core
