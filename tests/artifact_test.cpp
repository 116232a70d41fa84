// Tests for the SCTB binary container, the stage codecs (round-trip
// fidelity down to the serialized-text level) and the content-addressed
// artifact store (publication atomicity, corruption handling, gc).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "artifact/binary_format.hpp"
#include "artifact/codecs.hpp"
#include "artifact/fields.hpp"
#include "artifact/hash.hpp"
#include "artifact/store.hpp"
#include "charlib/characterizer.hpp"
#include "core/flow_job.hpp"
#include "evo/tuner.hpp"
#include "liberty/liberty_io.hpp"
#include "netlist/mcu.hpp"
#include "netlist/verilog_io.hpp"
#include "postsi/scenario.hpp"
#include "statlib/stat_io.hpp"
#include "synth/synthesis.hpp"
#include "tuning/constraints_io.hpp"
#include "tuning/restriction.hpp"

namespace sct {
namespace {

namespace fs = std::filesystem;
using artifact::Digest;
using artifact::FormatError;
using artifact::Hasher;
using artifact::SctbReader;
using artifact::SctbWriter;

charlib::CharacterizationConfig tinyConfig() {
  charlib::CharacterizationConfig config;
  config.slewAxis = {0.002, 0.05, 0.4};
  config.loadFractions = {0.01, 0.2, 1.0};
  return config;
}

liberty::Library tinyLibrary() {
  return charlib::Characterizer(tinyConfig())
      .characterizeNominal(charlib::ProcessCorner::typical());
}

statlib::StatLibrary tinyStatLibrary() {
  const charlib::Characterizer characterizer(tinyConfig());
  return statlib::buildStatLibrary(characterizer.characterizeMonteCarlo(
      charlib::ProcessCorner::typical(), 4, 99));
}

/// Temp directory wiped on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* stem)
      : path(fs::temp_directory_path() / stem) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// -------------------------------------------------------------- hashing ----

TEST(Digest, HexRoundTrip) {
  const Digest d{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(d.hex(), "0123456789abcdeffedcba9876543210");
  const auto back = Digest::fromHex(d.hex());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

TEST(Digest, FromHexRejectsMalformedInput) {
  EXPECT_FALSE(Digest::fromHex("").has_value());
  EXPECT_FALSE(Digest::fromHex("0123").has_value());
  EXPECT_FALSE(
      Digest::fromHex("0123456789abcdeffedcba987654321g").has_value());
  EXPECT_FALSE(
      Digest::fromHex("0123456789abcdeffedcba98765432100").has_value());
}

TEST(Hasher, TypedFeedersDoNotAlias) {
  // Length prefixes keep adjacent strings from aliasing each other.
  Hasher a, b;
  a.str("ab").str("c");
  b.str("a").str("bc");
  EXPECT_FALSE(a.digest() == b.digest());

  Hasher c, d;
  c.u8(1).u8(0).u8(0).u8(0);
  d.u32(1);
  EXPECT_FALSE(c.digest() == d.digest());
}

TEST(Hasher, DeterministicAcrossInstances) {
  Hasher a, b;
  for (Hasher* h : {&a, &b}) {
    h->str("stage").u64(50).f64(2.41).f64span(std::vector<double>{1.0, 2.0});
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_FALSE(a.digest() == Hasher().digest());
}

// ----------------------------------------------------- container basics ----

TEST(Sctb, WriterReaderRoundTripsScalars) {
  SctbWriter writer;
  writer.beginSection("scalars");
  writer.u8(7);
  writer.u32(0xdeadbeef);
  writer.u64(1ULL << 60);
  writer.f64(-0.0);
  writer.boolean(true);
  writer.str("hello SCTB");
  writer.beginSection("bulk");
  const std::vector<double> values{1.5, -2.25, 3.125, 0.0, 5e300};
  writer.f64span(values);

  const SctbReader reader = SctbReader::fromBytes(writer.finish());
  EXPECT_EQ(reader.schemaVersion(), artifact::kSchemaVersion);
  EXPECT_EQ(reader.sectionCount(), 2u);
  EXPECT_TRUE(reader.hasSection("scalars"));
  EXPECT_FALSE(reader.hasSection("missing"));
  EXPECT_THROW((void)reader.section("missing"), FormatError);

  SctbReader::Cursor cursor = reader.section("scalars");
  EXPECT_EQ(cursor.u8(), 7u);
  EXPECT_EQ(cursor.u32(), 0xdeadbeefu);
  EXPECT_EQ(cursor.u64(), 1ULL << 60);
  const double negZero = cursor.f64();
  EXPECT_EQ(negZero, 0.0);
  EXPECT_TRUE(std::signbit(negZero));
  EXPECT_TRUE(cursor.boolean());
  EXPECT_EQ(cursor.str(), "hello SCTB");
  EXPECT_EQ(cursor.remaining(), 0u);
  EXPECT_THROW((void)cursor.u8(), FormatError);  // reads past the end throw

  SctbReader::Cursor bulk = reader.section("bulk");
  const std::span<const double> span = bulk.f64span();
  ASSERT_EQ(span.size(), values.size());
  // Zero-copy contract: the span aliases 8-byte-aligned reader storage.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(span.data()) % 8, 0u);
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(span[i], values[i]);
}

TEST(Sctb, RejectsBadMagic) {
  SctbWriter writer;
  writer.beginSection("s");
  writer.u8(1);
  std::vector<std::byte> bytes = writer.finish();
  bytes[0] = std::byte{'X'};
  EXPECT_THROW((void)SctbReader::fromBytes(bytes), FormatError);
}

TEST(Sctb, RejectsWrongSchemaVersion) {
  SctbWriter writer(artifact::kSchemaVersion + 1);
  writer.beginSection("s");
  writer.u8(1);
  EXPECT_THROW((void)SctbReader::fromBytes(writer.finish()), FormatError);
}

TEST(Sctb, RejectsCorruptPayload) {
  SctbWriter writer;
  writer.beginSection("s");
  writer.str("payload under checksum");
  std::vector<std::byte> bytes = writer.finish();
  bytes.back() ^= std::byte{0x01};  // flip one payload bit
  EXPECT_THROW((void)SctbReader::fromBytes(bytes), FormatError);
}

TEST(Sctb, RejectsTruncationAtEveryBoundary) {
  SctbWriter writer;
  writer.beginSection("s");
  writer.f64span(std::vector<double>{1.0, 2.0, 3.0});
  const std::vector<std::byte> bytes = writer.finish();
  // Header cut, table cut and payload cut must all be detected.
  for (const std::size_t keep : {std::size_t{3}, std::size_t{15},
                                 std::size_t{17}, bytes.size() - 1}) {
    EXPECT_THROW(
        (void)SctbReader::fromBytes(std::span(bytes.data(), keep)),
        FormatError)
        << "kept " << keep << " bytes";
  }
}

TEST(Sctb, FromFileMatchesFromBytes) {
  SctbWriter writer;
  writer.beginSection("s");
  writer.str("disk");
  writer.f64span(std::vector<double>{4.0, 5.0});
  const std::vector<std::byte> bytes = writer.finish();

  TempDir dir("sct_artifact_file_test");
  fs::create_directories(dir.path);
  const fs::path file = dir.path / "x.sctb";
  {
    std::ofstream out(file, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const SctbReader reader = SctbReader::fromFile(file.string());
  SctbReader::Cursor cursor = reader.section("s");
  EXPECT_EQ(cursor.str(), "disk");
  EXPECT_EQ(reader.fileSize(), bytes.size());
  EXPECT_THROW((void)SctbReader::fromFile((dir.path / "nope.sctb").string()),
               FormatError);
}

TEST(Sctb, FromWriterServesTheFinishedBytes) {
  SctbWriter writer;
  writer.beginSection("s");
  writer.u32(0xfeedu);
  writer.str("miss path");
  writer.beginSection("bulk");
  writer.f64span(std::vector<double>{6.0, 7.0});
  const std::vector<std::byte> bytes = writer.finish();

  const SctbReader reader = SctbReader::fromWriter(writer);
  const std::span<const std::byte> raw = reader.rawBytes();
  ASSERT_EQ(raw.size(), bytes.size());
  EXPECT_TRUE(std::equal(raw.begin(), raw.end(), bytes.begin()));
  // The checksums it skipped verifying are the ones a disk read checks.
  EXPECT_NO_THROW((void)SctbReader::fromBytes(raw));
  SctbReader::Cursor cursor = reader.section("s");
  EXPECT_EQ(cursor.u32(), 0xfeedu);
  EXPECT_EQ(cursor.str(), "miss path");
  EXPECT_EQ(reader.section("bulk").f64span()[1], 7.0);
}

// ------------------------------------------------------- codec fidelity ----

TEST(Codecs, LibraryRoundTripsToIdenticalText) {
  const liberty::Library library = tinyLibrary();
  SctbWriter writer;
  artifact::encodeLibrary(writer, library);
  const liberty::Library back =
      artifact::decodeLibrary(SctbReader::fromBytes(writer.finish()));
  // The text serializer prints at max_digits10, so equal text means every
  // double survived bit-for-bit.
  EXPECT_EQ(liberty::writeLibraryToString(back),
            liberty::writeLibraryToString(library));
}

TEST(Codecs, StatLibraryRoundTripsToIdenticalText) {
  const statlib::StatLibrary library = tinyStatLibrary();
  SctbWriter writer;
  artifact::encodeStatLibrary(writer, library);
  const statlib::StatLibrary back =
      artifact::decodeStatLibrary(SctbReader::fromBytes(writer.finish()));
  EXPECT_EQ(back.sampleCount(), library.sampleCount());
  EXPECT_EQ(statlib::writeStatLibraryToString(back),
            statlib::writeStatLibraryToString(library));
}

TEST(Codecs, ConstraintsRoundTripToIdenticalText) {
  const tuning::LibraryConstraints constraints = tuning::tuneLibrary(
      tinyStatLibrary(),
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                      0.02));
  SctbWriter writer;
  artifact::encodeConstraints(writer, constraints);
  const tuning::LibraryConstraints back =
      artifact::decodeConstraints(SctbReader::fromBytes(writer.finish()));
  EXPECT_EQ(back.size(), constraints.size());
  EXPECT_EQ(tuning::writeConstraintsToString(back),
            tuning::writeConstraintsToString(constraints));
}

TEST(Codecs, UnboundDesignRoundTripsVerbatim) {
  netlist::Design design = netlist::generateAccumulator(8, 5);
  (void)design.freshName("n");  // advance the counter past zero
  SctbWriter writer;
  artifact::encodeDesign(writer, design);
  netlist::Design back =
      artifact::decodeDesign(SctbReader::fromBytes(writer.finish()), nullptr);
  EXPECT_EQ(back.validate(), "");
  EXPECT_EQ(netlist::writeVerilogToString(back),
            netlist::writeVerilogToString(design));
  // The fresh-name counter continues exactly where the original stopped.
  EXPECT_EQ(back.nameCounter(), design.nameCounter());
  EXPECT_EQ(back.freshName("n"), design.freshName("n"));
}

TEST(Codecs, SynthesisResultRoundTripsAgainstLibrary) {
  const liberty::Library library = tinyLibrary();
  const synth::Synthesizer synthesizer(library);
  sta::ClockSpec clock;
  clock.period = 8.0;
  const synth::SynthesisResult result =
      synthesizer.run(netlist::generateAccumulator(8, 5), clock);

  SctbWriter writer;
  artifact::encodeSynthesisResult(writer, result);
  const std::vector<std::byte> bytes = writer.finish();
  const synth::SynthesisResult back =
      artifact::decodeSynthesisResult(SctbReader::fromBytes(bytes), &library);

  SctbWriter again;
  artifact::encodeSynthesisResult(again, back);
  EXPECT_EQ(again.finish(), bytes);
  EXPECT_EQ(back.design.validate(), "");
  EXPECT_EQ(netlist::writeVerilogToString(back.design),
            netlist::writeVerilogToString(result.design));
  // Mapped instances reference cells of the passed library by address.
  for (const netlist::Instance& inst : back.design.instances()) {
    if (inst.cell != nullptr) {
      EXPECT_EQ(inst.cell, library.findCell(inst.cell->name()));
    }
  }
  // A mapped design cannot be rebound without a library: decode must fail
  // loudly instead of silently dropping the bindings.
  EXPECT_THROW(
      (void)artifact::decodeSynthesisResult(SctbReader::fromBytes(bytes),
                                            nullptr),
      FormatError);
}

/// Digest of every artifact under `root` holding `section`: the file
/// digests, sorted, fed through one hasher, prefixed with the file count.
std::string sectionDigest(const fs::path& root, const char* section) {
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".sctb") {
      continue;
    }
    const SctbReader reader = SctbReader::fromFile(entry.path().string());
    if (!reader.hasSection(section)) continue;
    Hasher h;
    h.bytes(reader.rawBytes());
    files.push_back(h.digest().hex());
  }
  std::sort(files.begin(), files.end());
  Hasher all;
  for (const std::string& file : files) all.str(file);
  return std::to_string(files.size()) + ":" + all.digest().hex();
}

// Golden digests of the measure, synthesis-result, scenario-cell and
// evo-fitness artifacts a small scenario + evolve run publishes, recorded
// from the hand-written per-record codecs the field-list codec replaced. A
// change here is an artifact-format change (it needs a schema bump, not a
// new golden value) or a change to the numbers the flow computes.
TEST(Codecs, StageArtifactBytesArePinned) {
  const TempDir dir("sct_codec_pins");
  const core::FlowJob job{.profile = "small", .period = 8.0, .mcCount = 6};
  core::FlowConfig config = core::makeFlowConfig(job);
  config.cacheDir = dir.path.string();
  core::TuningFlow flow(config);
  (void)postsi::runScenarioJob(
      flow, {.flow = job, .periods = {8.0}, .scenarios = "clock",
             .mcTrials = 16});
  (void)evo::runEvolveJob(
      flow, {.flow = job, .params = {.population = 2, .generations = 1}});

  EXPECT_EQ(sectionDigest(dir.path, "measure"),
            "1:9446062b24cd66b404a693260d52f2bf");
  EXPECT_EQ(sectionDigest(dir.path, "synth.meta"),
            "1:d66281cb139180e5ce94487fe03839da");
  EXPECT_EQ(sectionDigest(dir.path, "scenario-cell"),
            "1:3de2f0d47544ec14f7b4fde185497e3a");
  EXPECT_EQ(sectionDigest(dir.path, "evo-cand"),
            "19:31180095a5f7a24d247001c03ddec556");
}

/// A stage record round-trips, and its hostile variants — the encoding cut
/// in half, a trailing u64, the schema word off by one — throw FormatError.
template <class T>
void expectHostileRecordsRejected(const T& record) {
  const auto encode = [&](std::uint32_t schema, bool trailing) {
    SctbWriter writer;
    writer.beginSection(T::kSection);
    writer.u32(schema);
    artifact::FieldWriter<SctbWriter> put{writer};
    artifact::forEachField(record, put);
    if (trailing) writer.u64(0);
    return writer.finish();
  };
  const std::vector<std::byte> bytes = encode(T::kSchema, false);
  SctbWriter again;
  artifact::writeRecord(again,
                        artifact::readRecord<T>(SctbReader::fromBytes(bytes)));
  EXPECT_EQ(again.finish(), bytes);

  const std::vector<std::byte> cut(bytes.begin(),
                                   bytes.begin() + bytes.size() / 2);
  for (const auto& hostile :
       {cut, encode(T::kSchema, true), encode(T::kSchema + 1, false)}) {
    EXPECT_THROW(
        (void)artifact::readRecord<T>(SctbReader::fromBytes(hostile)),
        FormatError);
  }
}

TEST(Codecs, HostileCellAndFitnessArtifactsThrow) {
  postsi::ScenarioCell cell;
  cell.scenario = "clock";
  cell.period = 2.5;
  cell.success = true;
  cell.wns = -0.125;
  cell.yield = 0.75;
  cell.elements = 3;
  cell.flowReport = "flow-report v1\n";
  expectHostileRecordsRejected(cell);
  expectHostileRecordsRejected(evo::CandidateFitness{true, 0.02, 987.0, 4.5});
}

// ---------------------------------------------------------------- store ----

TEST(ArtifactStore, PublishOpenAndMissAccounting) {
  TempDir dir("sct_store_test");
  artifact::ArtifactStore store(dir.path / "store");

  const Digest key{1, 2};
  EXPECT_FALSE(store.open(key).has_value());
  EXPECT_EQ(store.stats().misses, 1u);

  SctbWriter writer;
  writer.beginSection("s");
  writer.str("cached");
  store.publish(key, writer);
  EXPECT_EQ(store.stats().stores, 1u);
  EXPECT_TRUE(fs::exists(store.pathFor(key)));

  auto reader = store.open(key);
  ASSERT_TRUE(reader.has_value());
  SctbReader::Cursor cursor = reader->section("s");
  EXPECT_EQ(cursor.str(), "cached");
  EXPECT_EQ(store.stats().hits, 1u);

  const auto [files, bytes] = store.diskUsage();
  EXPECT_EQ(files, 1u);
  EXPECT_GT(bytes, 0u);
  // No stray temp files survive publication.
  for (const auto& entry : fs::recursive_directory_iterator(store.root())) {
    if (entry.is_regular_file()) {
      EXPECT_EQ(entry.path().extension(), ".sctb");
      EXPECT_NE(entry.path().filename().string().find('.'), 0u);
    }
  }
}

TEST(ArtifactStore, CorruptEntryIsEvictedAndReportedAsMiss) {
  TempDir dir("sct_store_corrupt_test");
  artifact::ArtifactStore store(dir.path / "store");
  const Digest key{3, 4};
  SctbWriter writer;
  writer.beginSection("s");
  writer.u64(42);
  store.publish(key, writer);

  {
    // Truncate the published file: checksum/structure validation must fail.
    std::ofstream out(store.pathFor(key), std::ios::binary | std::ios::trunc);
    out << "SCTBgarbage";
  }
  EXPECT_FALSE(store.open(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_FALSE(fs::exists(store.pathFor(key)));  // evicted

  // The flow's degrade path: recompute and republish under the same key.
  store.publish(key, writer);
  EXPECT_TRUE(store.open(key).has_value());
}

TEST(ArtifactStore, GcEnforcesByteBudgetOldestFirst) {
  TempDir dir("sct_store_gc_test");
  artifact::ArtifactStore store(dir.path / "store");
  for (std::uint64_t i = 0; i < 4; ++i) {
    SctbWriter writer;
    writer.beginSection("s");
    writer.f64span(std::vector<double>(64, static_cast<double>(i)));
    store.publish(Digest{i, i}, writer);
  }
  const auto [filesBefore, bytesBefore] = store.diskUsage();
  ASSERT_EQ(filesBefore, 4u);

  // A budget of roughly half the store must evict some but not all entries.
  artifact::GcPolicy policy;
  policy.maxBytes = bytesBefore / 2;
  const artifact::GcResult result = store.gc(policy);
  EXPECT_GT(result.filesRemoved, 0u);
  EXPECT_GT(result.filesKept, 0u);
  EXPECT_LE(result.bytesKept, policy.maxBytes);
  const auto [filesAfter, bytesAfter] = store.diskUsage();
  EXPECT_EQ(filesAfter, result.filesKept);
  EXPECT_EQ(bytesAfter, result.bytesKept);

  // maxBytes = 1 clears the store entirely.
  policy.maxBytes = 1;
  (void)store.gc(policy);
  EXPECT_EQ(store.diskUsage().first, 0u);
}

}  // namespace
}  // namespace sct
