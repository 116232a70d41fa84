// daemon-mix: an in-process server::Server on a Unix socket with its shared
// disk store and memory tier. Four client threads each hold one connection
// and pull from one seeded request stream (closed loop). Most requests are
// small-profile flows over {mcu, dsp, noc} x methods x values x the two
// paper periods, about half of them repeating a job sent earlier in the
// round; a fixed few ping, lint, sta, evolve and scenario requests are mixed
// in. Each round starts a fresh server on an empty store.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "liberty/liberty_io.hpp"
#include "netlist/verilog_io.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using server::Response;
using server::Status;

constexpr std::size_t kClients = 4;
constexpr std::size_t kPings = 8;
constexpr std::size_t kBurstCopies = 3;   ///< extra copies per burst
constexpr std::size_t kMinRounds = 2;
/// Wall time of one round's stream on the reference host (4 CPUs): the
/// run's round count is --seconds over this, so both sides of a comparison
/// send the same requests.
constexpr double kNominalRoundSeconds = 1.7;
constexpr double kMediumPeriod = kPaperPeriods[1];

enum class Kind { kFlow, kPing, kLintLib, kLintNetlist, kSta, kEvolve, kScenario };

/// Every request the stream can send, built once per run (inputs, untimed).
struct Catalog {
  std::vector<server::FlowRequest> flows;
  server::LintRequest lintLib;
  server::LintRequest lintNetlist;
  server::StaRequest sta;
  server::EvolveRequest evolve;
  server::ScenarioRequest scenario;
};

struct Entry {
  Kind kind = Kind::kFlow;
  std::size_t flow = 0;  ///< index into Catalog::flows
  bool repeat = false;   ///< flow already sent earlier in the round
};

core::FlowJob smallMcu(double period) {
  core::FlowJob job;
  job.profile = "small";
  job.workload = "mcu";
  job.period = period;
  return job;
}

Catalog buildCatalog() {
  Catalog catalog;
  for (const char* workload : {"mcu", "dsp", "noc"}) {
    for (const core::FlowJob& job : paperJobs("small", workload)) {
      server::FlowRequest request;
      request.job = job;
      catalog.flows.push_back(request);
    }
  }
  core::TuningFlow flow(core::makeFlowConfig(smallMcu(kMediumPeriod)));
  const std::string libraryText =
      liberty::writeLibraryToString(flow.nominalLibrary());
  catalog.lintLib.artifactType = "lib";
  catalog.lintLib.content = libraryText;
  catalog.lintNetlist.artifactType = "netlist";
  catalog.lintNetlist.content = netlist::writeVerilogToString(flow.subject());
  catalog.sta.libraryText = libraryText;
  catalog.sta.netlistText = netlist::writeVerilogToString(
      flow.synthesizeBaseline(kMediumPeriod).synthesis.design);
  catalog.sta.period = kPaperPeriods[0];
  catalog.evolve.job = smallMcu(kMediumPeriod);
  catalog.evolve.params.population = 4;
  catalog.evolve.params.generations = 1;
  catalog.scenario.job = smallMcu(0.0);
  catalog.scenario.periods = {kMediumPeriod};
  catalog.scenario.scenarios = "tuning,clock";
  catalog.scenario.mcTrials = 16;
  return catalog;
}

const char* spanName(Kind kind) {
  switch (kind) {
    case Kind::kFlow: return "client.flow";
    case Kind::kPing: return "client.ping";
    case Kind::kLintLib:
    case Kind::kLintNetlist: return "client.lint";
    case Kind::kSta: return "client.sta";
    case Kind::kEvolve: return "client.evolve";
    case Kind::kScenario: return "client.scenario";
  }
  return "client.unknown";
}

std::string expectedKey(const Catalog& catalog, const Entry& entry) {
  switch (entry.kind) {
    case Kind::kFlow: return "flow/" + jobKey(catalog.flows[entry.flow].job);
    case Kind::kLintLib: return "lint/small/lib";
    case Kind::kLintNetlist: return "lint/small/mcu-netlist";
    case Kind::kSta: return "sta/small/mcu";
    case Kind::kEvolve: return "evolve/small/mcu";
    case Kind::kScenario: return "scenario/small/mcu";
    case Kind::kPing: return "ping";
  }
  return "";
}

std::string pingEcho(std::size_t index) { return "ping-" + std::to_string(index); }

Response send(server::Client& client, const Catalog& catalog,
              const Entry& entry, std::size_t index) {
  switch (entry.kind) {
    case Kind::kFlow: return client.flow(catalog.flows[entry.flow]);
    case Kind::kLintLib: return client.lint(catalog.lintLib);
    case Kind::kLintNetlist: return client.lint(catalog.lintNetlist);
    case Kind::kSta: return client.sta(catalog.sta);
    case Kind::kEvolve: return client.evolve(catalog.evolve);
    case Kind::kScenario: return client.scenario(catalog.scenario);
    case Kind::kPing: {
      server::PingRequest ping;
      ping.echo = pingEcho(index);
      return client.ping(ping);
    }
  }
  throw std::logic_error("unknown request kind");
}

/// The round's seeded stream. The cold half sends every flow of the universe
/// once, in seeded order, with the extras at seeded places and two bursts of
/// four copies of one job (the copies coalesce on the in-flight leader). The
/// warm half sends every flow twice more, so two thirds of the flows repeat
/// a job already sent — enough that the request median sits inside the
/// cache-hit population rather than on its border with the cold flows, and
/// the same mix for every seed. Only the first round carries the evolve and
/// scenario requests: they take seconds, and one of each per run keeps the
/// latency tails inside the flow population.
std::vector<Entry> roundStream(const Catalog& catalog, std::uint64_t seed,
                               bool first) {
  Stream stream(seed);
  std::vector<std::size_t> universe(catalog.flows.size());
  for (std::size_t i = 0; i < universe.size(); ++i) universe[i] = i;

  std::vector<Entry> entries;
  std::vector<std::size_t> cold = universe;
  stream.shuffle(cold);
  for (const std::size_t flow : cold) entries.push_back({Kind::kFlow, flow, false});
  std::vector<Kind> extras(kPings, Kind::kPing);
  for (const Kind kind : {Kind::kLintLib, Kind::kLintNetlist, Kind::kSta,
                          Kind::kSta}) {
    extras.push_back(kind);
  }
  if (first) {
    extras.push_back(Kind::kEvolve);
    extras.push_back(Kind::kScenario);
  }
  for (const Kind kind : extras) {
    const auto at = static_cast<std::ptrdiff_t>(stream.below(entries.size()));
    entries.insert(entries.begin() + at, Entry{kind, 0, false});
  }
  for (int burst = 0; burst < 2; ++burst) {
    std::size_t at = stream.below(entries.size());
    while (entries[at].kind != Kind::kFlow) at = stream.below(entries.size());
    entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                   kBurstCopies, Entry{Kind::kFlow, entries[at].flow, true});
  }

  std::vector<std::size_t> warm = universe;
  warm.insert(warm.end(), universe.begin(), universe.end());
  stream.shuffle(warm);
  for (const std::size_t flow : warm) entries.push_back({Kind::kFlow, flow, true});
  return entries;
}

struct Sample {
  double seconds = 0.0;
  bool ok = false;
  std::string problem;  ///< empty when ok
  std::string body;     ///< kept only for the sampled flow and the evolve
};

struct Round {
  double setupSeconds = 0.0;
  double streamSeconds = 0.0;
  std::vector<Sample> samples;  ///< one per stream entry
};

std::string checkResponse(const Catalog& catalog, const Entry& entry,
                          std::size_t index, const Response& response,
                          const ExpectedTable* expected) {
  if (response.status != Status::kOk) {
    return "status " + std::to_string(static_cast<int>(response.status)) +
           ": " + response.summary;
  }
  if (entry.kind == Kind::kPing) {
    return response.body == pingEcho(index) ? "" : "ping echo mismatch";
  }
  if (expected == nullptr) return "";
  const std::string key = expectedKey(catalog, entry);
  const std::optional<std::string> want = expected->find(key);
  const std::string digest = digestOf(response.body);
  if (want && *want == digest) return "";
  return key + ": body digest " + digest + " != expected " +
         want.value_or("(none)");
}

/// One round on a fresh server: set-up (start, fill the store with the
/// small-profile libraries, connect the clients), then the stream.
Round runRound(const Catalog& catalog, const std::vector<Entry>& entries,
               const fs::path& dir, const ExpectedTable* expected,
               std::size_t keepBodyOf) {
  Round round;
  fs::create_directories(dir);
  const Clock::time_point setupStart = Clock::now();
  server::ServerConfig config;
  config.socketPath = (dir / "s.sock").string();
  config.sessionThreads = kClients;
  config.service.cacheDir = (dir / "store").string();
  server::Server daemon(config);
  daemon.start();
  {
    core::FlowConfig fill = core::makeFlowConfig(smallMcu(kMediumPeriod));
    fill.sharedStore = daemon.service().store();
    core::TuningFlow flow(fill);
    (void)flow.nominalLibrary();
    (void)flow.statLibrary();
  }
  std::vector<server::Client> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(server::Client::connectUnix(config.socketPath));
  }
  round.setupSeconds = secondsSince(setupStart);

  round.samples.resize(entries.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point streamStart = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = next++; i < entries.size(); i = next++) {
        const Entry& entry = entries[i];
        Sample& sample = round.samples[i];
        const Clock::time_point start = Clock::now();
        try {
          const Response response = inSpan(spanName(entry.kind),
                                           static_cast<long>(i), [&] {
                                             return send(clients[c], catalog,
                                                         entry, i);
                                           });
          sample.seconds = secondsSince(start);
          sample.problem = checkResponse(catalog, entry, i, response, expected);
          if (i == keepBodyOf || entry.kind == Kind::kEvolve) {
            sample.body = response.body;
          }
        } catch (const std::exception& error) {
          sample.seconds = secondsSince(start);
          sample.problem = error.what();
        }
        sample.ok = sample.problem.empty();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  round.streamSeconds = secondsSince(streamStart);
  clients.clear();
  daemon.stop();
  fs::remove_all(dir);
  return round;
}

/// Stream index of a seeded flow entry whose body is checked against an
/// in-process core::runFlowJob.
std::size_t sampledFlow(const std::vector<Entry>& entries, std::uint64_t seed) {
  Stream stream(seed ^ 0x5a5a5a5aull);
  for (;;) {
    const std::size_t i = stream.below(entries.size());
    if (entries[i].kind == Kind::kFlow) return i;
  }
}

std::uint64_t roundSeed(std::uint64_t seed, std::size_t round) {
  return Stream(seed + 0x9e3779b97f4a7c15ull * (round + 1)).next();
}

/// Adds the round's samples and checks to the run result.
void tally(RunResult& out, const Catalog& catalog,
           const std::vector<Entry>& entries, const Round& round,
           std::size_t sampled) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out.count(round.samples[i].ok, std::string(spanName(entries[i].kind)) +
                                       " #" + std::to_string(i) + ": " +
                                       round.samples[i].problem);
  }
  const core::FlowJob& job = catalog.flows[entries[sampled].flow].job;
  core::TuningFlow local(core::makeFlowConfig(job));
  if (core::runFlowJob(local, job).report != round.samples[sampled].body) {
    out.fail(jobKey(job) + ": daemon flow response differs from runFlowJob");
  }
}

RunResult record(const Options& options) {
  const Catalog catalog = buildCatalog();
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < catalog.flows.size(); ++i) {
    entries.push_back({Kind::kFlow, i, false});
  }
  for (const Kind kind : {Kind::kLintLib, Kind::kLintNetlist, Kind::kSta,
                          Kind::kEvolve, Kind::kScenario}) {
    entries.push_back({kind, 0, false});
  }
  fs::create_directories(options.workDir);
  server::ServerConfig config;
  config.socketPath = (options.workDir / "record.sock").string();
  config.service.cacheDir = (options.workDir / "record-store").string();
  std::map<std::string, std::string> digests;
  RunResult out;
  {
    server::Server daemon(config);
    daemon.start();
    server::Client client = server::Client::connectUnix(config.socketPath);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Response response = send(client, catalog, entries[i], i);
      const std::string key = expectedKey(catalog, entries[i]);
      out.count(response.status == Status::kOk, key + ": " + response.summary);
      digests[key] = digestOf(response.body);
      if (entries[i].kind == Kind::kFlow) {
        const core::FlowJob& job = catalog.flows[entries[i].flow].job;
        core::TuningFlow local(core::makeFlowConfig(job));
        out.count(core::runFlowJob(local, job).report == response.body,
                  key + ": daemon response differs from runFlowJob");
      }
    }
    client.close();
    daemon.stop();
  }
  fs::remove_all(options.workDir / "record-store");
  writeExpectedTable(*options.recordPath,
                     "daemon-mix: response body digest of every request",
                     digests);
  return out;
}

RunResult traced(const Options& options, const Catalog& catalog,
                 const ExpectedTable& expected) {
  RunResult out;
  LayerReport layers;
  SpanRecorder& spans = SpanRecorder::global();
  const std::vector<Entry> entries =
      roundStream(catalog, roundSeed(options.seed, 0), true);
  const std::size_t sampled = sampledFlow(entries, options.seed);
  const fs::path dir = options.workDir / ("daemon-mix-trace-" + std::to_string(::getpid()));

  const Round plain = runRound(catalog, entries, dir, &expected, sampled);
  tally(out, catalog, entries, plain, sampled);

  obs::MetricsRegistry::global().resetValues();
  obs::setMetricsEnabled(true);
  spans.setEnabled(true);
  const Round traced = runRound(catalog, entries, dir, &expected, sampled);
  spans.setEnabled(false);
  obs::setMetricsEnabled(false);
  tally(out, catalog, entries, traced, sampled);
  layers.setCounters(obs::MetricsRegistry::global().snapshot());

  std::vector<double> pings;
  double rejects = 0.0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].kind == Kind::kPing) pings.push_back(traced.samples[i].seconds);
    if (!traced.samples[i].ok) rejects += 1.0;
    if (entries[i].kind == Kind::kEvolve) {
      // "evaluations <n> unique <m>" line of the evolve report.
      std::istringstream body(traced.samples[i].body);
      std::string line;
      while (std::getline(body, line)) {
        std::istringstream fields(line);
        std::string tag;
        std::string uniqueTag;
        double evaluations = 0.0;
        double unique = 0.0;
        if (fields >> tag >> evaluations >> uniqueTag >> unique &&
            tag == "evaluations" && uniqueTag == "unique" && evaluations > 0.0) {
          layers.set("evo.unique_ratio", unique / evaluations);
        }
      }
    }
  }
  auto totals = spans.totals();
  layers.set("server.ping_ms", median(pings) * 1e3);
  layers.set("server.rejects", rejects);
  layers.set("evo.rtt_s", totals["client.evolve"].first);
  layers.set("postsi.scenario_s", totals["client.scenario"].first);
  layers.set("trace.overhead_s", traced.streamSeconds - plain.streamSeconds);
  noteSpanTable(out);
  spans.write(options.workDir /
              ("spans-daemon-mix-seed" + std::to_string(options.seed) + ".tsv"));
  layers.emit(out);
  return out;
}

}  // namespace

RunResult runDaemonMix(const Options& options) {
  if (options.recordPath) return record(options);
  const ExpectedTable expected =
      ExpectedTable::load(options.expectedDir / "daemon-mix.txt");
  const Catalog catalog = buildCatalog();
  if (options.trace) return traced(options, catalog, expected);

  RunResult out;
  std::vector<double> setups;
  std::vector<std::vector<double>> cold;
  std::vector<std::vector<double>> warm;
  std::vector<std::vector<double>> all;
  std::vector<double> rates;
  const fs::path dir = options.workDir / ("daemon-mix-" + std::to_string(::getpid()));
  const std::size_t rounds = std::max(
      kMinRounds,
      static_cast<std::size_t>(std::lround(options.seconds / kNominalRoundSeconds)));
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::vector<Entry> entries =
        roundStream(catalog, roundSeed(options.seed, r), r == 0);
    const std::size_t sampled = sampledFlow(entries, roundSeed(options.seed, r));
    const Round round = runRound(catalog, entries, dir, &expected, sampled);
    tally(out, catalog, entries, round, sampled);
    setups.push_back(round.setupSeconds);
    rates.push_back(static_cast<double>(entries.size()) / round.streamSeconds);
    cold.emplace_back();
    warm.emplace_back();
    all.emplace_back();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const double seconds = round.samples[i].seconds;
      all.back().push_back(seconds);
      if (entries[i].kind == Kind::kFlow) {
        (entries[i].repeat ? warm : cold).back().push_back(seconds);
      }
    }
  }

  // Each statistic per round, then the median over the rounds: a transient
  // host slowdown moves a few rounds, not the reported figure.
  out.add("setup_s", median(setups), "s");
  addLatency(out, "flow_cold", cold, 1.0, "s");
  addLatency(out, "flow_warm", warm, 1.0, "s");
  addLatency(out, "req", all, 1e3, "ms");
  out.add("req_per_s", median(rates), "1/s");
  out.add("peak_rss_mb", peakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
