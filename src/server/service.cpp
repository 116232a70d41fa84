#include "server/service.hpp"

#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include "artifact/hash.hpp"
#include "liberty/liberty_io.hpp"
#include "lint/engine.hpp"
#include "lint/loaded_artifact.hpp"
#include "lint/report_io.hpp"
#include "netlist/verilog_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/jobs.hpp"
#include "sta/report.hpp"
#include "sta/sta.hpp"

namespace sct::server {
namespace {

/// Find-or-create is mutex-guarded inside the registry, but resolving the
/// instruments once keeps the per-request path to pure atomic increments.
struct ServiceMetrics {
  obs::Counter& requests;
  obs::Counter& responsesOk;
  obs::Counter& responsesError;
  obs::Counter& responsesTimeout;
  obs::Counter& cacheHits;
  obs::Counter& cacheMisses;
  obs::Counter& singleflightLeader;
  obs::Counter& singleflightCoalesced;

  static ServiceMetrics& get() {
    static ServiceMetrics m{
        obs::MetricsRegistry::global().counter("server.requests"),
        obs::MetricsRegistry::global().counter("server.responses.ok"),
        obs::MetricsRegistry::global().counter("server.responses.error"),
        obs::MetricsRegistry::global().counter("server.responses.timeout"),
        obs::MetricsRegistry::global().counter("server.cache.hits"),
        obs::MetricsRegistry::global().counter("server.cache.misses"),
        obs::MetricsRegistry::global().counter("server.singleflight.leader"),
        obs::MetricsRegistry::global().counter(
            "server.singleflight.coalesced"),
    };
    return m;
  }
};

Response errorResponse(const std::string& message) {
  Response r;
  r.status = Status::kError;
  r.summary = message;
  return r;
}

Response timeoutResponse(const char* what) {
  Response r;
  r.status = Status::kTimeout;
  r.summary = what;
  return r;
}

/// Absolute deadline of a request received at `received`. 0 and any value
/// past the clock's range mean "no deadline": the wire field is an unbounded
/// u64, and adding it unchecked would wrap (2^64-1 ms is -1 ms as a signed
/// count) or overflow the clock's signed nanoseconds.
TuningService::Clock::time_point deadlineFor(
    TuningService::Clock::time_point received, std::uint64_t millis) {
  using Clock = TuningService::Clock;
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - received);
  if (millis == 0 || millis >= static_cast<std::uint64_t>(headroom.count())) {
    return Clock::time_point::max();
  }
  return received + std::chrono::milliseconds(millis);
}

std::vector<std::byte> encodeStatic(Status status, const char* summary) {
  Response r;
  r.status = status;
  r.summary = summary;
  return encodeResponse(r);
}

}  // namespace

TuningService::TuningService(const ServiceConfig& config)
    : mem_(config.memCacheBytes) {
  if (!config.cacheDir.empty()) {
    store_ = std::make_unique<artifact::ArtifactStore>(config.cacheDir);
  }
}

TuningService::~TuningService() = default;

std::span<const std::byte> TuningService::busyResponseBytes() {
  static const std::vector<std::byte> bytes =
      encodeStatic(Status::kBusy, "server at capacity, retry later");
  return bytes;
}

std::span<const std::byte> TuningService::shuttingDownResponseBytes() {
  static const std::vector<std::byte> bytes =
      encodeStatic(Status::kShuttingDown, "server is shutting down");
  return bytes;
}

Response TuningService::handle(MessageType type,
                               std::span<const std::byte> payload,
                               Clock::time_point received) {
  ServiceMetrics::get().requests.inc();
  Response response;
  try {
    if (type == MessageType::kHealthRequest) {
      response = {Status::kOk, "ok", healthJson()};
    } else if (type == MessageType::kShutdownRequest) {
      // The server layer watches for this type and begins draining; the
      // service only acknowledges.
      response = {Status::kOk, "shutting down", {}};
    } else if (!anyRequestKind([&]<class R>(std::type_identity<R>) {
                 if (type != R::kType) return false;
                 response = serve<R>(payload, received);
                 return true;
               })) {
      response = errorResponse("not a request type");
    }
  } catch (const std::exception& e) {
    response = errorResponse(e.what());
  } catch (...) {
    response = errorResponse("unknown error");
  }
  switch (response.status) {
    case Status::kOk:
      ServiceMetrics::get().responsesOk.inc();
      break;
    case Status::kTimeout:
      ServiceMetrics::get().responsesTimeout.inc();
      break;
    default:
      ServiceMetrics::get().responsesError.inc();
      break;
  }
  return response;
}

Response TuningService::cachedResponse(
    const artifact::Digest& key, Clock::time_point deadline,
    const std::function<Response()>& compute) {
  const auto probe = [&]() -> std::optional<Response> {
    if (const auto reader = mem_.get(key)) {
      ServiceMetrics::get().cacheHits.inc();
      return decodeResponse(reader->rawBytes());
    }
    return std::nullopt;
  };

  if (auto hit = probe()) return *hit;
  ServiceMetrics::get().cacheMisses.inc();

  // Exactly one session computes a given key at a time; the others block
  // here and then serve the leader's published bytes. A leader that failed
  // (kError response, not cached) hands leadership to the next waiter.
  auto guard = flights_.lock(key, deadline);
  if (!guard) {
    return timeoutResponse(
        "deadline expired waiting for an identical in-flight request");
  }
  if (guard->waited()) {
    ServiceMetrics::get().singleflightCoalesced.inc();
    if (auto hit = probe()) return *hit;
  }
  ServiceMetrics::get().singleflightLeader.inc();

  Response response = compute();
  if (response.status == Status::kOk) {
    // Publish the encoded bytes; later hits decode this exact container,
    // so cached and fresh responses are byte-identical.
    artifact::SctbWriter writer;
    encodeResponse(writer, response);
    mem_.put(key, std::make_shared<const artifact::SctbReader>(
                      artifact::SctbReader::fromWriter(writer)));
  }
  return response;
}

template <class R>
Response TuningService::serve(std::span<const std::byte> payload,
                              Clock::time_point received) {
  const R request = decodeRequest<R>(payload);
  SCT_TRACE_SPAN(R::kSpan);
  const Clock::time_point deadline =
      deadlineFor(received, request.deadlineMillis);
  if (Clock::now() >= deadline) {
    return timeoutResponse("deadline expired before compute started");
  }
  if constexpr (std::is_same_v<R, PingRequest>) {
    return compute(request);
  } else {
    return cachedResponse(requestKey(request), deadline,
                          [&] { return compute(request); });
  }
}

template <class R>
Response TuningService::compute(const R& request) {
  core::FlowConfig config = core::makeFlowConfig(request.job);
  config.sharedStore = store_.get();
  config.sharedMemCache = &mem_;
  core::TuningFlow flow(std::move(config));
  JobResult result = runJob(request, flow);
  return {Status::kOk, std::move(result.summary), std::move(result.body)};
}

Response TuningService::compute(const LintRequest& request) {
  const lint::LoadedArtifact artifact(request.artifactType, request.content,
                                      nullptr);
  const lint::LintEngine engine = lint::LintEngine::withAllRules();
  const lint::LintReport report = engine.run(artifact.subject());
  return {Status::kOk, report.summary(),
          request.json ? lint::writeJsonToString(report)
                       : lint::writeTextToString(report)};
}

Response TuningService::compute(const StaRequest& request) {
  checkPeriod(request.period);
  const liberty::Library library =
      liberty::readLibraryFromString(request.libraryText);
  const netlist::Design design =
      netlist::readVerilogFromString(request.netlistText, &library);
  sta::ClockSpec clock;
  clock.period = request.period;
  sta::TimingAnalyzer analyzer(design, library, clock);
  if (!analyzer.analyze()) {
    return errorResponse("timing analysis failed (combinational cycle)");
  }
  std::ostringstream summary;
  summary << "sta: " << design.name() << " wns "
          << (analyzer.met() ? "met" : "violated");
  return {Status::kOk, summary.str(),
          sta::timingReportToString(design, analyzer)};
}

Response TuningService::compute(const PingRequest& request) {
  if (request.sleepMillis > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(request.sleepMillis));
  }
  return {Status::kOk, "pong", request.echo};
}

std::string TuningService::healthJson() {
  // Refresh the cache-tier gauges so the snapshot carries current sizes
  // (counters stream in continuously; sizes are sampled here).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const artifact::MemCacheStats mem = mem_.stats();
  registry.gauge("server.memcache.bytes").set(static_cast<double>(mem.bytes));
  registry.gauge("server.memcache.entries")
      .set(static_cast<double>(mem.entries));
  registry.gauge("server.memcache.capacity")
      .set(static_cast<double>(mem.capacity));
  // Lifetime traffic counters of the shared tier: hit ratio and eviction
  // pressure are the two numbers that justify (or resize) the byte budget.
  registry.gauge("server.memcache.hits").set(static_cast<double>(mem.hits));
  registry.gauge("server.memcache.misses")
      .set(static_cast<double>(mem.misses));
  registry.gauge("server.memcache.insertions")
      .set(static_cast<double>(mem.insertions));
  registry.gauge("server.memcache.evictions")
      .set(static_cast<double>(mem.evictions));
  std::ostringstream out;
  obs::writeMetricsJson(out, registry.snapshot());
  return out.str();
}

}  // namespace sct::server
