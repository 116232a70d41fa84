#pragma once
// Request execution behind the sctuned daemon (DESIGN.md §14): one
// TuningService instance is shared by every session. It owns the shared
// cache tiers —
//
//   response cache   memory-resident, keyed by the request's section name
//                    plus its field list (protocol.hpp; the deadline is not
//                    in the list); a hit re-serves the exact encoded
//                    response bytes
//   stage caches     the on-disk ArtifactStore plus the in-memory tier,
//                    injected into each request's TuningFlow, so different
//                    requests still share characterization/stat/tune/synth
//                    stage artifacts
//
// and a request-level SingleFlight: K concurrent identical requests compute
// once — one leader runs the flow, the waiters block on the key and then
// serve the leader's published response. Responses are a pure function of
// the request, so cached, coalesced and freshly computed responses are all
// byte-identical.
//
// Thread-safety: handle() may be called from any number of session threads
// concurrently. The caches and single-flight table are internally locked;
// flow stages additionally dedup through the flow's own stage-level
// single-flight.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "artifact/mem_cache.hpp"
#include "artifact/single_flight.hpp"
#include "artifact/store.hpp"
#include "server/protocol.hpp"

namespace sct::server {

struct ServiceConfig {
  /// Root of the shared on-disk artifact store; empty = no disk tier (the
  /// in-memory tiers still work).
  std::string cacheDir;
  /// Byte budget of the shared in-memory cache (responses + stage
  /// artifacts; both live in one LRU so hot responses can evict cold stage
  /// artifacts and vice versa). 0 disables memory caching entirely.
  std::uint64_t memCacheBytes = 256ull << 20;
};

class TuningService {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TuningService(const ServiceConfig& config);
  ~TuningService();
  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Executes one request; `received` is the base of the request's
  /// deadline — the accept time for a session's first request (so time
  /// spent in the admission queue counts against it), the frame parse time
  /// for later requests on the same connection. A deadline rejects
  /// requests still waiting — in the admission queue or blocked behind an
  /// identical in-flight computation — when it expires; it does not
  /// preempt compute that already started. Never throws: every failure
  /// becomes a Status::kError response.
  [[nodiscard]] Response handle(MessageType type,
                                std::span<const std::byte> payload,
                                Clock::time_point received);

  /// Pre-encoded response bytes for the fast paths (busy rejection at the
  /// accept gate must not allocate much or block on caches).
  [[nodiscard]] static std::span<const std::byte> busyResponseBytes();
  [[nodiscard]] static std::span<const std::byte> shuttingDownResponseBytes();

  [[nodiscard]] const artifact::MemoryArtifactCache& memCache() const noexcept {
    return mem_;
  }
  [[nodiscard]] artifact::ArtifactStore* store() noexcept {
    return store_.get();
  }

  /// The health body: sct-metrics-v1 JSON of the global metrics snapshot
  /// (cache tier gauges refreshed first).
  [[nodiscard]] std::string healthJson();

 private:
  /// The one request path: decode R, open its span, check the deadline,
  /// then answer through cachedResponse (pings bypass the cache: each one
  /// must sleep).
  template <class R>
  Response serve(std::span<const std::byte> payload,
                 Clock::time_point received);

  /// Per-kind compute bodies behind serve(). The template serves the job
  /// kinds (flow, scenario, evolve): the runner shared with the CLI, on a
  /// flow wired to the shared cache tiers.
  template <class R>
  Response compute(const R& request);
  static Response compute(const LintRequest& request);
  static Response compute(const StaRequest& request);
  static Response compute(const PingRequest& request);

  /// Shared cache + single-flight harness around one cacheable request:
  /// probe by digest, elect a leader, compute, publish, re-serve. A waiter
  /// whose `deadline` passes while blocked behind the leader answers
  /// kTimeout instead of computing.
  Response cachedResponse(const artifact::Digest& key,
                          Clock::time_point deadline,
                          const std::function<Response()>& compute);

  std::unique_ptr<artifact::ArtifactStore> store_;  ///< null when no disk tier
  artifact::MemoryArtifactCache mem_;
  artifact::SingleFlight flights_;
};

}  // namespace sct::server
