#pragma once
// Consult-then-compute wrapper shared by every cache-keyed pipeline stage
// (DESIGN.md §10/§14): the flow's characterize/stat/tune/synth/measure
// stages and the post-silicon scenario runner all funnel through cachedStage
// so a validated hit — from the in-memory tier first, then the on-disk
// store — short-circuits the computation, misses coalesce through one
// process-wide single-flight group, and published bytes serve warm runs
// bit-identically.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "artifact/binary_format.hpp"
#include "artifact/hash.hpp"
#include "artifact/mem_cache.hpp"
#include "artifact/single_flight.hpp"
#include "artifact/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sct::core {

/// Process-wide single-flight group over stage digests (DESIGN.md §14):
/// concurrent flows sharing cache tiers (the daemon's sessions) coalesce
/// onto one computation per key instead of racing to recompute.
inline artifact::SingleFlight& stageSingleFlight() {
  static artifact::SingleFlight instance;
  return instance;
}

/// Consult-then-compute wrapper around one pipeline stage: a validated cache
/// hit — from the in-memory tier first, then the on-disk store — short-
/// circuits `compute`; a decode failure (checksums fine but the payload is
/// semantically unusable, e.g. a stale cell name) falls through to
/// recompute-and-republish, never to wrong data. A miss takes the per-key
/// single-flight lock: whoever acquires it first computes and publishes,
/// late arrivals re-probe under the lock and decode the freshly published
/// bytes instead of recomputing.
///
/// `stageName` must be a string literal (e.g. "flow.stage.nominal"): it names
/// the trace span and prefixes the per-stage instruments
/// `<stage>.{probes,hits,mem_hits,misses,stores,ns}` that the CLI's
/// per-stage table reads back out of the metrics snapshot.
template <class T, class ComputeFn, class EncodeFn, class DecodeFn>
T cachedStage(artifact::ArtifactStore* store, artifact::MemoryArtifactCache* mem,
              const char* stageName, const artifact::Digest& key,
              ComputeFn&& compute, EncodeFn&& encode, DecodeFn&& decode) {
  obs::TraceSpan span(stageName);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::string prefix(stageName);
  obs::Counter& durationNs = registry.counter(prefix + ".ns");
  const bool timed = obs::metricsEnabled();
  const std::uint64_t start = timed ? obs::monotonicNanos() : 0;
  const auto finish = [&](T value) {
    if (timed) durationNs.add(obs::monotonicNanos() - start);
    return value;
  };
  const auto probe = [&]() -> std::optional<T> {
    if (mem != nullptr) {
      if (std::shared_ptr<const artifact::SctbReader> reader = mem->get(key)) {
        try {
          T value = decode(*reader);
          registry.counter(prefix + ".hits").inc();
          registry.counter(prefix + ".mem_hits").inc();
          return value;
        } catch (const artifact::FormatError&) {
          mem->erase(key);  // unusable for these inputs: recompute below
        }
      }
    }
    if (store != nullptr) {
      if (std::optional<artifact::SctbReader> reader = store->open(key)) {
        try {
          T value = decode(*reader);
          if (mem != nullptr) {
            mem->put(key, std::make_shared<const artifact::SctbReader>(
                              std::move(*reader)));
          }
          registry.counter(prefix + ".hits").inc();
          return value;
        } catch (const artifact::FormatError&) {
        }
      }
    }
    return std::nullopt;
  };

  if (store == nullptr && mem == nullptr) return finish(compute());

  registry.counter(prefix + ".probes").inc();
  if (std::optional<T> value = probe()) return finish(std::move(*value));
  // lock() without a deadline always yields a guard.
  const std::optional<artifact::SingleFlight::Guard> guard =
      stageSingleFlight().lock(key);
  if (guard->waited()) {
    // Another thread was computing this key; its publication should now be
    // visible. When it failed (no publication), we inherit leadership.
    if (std::optional<T> value = probe()) {
      registry.counter("flow.singleflight.coalesced").inc();
      return finish(std::move(*value));
    }
  }
  registry.counter(prefix + ".misses").inc();
  registry.counter("flow.singleflight.leader").inc();
  T value = compute();
  artifact::SctbWriter writer;
  encode(writer, value);
  auto reader = std::make_shared<const artifact::SctbReader>(
      artifact::SctbReader::fromWriter(writer));
  if (store != nullptr) store->publishBytes(key, reader->rawBytes());
  if (mem != nullptr) mem->put(key, std::move(reader));
  registry.counter(prefix + ".stores").inc();
  return finish(std::move(value));
}

/// One inner phase of a stage (e.g. "flow.measure.sta"): a trace span of
/// that name plus, while metrics are on, the counter `<name>.ns` that the
/// CLI's per-stage table lists under the stage. `name` must be a string
/// literal.
class StagePhase {
 public:
  explicit StagePhase(const char* name)
      : span_(name),
        name_(name),
        timed_(obs::metricsEnabled()),
        start_(timed_ ? obs::monotonicNanos() : 0) {}
  ~StagePhase() {
    if (timed_) {
      obs::MetricsRegistry::global()
          .counter(std::string(name_) + ".ns")
          .add(obs::monotonicNanos() - start_);
    }
  }
  StagePhase(const StagePhase&) = delete;
  StagePhase& operator=(const StagePhase&) = delete;

 private:
  obs::TraceSpan span_;
  const char* name_;
  bool timed_;
  std::uint64_t start_;
};

}  // namespace sct::core
