#pragma once
// SCTP — the sctuned daemon's wire protocol (DESIGN.md §14). Every message
// is one length-prefixed frame:
//
//   offset 0   char[4]  magic "SCTP"
//          4   u32      message type (MessageType, little-endian)
//          8   u64      payload byte count (little-endian)
//         16   payload  SCTB container (or empty)
//
// Payloads reuse the SCTB artifact container (src/artifact): the same
// codecs, checksums and version gate that protect the on-disk cache protect
// the wire. A frame with a bad magic, an unknown type, or a payload above
// kMaxPayloadBytes is a protocol error — the server answers kStatusError
// (when it still can) and drops the connection; it never crashes and never
// trusts a byte past validation. Truncated frames (peer died mid-send) read
// as clean EOFs or short reads and close the session.
//
// Responses carry a status + summary + body. Response *bytes are a pure
// function of the request*: no timestamps, no server identity, no
// cached/coalesced markers — so a response served from the daemon's response
// cache is byte-identical to a freshly computed one, and a flow, scenario or
// evolve response body is byte-identical to the CLI's --report file for the
// same request (both run through server::runJob, src/server/jobs.hpp).

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "artifact/binary_format.hpp"
#include "artifact/fields.hpp"
#include "artifact/hash.hpp"
#include "clocktree/clock_tree.hpp"
#include "core/flow_job.hpp"
#include "evo/params.hpp"

namespace sct::server {

inline constexpr char kFrameMagic[4] = {'S', 'C', 'T', 'P'};
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Upper bound on a single frame payload; anything larger is an attack or a
/// bug, not a workload (a full flow report is a few hundred KB).
inline constexpr std::uint64_t kMaxPayloadBytes = 64ull << 20;

enum class MessageType : std::uint32_t {
  kFlowRequest = 1,
  kLintRequest = 2,
  kStaRequest = 3,
  kHealthRequest = 4,
  kPingRequest = 5,
  kShutdownRequest = 6,
  kScenarioRequest = 7,
  kEvolveRequest = 8,
  kResponse = 100,
};

/// True for the types a client may send.
[[nodiscard]] bool isRequestType(std::uint32_t raw) noexcept;

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,    ///< request failed (parse error, unknown method, ...)
  kBusy = 2,     ///< admission control rejected the session/request
  kTimeout = 3,  ///< the request's deadline expired before compute started
  kShuttingDown = 4,
};

/// Raised on malformed frames and payloads (the recv path catches it).
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& message)
      : std::runtime_error("SCTP: " + message) {}
};

// ---- requests ------------------------------------------------------------
//
// Each request struct is the single definition of its kind: static traits
// (message type, client op name, SCTB section name, trace span) and the
// fields() list below it, in wire order. The list drives the codec (which
// appends deadlineMillis) and the response-cache key (which leaves it out).
// A new kind is one struct with its fields(), an entry in RequestKinds, one
// TuningService::compute overload and one CLI parseArgs overload (with its
// requestFlags list).

using artifact::FieldsOf;

/// Runs the full tuning flow (characterize → stat → tune → synth → measure)
/// and returns the deterministic "flow-report v1" text as the body.
struct FlowRequest {
  static constexpr MessageType kType = MessageType::kFlowRequest;
  static constexpr const char* kName = "flow";  ///< `sctune client` op
  static constexpr const char* kSection = "flow-req";
  static constexpr const char* kSpan = "server.flow";
  core::FlowJob job;
  std::uint64_t deadlineMillis = 0;  ///< 0 = no deadline
};

template <FieldsOf<FlowRequest> R>
auto fields(R& r) { return std::tie(r.job); }

/// Lints one text artifact with the full rule set; body is the text (or
/// JSON) lint report.
struct LintRequest {
  static constexpr MessageType kType = MessageType::kLintRequest;
  static constexpr const char* kName = "lint";
  static constexpr const char* kSection = "lint-req";
  static constexpr const char* kSpan = "server.lint";
  std::string artifactType;  ///< lib | stat | netlist | constraints
  std::string content;       ///< the artifact text itself
  bool json = false;         ///< render the report as JSON instead of text
  std::uint64_t deadlineMillis = 0;
};

template <FieldsOf<LintRequest> R>
auto fields(R& r) { return std::tie(r.artifactType, r.content, r.json); }

/// Static timing of a netlist against a library; body is the full timing
/// report (sta::writeTimingReport).
struct StaRequest {
  static constexpr MessageType kType = MessageType::kStaRequest;
  static constexpr const char* kName = "sta";
  static constexpr const char* kSection = "sta-req";
  static constexpr const char* kSpan = "server.sta";
  std::string libraryText;
  std::string netlistText;
  double period = 0.0;
  std::uint64_t deadlineMillis = 0;
};

template <FieldsOf<StaRequest> R>
auto fields(R& r) { return std::tie(r.libraryText, r.netlistText, r.period); }

/// Runs the post-silicon scenario matrix (postsi::runScenarioJob); body is
/// the deterministic "scenario-report v1" text, or the JSON rendering when
/// `json` is set — both byte-identical to the CLI's output for the same job.
struct ScenarioRequest {
  static constexpr MessageType kType = MessageType::kScenarioRequest;
  static constexpr const char* kName = "scenario";
  static constexpr const char* kSection = "scenario-req";
  static constexpr const char* kSpan = "server.scenario";
  core::FlowJob job;            ///< flow part (period field unused)
  std::vector<double> periods;  ///< explicit clock periods [ns], at most 64
  std::string scenarios = "tuning,clock,buffers";
  clocktree::TuningElementSpec element{0.0, 0.3, 0.05, 2.0};
  std::uint64_t mcTrials = 0;  ///< 0 = profile default
  std::uint64_t mcSeed = 2014;
  bool json = false;
  std::uint64_t deadlineMillis = 0;
};

template <FieldsOf<ScenarioRequest> R>
auto fields(R& r) {
  return std::tie(r.job, r.periods, r.scenarios, r.element, r.mcTrials,
                  r.mcSeed, r.json);
}

/// Runs the multi-objective evolutionary window tuner (evo::runEvolveJob);
/// body is the deterministic "evolve-report v1" text, or the JSON rendering
/// when `json` is set — both byte-identical to `sctune evolve` for the same
/// job.
struct EvolveRequest {
  static constexpr MessageType kType = MessageType::kEvolveRequest;
  static constexpr const char* kName = "evolve";
  static constexpr const char* kSection = "evolve-req";
  static constexpr const char* kSpan = "server.evolve";
  core::FlowJob job;  ///< profile/workload/period/mc/lint (method unused)
  evo::EvolveParams params;
  bool json = false;
  std::uint64_t deadlineMillis = 0;
};

template <FieldsOf<EvolveRequest> R>
auto fields(R& r) { return std::tie(r.job, r.params, r.json); }

/// Diagnostic echo; sleeps for sleepMillis on the session worker before
/// answering (load/deadline/admission testing without burning CPU). Never
/// served from the response cache: every ping sleeps.
struct PingRequest {
  static constexpr MessageType kType = MessageType::kPingRequest;
  static constexpr const char* kName = "ping";
  static constexpr const char* kSection = "ping-req";
  static constexpr const char* kSpan = "server.ping";
  std::string echo;
  std::uint64_t sleepMillis = 0;
  std::uint64_t deadlineMillis = 0;
};

template <FieldsOf<PingRequest> R>
auto fields(R& r) { return std::tie(r.echo, r.sleepMillis); }

// kHealthRequest and kShutdownRequest carry empty payloads.

/// Every request kind with a payload: the daemon's dispatch, isRequestType
/// and the `sctune client` ops fold over this one list.
using RequestKinds = std::tuple<FlowRequest, ScenarioRequest, EvolveRequest,
                                LintRequest, StaRequest, PingRequest>;

/// Calls fn(std::type_identity<R>{}) for each R in RequestKinds, in order,
/// until one call returns true; returns whether one did.
template <class Fn>
bool anyRequestKind(Fn&& fn) {
  return []<class... R>(Fn& f, std::type_identity<std::tuple<R...>>) {
    return (f(std::type_identity<R>{}) || ...);
  }(fn, std::type_identity<RequestKinds>{});
}

struct Response {
  Status status = Status::kError;
  std::string summary;  ///< one human line ("flow: MET | ...", error text)
  std::string body;     ///< full report / JSON document; may be empty
};

// ---- payload codecs (SCTB containers) and the cache key ------------------

/// Upper bound on a decoded list field (scenario periods).
inline constexpr std::uint64_t kMaxListLength = 64;

namespace detail {

/// Validated container holding `section`; throws ProtocolError otherwise.
[[nodiscard]] artifact::SctbReader readerFor(std::span<const std::byte> bytes,
                                             const char* section);

}  // namespace detail

/// One SCTB section named R::kSection holding fields(r), then
/// r.deadlineMillis.
template <class R>
[[nodiscard]] std::vector<std::byte> encodeRequest(const R& r) {
  artifact::SctbWriter writer;
  writer.beginSection(R::kSection);
  artifact::FieldWriter<artifact::SctbWriter> visit{writer};
  artifact::forEachField(r, visit);
  writer.u64(r.deadlineMillis);
  return writer.finish();
}

/// Inverse of encodeRequest; throws ProtocolError on a malformed payload, a
/// missing R::kSection section (e.g. a flow payload decoded as lint) or a
/// list longer than kMaxListLength.
template <class R>
[[nodiscard]] R decodeRequest(std::span<const std::byte> bytes) {
  const artifact::SctbReader reader = detail::readerFor(bytes, R::kSection);
  auto cursor = reader.section(R::kSection);
  R r;
  try {
    artifact::FieldReader visit{cursor, kMaxListLength};
    artifact::forEachField(r, visit);
    r.deadlineMillis = cursor.u64();
  } catch (const artifact::FormatError& e) {
    throw ProtocolError(e.what());
  }
  return r;
}

/// The daemon's response-cache key: the section name, then every field of
/// the list — all that reaches the wire except the deadline. Section names
/// share no prefix with flow stage keys, so the two never collide in the
/// shared memory tier.
template <class R>
[[nodiscard]] artifact::Digest requestKey(const R& r) {
  artifact::Hasher h;
  h.str(R::kSection);
  artifact::FieldWriter<artifact::Hasher> visit{h};
  artifact::forEachField(r, visit);
  return h.digest();
}

void encodeResponse(artifact::SctbWriter& writer, const Response& r);
[[nodiscard]] std::vector<std::byte> encodeResponse(const Response& r);
[[nodiscard]] Response decodeResponse(std::span<const std::byte> bytes);

// ---- frame IO over a connected socket ------------------------------------

/// One parsed incoming frame.
struct Frame {
  MessageType type = MessageType::kResponse;
  std::vector<std::byte> payload;
};

/// Blocking read of one frame. Returns nullopt on clean EOF before any
/// header byte; throws ProtocolError on bad magic / unknown type / oversized
/// payload / connection lost mid-frame. Retries EINTR.
[[nodiscard]] std::optional<Frame> readFrame(int fd);

/// Blocking write of one frame (header + payload). Throws ProtocolError
/// when the peer is gone. Retries EINTR and short writes.
void writeFrame(int fd, MessageType type, std::span<const std::byte> payload);

}  // namespace sct::server
