// sctuned daemon tests (DESIGN.md §14): protocol framing (including the
// malformed-input fuzz cases), request execution, response caching,
// single-flight coalescing, admission control, deadlines and graceful
// drain. Servers run in-process on a Unix socket under the test temp dir.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "artifact/hash.hpp"
#include "core/flow_job.hpp"
#include "evo/tuner.hpp"
#include "obs/metrics.hpp"
#include "postsi/scenario.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace sct {
namespace {

namespace fs = std::filesystem;
using server::Client;
using server::MessageType;
using server::Response;
using server::Status;

struct TempDir {
  fs::path path;
  explicit TempDir(const char* stem)
      : path(fs::temp_directory_path() / stem) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// In-process daemon bound to a socket under `dir`.
struct TestServer {
  explicit TestServer(const TempDir& dir, std::size_t sessionThreads = 4,
                      std::size_t maxQueue = 16, bool tcp = false) {
    server::ServerConfig config;
    config.socketPath = (dir.path / "sctuned.sock").string();
    config.tcpEnable = tcp;
    config.sessionThreads = sessionThreads;
    config.maxQueuedSessions = maxQueue;
    config.service.cacheDir = (dir.path / "cache").string();
    config.service.memCacheBytes = 64ull << 20;
    instance = std::make_unique<server::Server>(config);
    instance->start();
    socketPath = config.socketPath;
  }
  ~TestServer() { instance->stop(); }

  [[nodiscard]] Client connect() const {
    return Client::connectUnix(socketPath);
  }

  std::unique_ptr<server::Server> instance;
  std::string socketPath;
};

server::FlowRequest smallFlow(double period = 8.0) {
  server::FlowRequest request;
  request.job.profile = "small";
  request.job.mcCount = 4;
  request.job.period = period;
  request.job.lintMode = "off";
  return request;
}

// ---- basics --------------------------------------------------------------

TEST(ServerTest, PingRoundTrip) {
  TempDir dir("sct_server_ping");
  TestServer srv(dir);
  Client client = srv.connect();
  server::PingRequest request;
  request.echo = "hello";
  const Response response = client.ping(request);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.summary, "pong");
  EXPECT_EQ(response.body, "hello");
}

TEST(ServerTest, TcpLoopbackRoundTrip) {
  TempDir dir("sct_server_tcp");
  TestServer srv(dir, 4, 16, /*tcp=*/true);
  ASSERT_NE(srv.instance->tcpPort(), 0);
  Client client = Client::connectTcp(srv.instance->tcpPort());
  server::PingRequest request;
  request.echo = "over tcp";
  const Response response = client.ping(request);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.body, "over tcp");
}

TEST(ServerTest, HealthReturnsMetricsJson) {
  TempDir dir("sct_server_health");
  TestServer srv(dir);
  Client client = srv.connect();
  const Response response = client.health();
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_NE(response.body.find("sct-metrics-v1"), std::string::npos);
}

TEST(ServerTest, PersistentConnectionHandlesManyRequests) {
  TempDir dir("sct_server_many");
  TestServer srv(dir);
  Client client = srv.connect();
  for (int i = 0; i < 20; ++i) {
    server::PingRequest request;
    request.echo = std::to_string(i);
    const Response response = client.ping(request);
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.body, std::to_string(i));
  }
}

// ---- flow execution and byte-identity ------------------------------------

TEST(ServerTest, FlowMatchesLocalRunByteForByte) {
  TempDir dir("sct_server_flow");
  TestServer srv(dir);
  const server::FlowRequest request = smallFlow();

  core::TuningFlow local(core::makeFlowConfig(request.job));
  const core::FlowJobResult expected = core::runFlowJob(local, request.job);

  Client client = srv.connect();
  const Response first = client.flow(request);
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(first.summary, expected.summary);
  EXPECT_EQ(first.body, expected.report);

  // Second call answers from the response cache — still byte-identical.
  const Response second = client.flow(request);
  EXPECT_EQ(second.body, expected.report);
}

TEST(ServerTest, ConcurrentIdenticalFlowsComputeOnce) {
  TempDir dir("sct_server_singleflight");
  TestServer srv(dir, /*sessionThreads=*/8);
  obs::setMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t leadersBefore =
      registry.snapshot().counterValue("server.singleflight.leader");

  constexpr int kClients = 8;
  const server::FlowRequest request = smallFlow(7.5);
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client = srv.connect();
      const Response response = client.flow(request);
      ASSERT_EQ(response.status, Status::kOk);
      bodies[static_cast<std::size_t>(i)] = response.body;
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(bodies[static_cast<std::size_t>(i)], bodies[0])
        << "response " << i << " differs";
  }
  EXPECT_FALSE(bodies[0].empty());

  // Exactly one session computed this request; everyone else either
  // coalesced on the single-flight key or hit the response cache.
  const std::uint64_t leadersAfter =
      registry.snapshot().counterValue("server.singleflight.leader");
  EXPECT_EQ(leadersAfter - leadersBefore, 1u);
  obs::setMetricsEnabled(false);
}

// ---- scenario matrix over the wire ---------------------------------------

server::ScenarioRequest smallScenario() {
  server::ScenarioRequest request;
  request.job = smallFlow().job;
  request.job.period = 0.0;  // scenario jobs carry periods explicitly
  request.periods = {8.0};
  request.scenarios = "tuning,clock";
  request.mcTrials = 16;
  return request;
}

TEST(ServerTest, ScenarioMatchesLocalRunByteForByte) {
  TempDir dir("sct_server_scenario");
  TestServer srv(dir);
  const server::ScenarioRequest request = smallScenario();

  postsi::ScenarioJob job{request.job,      request.periods,
                          request.scenarios, request.element,
                          request.mcTrials, request.mcSeed};
  core::TuningFlow local(core::makeFlowConfig(job.flow));
  const postsi::ScenarioRunResult expected =
      postsi::runScenarioJob(local, job);

  Client client = srv.connect();
  const Response first = client.scenario(request);
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(first.summary, expected.summary);
  EXPECT_EQ(first.body, expected.report);

  // Second call answers from the response cache — still byte-identical —
  // and the JSON rendering differs only in format, not in content source.
  const Response second = client.scenario(request);
  EXPECT_EQ(second.body, expected.report);

  server::ScenarioRequest asJson = request;
  asJson.json = true;
  const Response jsonResponse = client.scenario(asJson);
  EXPECT_EQ(jsonResponse.status, Status::kOk);
  EXPECT_EQ(jsonResponse.body, expected.json);
}

// ---- evolve over the wire ------------------------------------------------

server::EvolveRequest smallEvolve() {
  server::EvolveRequest request;
  request.job = smallFlow(4.0).job;
  request.params.population = 4;
  request.params.generations = 1;
  return request;
}

TEST(ServerTest, EvolveMatchesLocalRunByteForByte) {
  TempDir dir("sct_server_evolve");
  TestServer srv(dir);
  const server::EvolveRequest request = smallEvolve();

  evo::EvolveJob job;
  job.flow = request.job;
  job.params = request.params;
  core::TuningFlow local(core::makeFlowConfig(job.flow));
  const evo::EvolveRunResult expected = evo::runEvolveJob(local, job);

  Client client = srv.connect();
  const Response first = client.evolve(request);
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(first.summary, expected.summary);
  EXPECT_EQ(first.body, expected.report);

  // Second call answers from the response cache — still byte-identical —
  // and the JSON rendering swaps the body format, not the content source.
  const Response second = client.evolve(request);
  EXPECT_EQ(second.body, expected.report);

  server::EvolveRequest asJson = request;
  asJson.json = true;
  const Response jsonResponse = client.evolve(asJson);
  EXPECT_EQ(jsonResponse.status, Status::kOk);
  EXPECT_EQ(jsonResponse.body, expected.json);
}

TEST(ServerTest, EvolveRejectsBadJobsWithError) {
  TempDir dir("sct_server_evolve_bad");
  TestServer srv(dir);
  Client client = srv.connect();
  server::EvolveRequest request = smallEvolve();
  request.params.objectives = "sigma,karma";
  const Response response = client.evolve(request);
  EXPECT_EQ(response.status, Status::kError);
  // The connection survives the failed request.
  server::PingRequest ping;
  ping.echo = "still here";
  EXPECT_EQ(client.ping(ping).body, "still here");
}

TEST(ServerTest, ScenarioRejectsBadJobsWithError) {
  TempDir dir("sct_server_scenario_bad");
  TestServer srv(dir);
  Client client = srv.connect();
  server::ScenarioRequest request = smallScenario();
  request.scenarios = "tuning,warp";
  const Response response = client.scenario(request);
  EXPECT_EQ(response.status, Status::kError);
  // The connection survives the failed request.
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, NonPositivePeriodsAnswerError) {
  TempDir dir("sct_server_bad_period");
  TestServer srv(dir);
  Client client = srv.connect();
  const auto expectPeriodError = [](const Response& response) {
    EXPECT_EQ(response.status, Status::kError);
    EXPECT_NE(response.summary.find("clock period"), std::string::npos)
        << response.summary;
  };
  expectPeriodError(
      client.flow(smallFlow(std::numeric_limits<double>::quiet_NaN())));
  expectPeriodError(client.flow(smallFlow(0.0)));
  server::ScenarioRequest scenario = smallScenario();
  scenario.periods = {8.0, -1.0};
  expectPeriodError(client.scenario(scenario));
  server::EvolveRequest evolve = smallEvolve();
  evolve.job.period = 0.0;
  expectPeriodError(client.evolve(evolve));
  server::StaRequest sta;
  sta.period = -2.0;
  expectPeriodError(client.sta(sta));
}

// ---- protocol fuzzing: the daemon must survive anything ------------------

/// Sends raw bytes on a fresh connection, returns true when the server
/// answered with *some* frame before closing (false = it just closed).
bool sendRaw(const TestServer& srv, const void* data, std::size_t size) {
  Client client = srv.connect();
  [[maybe_unused]] const ssize_t sent = ::send(client.fd(), data, size, 0);
  ::shutdown(client.fd(), SHUT_WR);
  char buffer[256];
  const ssize_t got = ::recv(client.fd(), buffer, sizeof buffer, 0);
  return got > 0;
}

TEST(ServerTest, SurvivesGarbageMagic) {
  TempDir dir("sct_server_fuzz_magic");
  TestServer srv(dir);
  const char garbage[] = "GETX / HTTP/1.1\r\n\r\n";
  sendRaw(srv, garbage, sizeof garbage);
  // The daemon dropped that session but must still serve new ones.
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, SurvivesTruncatedHeader) {
  TempDir dir("sct_server_fuzz_trunc");
  TestServer srv(dir);
  const char partial[] = {'S', 'C', 'T', 'P', 1};
  sendRaw(srv, partial, sizeof partial);
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, RejectsOversizedPayloadDeclaration) {
  TempDir dir("sct_server_fuzz_size");
  TestServer srv(dir);
  std::byte header[16];
  std::memcpy(header, "SCTP", 4);
  const std::uint32_t type =
      static_cast<std::uint32_t>(MessageType::kPingRequest);
  std::memcpy(header + 4, &type, 4);
  const std::uint64_t huge = server::kMaxPayloadBytes + 1;
  std::memcpy(header + 8, &huge, 8);
  // The server answers one kError frame (it cannot trust the stream past
  // the bad header) and drops the session.
  EXPECT_TRUE(sendRaw(srv, header, sizeof header));
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, SurvivesMidPayloadDisconnect) {
  TempDir dir("sct_server_fuzz_disc");
  TestServer srv(dir);
  std::byte frame[24];
  std::memcpy(frame, "SCTP", 4);
  const std::uint32_t type =
      static_cast<std::uint32_t>(MessageType::kPingRequest);
  std::memcpy(frame + 4, &type, 4);
  const std::uint64_t claimed = 1000;  // we send only 8 payload bytes
  std::memcpy(frame + 8, &claimed, 8);
  std::memset(frame + 16, 0xAB, 8);
  sendRaw(srv, frame, sizeof frame);
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, GarbagePayloadAnswersError) {
  TempDir dir("sct_server_fuzz_payload");
  TestServer srv(dir);
  Client client = srv.connect();
  std::vector<std::byte> junk(64, std::byte{0x5A});
  const Response response = client.call(MessageType::kFlowRequest, junk);
  EXPECT_EQ(response.status, Status::kError);
  // Same connection keeps working: framing stayed intact.
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, UnknownMessageTypeAnswersError) {
  TempDir dir("sct_server_fuzz_type");
  TestServer srv(dir);
  std::byte header[16];
  std::memcpy(header, "SCTP", 4);
  const std::uint32_t type = 9999;
  std::memcpy(header + 4, &type, 4);
  const std::uint64_t size = 0;
  std::memcpy(header + 8, &size, 8);
  EXPECT_TRUE(sendRaw(srv, header, sizeof header));
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

// ---- admission control, deadlines, shutdown ------------------------------

TEST(ServerTest, RejectsBeyondSessionBoundWithBusy) {
  TempDir dir("sct_server_busy");
  TestServer srv(dir, /*sessionThreads=*/1, /*maxQueue=*/0);

  // Occupy the single session slot with a sleeping ping.
  std::thread occupant([&] {
    Client client = srv.connect();
    server::PingRequest request;
    request.sleepMillis = 400;
    const Response response = client.ping(request);
    EXPECT_EQ(response.status, Status::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The next connection is rejected at the accept gate, quickly.
  Client reject = srv.connect();
  server::PingRequest request;
  const auto start = std::chrono::steady_clock::now();
  const Response response = reject.ping(request);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.status, Status::kBusy);
  EXPECT_LT(elapsed, std::chrono::milliseconds(300))
      << "busy rejection must not wait for the running session";
  EXPECT_GE(srv.instance->busyRejects(), 1u);
  occupant.join();
}

TEST(ServerTest, ExpiredDeadlineAnswersTimeout) {
  TempDir dir("sct_server_deadline");
  TestServer srv(dir, /*sessionThreads=*/1, /*maxQueue=*/4);

  // Fill the single executor so the probe request waits in the queue
  // longer than its deadline.
  std::thread occupant([&] {
    Client client = srv.connect();
    server::PingRequest request;
    request.sleepMillis = 300;
    const Response response = client.ping(request);
    EXPECT_EQ(response.status, Status::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client client = srv.connect();
  server::PingRequest request;
  request.deadlineMillis = 50;  // expires while queued behind the occupant
  const Response response = client.ping(request);
  EXPECT_EQ(response.status, Status::kTimeout);
  occupant.join();
}

TEST(ServerTest, DeadlinePastTheClockRangeMeansNoDeadline) {
  // 2^64-1 ms would wrap to -1 ms as a signed count, and 2^62 ms overflows
  // the clock's signed nanoseconds; both mean "no deadline".
  TempDir dir("sct_server_huge_deadline");
  TestServer srv(dir);
  Client client = srv.connect();
  for (const std::uint64_t millis :
       {std::numeric_limits<std::uint64_t>::max(), std::uint64_t{1} << 62}) {
    server::PingRequest request;
    request.deadlineMillis = millis;
    EXPECT_EQ(client.ping(request).status, Status::kOk) << millis;
  }
}

TEST(ServerTest, GracefulStopDrainsInFlightRequests) {
  TempDir dir("sct_server_drain");
  TestServer srv(dir, /*sessionThreads=*/2);

  std::atomic<bool> answered{false};
  std::thread inflight([&] {
    Client client = srv.connect();
    server::PingRequest request;
    request.sleepMillis = 300;
    request.echo = "drain me";
    const Response response = client.ping(request);
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.body, "drain me");
    answered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  srv.instance->stop();  // must block until the sleeping ping answered
  EXPECT_TRUE(answered.load());
  inflight.join();
}

TEST(ServerTest, ShutdownRequestStopsTheServer) {
  TempDir dir("sct_server_shutdown");
  TestServer srv(dir);
  Client client = srv.connect();
  const Response response = client.shutdown();
  EXPECT_EQ(response.status, Status::kOk);
  // waitForStop returns promptly because the session requested the stop.
  srv.instance->waitForStop();
  EXPECT_FALSE(srv.instance->running());
}

// ---- codec round trips and the pinned wire ------------------------------

// One request of every kind with every field off its default, so a field
// the codec drops, reorders or retypes shows in a round trip or a digest.
const core::FlowJob kJob{.profile = "small",
                         .workload = "dsp",
                         .period = 7.25,
                         .method = "cell-load",
                         .value = 0.03,
                         .mcCount = 12,
                         .mcSeed = 77,
                         .lintMode = "warn"};
const server::FlowRequest kFlow{.job = kJob, .deadlineMillis = 1500};
const server::LintRequest kLint{.artifactType = "netlist",
                                .content = "module m; endmodule\n",
                                .json = true,
                                .deadlineMillis = 250};
const server::StaRequest kSta{.libraryText = "library(x) {}",
                              .netlistText = "module top; endmodule",
                              .period = 3.5,
                              .deadlineMillis = 99};
const server::ScenarioRequest kScenario{
    .job =
        [] {
          core::FlowJob job = kJob;
          job.period = 0.0;  // scenario jobs carry periods explicitly
          return job;
        }(),
    .periods = {2.41, 2.5, 4.0, 10.0},
    .scenarios = "tuning,clock",
    .element = {0.05, 0.45, 0.1, 3.5},
    .mcTrials = 32,
    .mcSeed = 99,
    .json = true,
    .deadlineMillis = 2500};
const server::EvolveRequest kEvolve{.job = kJob,
                                    .params = {6, 2, "sigma,area", 0.004,
                                               0.05, 31},
                                    .json = true,
                                    .deadlineMillis = 4000};
const server::PingRequest kPing{
    .echo = "hello", .sleepMillis = 7, .deadlineMillis = 11};

/// decode(encode(r)) must encode to the same bytes: every field of the
/// fixtures is off its default, so a field the decoder drops or misplaces
/// changes the second encoding (WireBytesArePinned pins the first).
template <class R>
void expectRoundTrip(const R& request) {
  const std::vector<std::byte> bytes = server::encodeRequest(request);
  EXPECT_EQ(server::encodeRequest(server::decodeRequest<R>(bytes)), bytes);
}

TEST(ProtocolTest, FlowRequestRoundTrip) { expectRoundTrip(kFlow); }

TEST(ProtocolTest, ScenarioRequestRoundTrip) { expectRoundTrip(kScenario); }

TEST(ProtocolTest, EveryOtherRequestKindRoundTrips) {
  expectRoundTrip(kLint);
  expectRoundTrip(kSta);
  expectRoundTrip(kEvolve);
  expectRoundTrip(kPing);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response response;
  response.status = Status::kTimeout;
  response.summary = "too late";
  response.body = std::string("line1\nline2\n\0embedded", 22);
  const auto bytes = server::encodeResponse(response);
  const Response back = server::decodeResponse(bytes);
  EXPECT_EQ(back.status, Status::kTimeout);
  EXPECT_EQ(back.summary, "too late");
  EXPECT_EQ(back.body, response.body);
}

std::string digestOf(const std::vector<std::byte>& bytes) {
  artifact::Hasher h;
  h.bytes(bytes);
  return h.digest().hex();
}

// Digests of the fixtures' encodings, recorded from the hand-written
// per-kind encoders this codec replaced. A change here is a wire-format
// change: it needs a protocol version bump, not a new golden value.
TEST(ProtocolTest, WireBytesArePinned) {
  EXPECT_EQ(digestOf(server::encodeRequest(kFlow)),
            "6a8b77af08e7d8f1bd93043a35b46ade");
  EXPECT_EQ(digestOf(server::encodeRequest(kLint)),
            "8d11d997ff42bf91449af3eebed4dee6");
  EXPECT_EQ(digestOf(server::encodeRequest(kSta)),
            "6f1837aa4fedf1400a0dcdbe5ecc9fd2");
  EXPECT_EQ(digestOf(server::encodeRequest(kScenario)),
            "f13efc8753fd3918bec546dc03a636d6");
  EXPECT_EQ(digestOf(server::encodeRequest(kEvolve)),
            "3b27b417ddd148bd88ee530d9b93d3c1");
  EXPECT_EQ(digestOf(server::encodeRequest(kPing)),
            "be86560c3dceae494ff3347023f1d065");
  const Response response{Status::kTimeout, "too late", "line1\nline2\n"};
  EXPECT_EQ(digestOf(server::encodeResponse(response)),
            "7d418c9388ce67e49542030e73c93366");
}

TEST(ProtocolTest, DecodeRejectsWrongSection) {
  const auto bytes = server::encodeRequest(server::FlowRequest{});
  EXPECT_THROW((void)server::decodeRequest<server::LintRequest>(bytes),
               server::ProtocolError);
}

TEST(ProtocolTest, DecodeRejectsOverlongList) {
  server::ScenarioRequest overlong = kScenario;
  overlong.periods.assign(server::kMaxListLength + 1, 8.0);
  EXPECT_THROW((void)server::decodeRequest<server::ScenarioRequest>(
                   server::encodeRequest(overlong)),
               server::ProtocolError);
}

}  // namespace
}  // namespace sct
