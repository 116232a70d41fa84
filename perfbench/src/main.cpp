// sctune benchmark harness. Runs one workload of the benchmark and prints,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics.
//
//   sct_perfbench --workload sweep-mcu|big-cold|daemon-mix --seed N
//                 --seconds S --trace 0|1 [--revision R] [--record FILE]
//
// Run from the checkout root: expected digests are read from
// perfbench/expected/ and scratch files go to .bench_work/.
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the separate
// traced run that reports the per-layer metrics. --record computes every job
// of the workload's universe and writes its expected report digests.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "sct_perfbench: %s\nusage: sct_perfbench --workload "
               "sweep-mcu|big-cold|daemon-mix --seed N --seconds S --trace 0|1 "
               "[--revision R] [--record FILE]\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--revision") {
        options.revision = value;
      } else if (flag == "--record") {
        options.recordPath = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

/// JSON string literal (the harness only emits ASCII names and units).
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", v);
  return text;
}

void printMeta(const Options& options) {
  std::printf(
      "meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"host_cpus\": %u, \"threads\": %zu, \"build_type\": %s, "
      "\"revision\": %s}\n",
      quoted(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      number(options.seconds).c_str(), options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), options.threads,
      quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(options.revision).c_str());
}

void printResult(const RunResult& result) {
  for (const std::string& note : result.notes) std::printf("  %s\n", note.c_str());
  for (const Metric& metric : result.metrics) {
    std::printf("  %-28s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += result.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) line += ", ";
    line += quoted(metric.name) + ": {\"value\": " + number(metric.value) +
            ", \"unit\": " + quoted(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse(argc, argv);
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  sct::parallel::setThreadCount(options.threads);
  printMeta(options);
  std::fflush(stdout);
  try {
    RunResult result;
    if (options.workload == "sweep-mcu") {
      result = runSweepMcu(options);
    } else if (options.workload == "big-cold") {
      result = runBigCold(options);
    } else if (options.workload == "daemon-mix") {
      result = runDaemonMix(options);
    } else {
      usage("unknown workload " + options.workload);
    }
    if (options.recordPath) {
      std::fprintf(stderr, "recorded %s (%llu jobs, %llu failed)\n",
                   options.recordPath->c_str(),
                   static_cast<unsigned long long>(result.attempted),
                   static_cast<unsigned long long>(result.failed));
      return result.correct() ? 0 : 1;
    }
    printResult(result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sct_perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
