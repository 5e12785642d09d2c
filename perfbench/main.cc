// femux_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--scratch <dir>]
//
// Runs one workload of the end-to-end benchmark (README.md) and prints, as
// its last stdout line, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. The line before it is the
// environment block. Exit code 0 means the run finished; output checks
// that failed show as "correct": false.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "bench/common.h"
#include "src/sim/thread_pool.h"

namespace perfbench {
namespace {

// Seed used when --seed is omitted, and a second one kept out of tuning so
// a performance claim can be re-checked on inputs it was not developed on.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 20261016;
constexpr std::size_t kMaxThreads = 4;

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: femux_perfbench --workload "
               "<femux_fleet|stream_fleet|femux_train|daemon_serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>]\n",
               error.c_str());
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  config.seed = kDefaultSeed;
  config.seconds = 10.0;
  config.scratch_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          Usage("--trace takes 0 or 1");
        }
        config.trace = value == "1";
      } else if (flag == "--scratch") {
        config.scratch_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (config.workload.empty()) {
    Usage("--workload is required");
  }
  if (!(config.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return config;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "error: refusing to record from a build without NDEBUG\n");
  return 3;
#endif
  RunConfig config = ParseArgs(argc, argv);
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* femux_threads = std::getenv("FEMUX_THREADS");
  config.threads = std::min(kMaxThreads, femux::ConfiguredThreadCount());

  Result result;
  try {
    if (config.workload == "femux_fleet") {
      result = RunFemuxFleet(config);
    } else if (config.workload == "stream_fleet") {
      result = RunStreamFleet(config);
    } else if (config.workload == "femux_train") {
      result = RunFemuxTrain(config);
    } else if (config.workload == "daemon_serve") {
      result = RunDaemonServe(config);
    } else {
      Usage("unknown workload " + config.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& line : result.notes()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf(
      "{\"env\": {\"workload\": %s, \"seed\": %llu, \"default_seed\": %llu, "
      "\"held_out_seed\": %llu, \"seconds\": %s, \"trace\": %s, \"nproc\": %u, "
      "\"femux_threads\": %s, \"threads\": %zu, \"ndebug\": true, \"simd\": %s}}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(kDefaultSeed),
      static_cast<unsigned long long>(kHeldOutSeed), Number(config.seconds).c_str(),
      config.trace ? "true" : "false", nproc,
      femux_threads != nullptr ? JsonString(femux_threads).c_str() : "null",
      config.threads, femux::SimdInfoJson().c_str());

  std::string metrics;
  for (const Metric& m : result.metrics()) {
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()), metrics.c_str());
  return 0;
}
