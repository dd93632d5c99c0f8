// perfbench: the repository benchmark. Runs one workload for a fixed time
// and prints its metrics as the last line of standard output:
//
//   perfbench --workload <suite_cold|suite_rerun|serve_open> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --calibrate-serve --seconds <s>
//
// See README.md for the workloads, the metrics and how to run it.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <ctime>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "g++ " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <suite_cold|suite_rerun|"
               "serve_open> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n       perfbench --calibrate-serve "
               "--seconds <s>\n";
  return 2;
}

bool parse_number(const char* text, double& out) {
  std::istringstream in(text);
  in >> out;
  return !in.fail() && in.eof() && std::isfinite(out);
}

void print_result(const Outcome& outcome) {
  std::ostringstream line;
  line << std::setprecision(17) << "{\"correct\": "
       << (outcome.correct ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& metric = outcome.metrics[i];
    line << (i == 0 ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << metric.value << ", \"unit\": \""
         << metric.unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool calibrate = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--calibrate-serve") {
      calibrate = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (!parse_number(value, number) || number < 0) {
      return usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = number;
      have_seconds = number > 0;
    } else if (flag == "--trace") {
      options.trace = number != 0;
      have_trace = number == 0 || number == 1;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (calibrate) {
    if (!have_seconds) return usage("--calibrate-serve needs --seconds");
    return calibrate_serve(options);
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.workload != "suite_cold" && options.workload != "suite_rerun" &&
      options.workload != "serve_open") {
    return usage(("unknown workload " + options.workload).c_str());
  }

  std::cout << "# host: nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << kCompiler << "\" build="
            << PERFBENCH_BUILD_TYPE << "\n# run: workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << options.trace << "\n";
  Outcome outcome = options.workload == "serve_open" ? run_serve(options)
                                                     : run_suite(options);
  for (auto& metric : outcome.metrics) {
    if (!std::isfinite(metric.value)) {  // keep the JSON line parseable
      metric.value = 0.0;
      outcome.correct = false;
    }
  }
  if (outcome.attempted == 0 || outcome.failed != 0) outcome.correct = false;
  if (!outcome.correct) {
    std::cerr << "perfbench: check failed: " << outcome.failed << " of "
              << outcome.attempted << " operations failed\n";
  }
  print_result(outcome);
  return outcome.correct ? 0 : 1;
}
