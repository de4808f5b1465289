// exawatt_benchmark — one workload of the seeded serving benchmark, in
// this process: generate the inputs, host the system under test, load it
// from client threads, check the answers, print the metrics.
//
//   exawatt_benchmark --workload scan --seed 2021 --seconds 10 [--trace]
//                     [--smoke] [--out benchmark/out]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics, or with --trace the
// per-layer ones (and a Chrome trace in <out>/<workload>.trace.json).
// Progress goes to stderr. Exit status: 0 success, 1 a correctness gate
// failed (nothing is printed on stdout), 2 bad arguments, 3 an error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace exawatt::perf;

int usage(const char* why) {
  std::fprintf(stderr,
               "exawatt_benchmark: %s\n"
               "usage: exawatt_benchmark --workload NAME [--seed S] "
               "[--seconds N] [--trace] [--smoke] [--out DIR]\n"
               "workloads:",
               why);
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      config.trace = true;
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      config.out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return usage("unknown workload");
  }
  if (!(config.seconds > 0.0) || config.seconds > 60.0) {
    return usage("--seconds wants 0 < N <= 60");
  }
  if (config.smoke) {
    config.seconds = std::max(0.5, config.seconds / 20.0);
    config.setups = 1;
  }

  try {
    const RunResult r = run_workload(config);
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                (config.trace ? r.per_layer : r.end_to_end).json().c_str());
    return 0;
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "%s: correctness gate failed: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", config.workload.c_str(), e.what());
    return 3;
  }
}
