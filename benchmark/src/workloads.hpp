#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace exawatt::perf {

/// A correctness gate failed: the run must exit non-zero and report
/// nothing.
class GateFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generate the workload's inputs from the seed, set the system up
/// (config.setups times), measure for config.seconds, check the answers,
/// and in a traced run replay the requests through the layer passes.
[[nodiscard]] RunResult run_workload(const RunConfig& config);

}  // namespace exawatt::perf
