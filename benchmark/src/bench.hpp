#pragma once

// Shared vocabulary of the serving benchmark: the request methods it
// issues, one timed request, metric output and the small statistics every
// workload reports with.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "server/wire.hpp"

namespace exawatt::perf {

namespace wire = server::wire;

/// The request methods the workloads issue. kScanBlocks is a kScan that
/// negotiated the chunked block form; it gets its own latency and trace
/// rows because the store serves it by a different path.
enum class Op : std::uint8_t {
  kPing,
  kWindowSum,
  kClusterSum,
  kScan,
  kScanBlocks,
  kPueRollup,
  kScenarioSweep,
};
inline constexpr std::size_t kOpCount = 7;

[[nodiscard]] const char* op_name(Op op);

struct Req {
  Op op = Op::kPing;
  wire::Request wire;
};

/// Microseconds on the steady clock since the process started; every
/// timestamp and span in a run shares this origin.
[[nodiscard]] double now_us();

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Geometric mean (values floored at 1e-9); 0 for an empty set.
[[nodiscard]] double geomean(const std::vector<double>& v);

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The metric sets BENCHMARK.json declares: every run reports each of
/// them, 0 where a per-layer metric's layer is not exercised.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Values for one declared metric set, printed as the JSON object the run
/// command's last line carries. Setting an undeclared name, or a declared
/// one with another unit, throws.
class Metrics {
 public:
  explicit Metrics(const std::vector<MetricDef>& defs);
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  const std::vector<MetricDef>* defs_;
  std::map<std::string, double> values_;
};

/// What one workload run hands back to main: the timed phase's request
/// accounting and the metrics for the requested mode.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end{end_to_end_metrics()};
  Metrics per_layer{per_layer_metrics()};
};

/// Run-wide settings parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "benchmark/out";
  /// Set-ups per run; setup_s is their median.
  int setups = 3;
};

}  // namespace exawatt::perf
