#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>

namespace exawatt::perf {

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kWindowSum: return "window_sum";
    case Op::kClusterSum: return "cluster_sum";
    case Op::kScan: return "scan";
    case Op::kScanBlocks: return "scan_blocks";
    case Op::kPueRollup: return "pue_rollup";
    case Op::kScenarioSweep: return "scenario_sweep";
  }
  return "unknown";
}

double now_us() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_ops_per_s", "1/s"},
      {"events_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"stored_bytes_per_event", "B"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    constexpr Op kAll[] = {Op::kPing,       Op::kWindowSum, Op::kClusterSum,
                           Op::kScan,       Op::kScanBlocks, Op::kPueRollup,
                           Op::kScenarioSweep};
    const auto per_op = [](std::vector<MetricDef>& d, const std::string& pre,
                           std::span<const Op> ops, const std::string& post,
                           const std::string& unit) {
      for (const Op op : ops) d.push_back({pre + op_name(op) + post, unit});
    };
    std::vector<MetricDef> d;
    per_op(d, "latency_p50_ms.", kAll, "", "ms");
    d.insert(d.end(), {{"net.self_ms.p50", "ms"},
                       {"net.frames_per_req", "count"},
                       {"net.bytes_out_per_req", "B"},
                       {"net.stream_pauses", "count"}});
    per_op(d, "server.exec_ms.", kAll, ".p50", "ms");
    d.insert(d.end(), {{"server.wire_us.p50", "us"},
                       {"server.response_bytes.p50", "B"},
                       {"qos.admit_us.p50", "us"},
                       {"qos.queue_wait_ms.p50", "ms"},
                       {"qos.queue_wait_ms.p99", "ms"}});
    per_op(d, "qos.price_error.", kAll, "", "log2");
    d.insert(d.end(), {{"qos.shed", "count"}, {"qos.workers.peak", "count"}});
    constexpr Op kStoreOps[] = {Op::kWindowSum, Op::kClusterSum, Op::kScan,
                                Op::kScanBlocks};
    per_op(d, "store.call_ms.", kStoreOps, ".p50", "ms");
    d.insert(d.end(), {{"store.cache_hit_ratio", "ratio"},
                       {"store.cache_evictions_per_req", "count"},
                       {"store.blocks_per_req", "count"},
                       {"store.cold_blocks_per_req", "count"},
                       {"store.warm_blocks_per_req", "count"},
                       {"store.open_ms", "ms"},
                       {"store.append_us_per_batch.p50", "us"},
                       {"store.flush_ms.p50", "ms"},
                       {"store.segments_sealed", "count"},
                       {"store.compact_s", "s"},
                       {"store.compact_events_per_s", "1/s"},
                       {"store.write_amplification", "ratio"},
                       {"stream.replay_ms.p50", "ms"},
                       {"stream.replay_events_per_s", "1/s"},
                       {"scenario.fetch_ms.p50", "ms"},
                       {"scenario.sweep_ms.p50", "ms"}});
    constexpr Op kCoordOps[] = {Op::kClusterSum, Op::kScan};
    per_op(d, "cluster.coord_ms.", kCoordOps, ".p50", "ms");
    per_op(d, "cluster.self_ms.", kCoordOps, ".p50", "ms");
    d.insert(d.end(), {{"cluster.legs_per_req", "count"},
                       {"cluster.leg_ms.mean", "ms"},
                       {"cluster.leg_errors", "count"},
                       {"proc.threads.peak", "count"},
                       {"proc.fds.peak", "count"},
                       {"proc.cpu_ms_per_op", "ms"},
                       {"proc.ctx_switches_per_op", "count"},
                       {"gen.late_ms.p99", "ms"},
                       {"gen.inputs_s", "s"},
                       {"trace.overhead", "ratio"}});
    return d;
  }();
  return defs;
}

Metrics::Metrics(const std::vector<MetricDef>& defs) : defs_(&defs) {
  for (const MetricDef& def : defs) values_[def.name] = 0.0;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  const auto def = std::find_if(defs_->begin(), defs_->end(),
                                [&](const MetricDef& d) { return d.name == name; });
  if (def == defs_->end() || def->unit != unit) {
    throw std::logic_error("undeclared metric " + name + " [" + unit + "]");
  }
  values_[name] = std::isfinite(value) ? value : 0.0;
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < defs_->size(); ++i) {
    const MetricDef& def = (*defs_)[i];
    std::snprintf(buf, sizeof(buf), "%.17g", values_.at(def.name));
    out += (i == 0 ? "\"" : ", \"") + def.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + def.unit + "\"}";
  }
  return out + "}";
}

}  // namespace exawatt::perf
