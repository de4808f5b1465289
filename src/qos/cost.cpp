#include "qos/cost.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "store/store.hpp"
#include "util/check.hpp"

namespace exawatt::qos {

namespace {

/// Extract `"key": <number>` from a flat JSON object without a JSON
/// dependency (the bench emitters write one object, one line per key).
/// Returns false when the key is absent or the value is not a number.
bool json_number(const std::string& text, const std::string& key,
                 double* out) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  std::size_t i = text.find(':', at + needle.size());
  if (i == std::string::npos) return false;
  ++i;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  const char* begin = text.c_str() + i;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

CostProfile CostProfile::from_bench_json(const std::string& path,
                                         std::size_t events_per_block) {
  CostProfile profile;
  profile.events_per_block = events_per_block > 0 ? events_per_block : 4096;
  std::ifstream in(path);
  if (!in) return profile;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  double eps = 0.0;
  if (json_number(text, "decode_into_eps", &eps) && eps > 0.0) {
    profile.block_decode_us =
        static_cast<double>(profile.events_per_block) / eps * 1e6;
  }
  return profile;
}

CostModel::CostModel(CostProfile profile, BlockCounter blocks)
    : profile_(profile), blocks_(std::move(blocks)) {}

std::uint64_t CostModel::price(const server::wire::Request& request) const {
  using server::wire::Method;
  const auto blocks_for = [this](std::span<const telemetry::MetricId> ids,
                                 util::TimeRange range) -> double {
    if (!blocks_ || ids.empty() || range.begin > range.end) return 0.0;
    return static_cast<double>(blocks_(ids, range));
  };
  const auto power_ids = [](const server::wire::Request& req) {
    // pue_rollup / scenario replays fetch each node's input-power
    // channel — the same ids the executor will query.
    const int channel =
        telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
    std::vector<telemetry::MetricId> ids;
    ids.reserve(req.nodes.size());
    for (const machine::NodeId n : req.nodes) {
      ids.push_back(telemetry::metric_id(n, channel));
    }
    return ids;
  };

  double cost = profile_.floor_us;
  switch (request.method) {
    case Method::kPing:
    case Method::kServerStats:
    case Method::kDirectory:
    case Method::kSubscribe:
      break;
    case Method::kWindowSum: {
      const telemetry::MetricId id = request.metric;
      cost += blocks_for({&id, 1}, request.range) * profile_.block_decode_us;
      break;
    }
    case Method::kScan:
    case Method::kScanBlocks:
      cost += blocks_for(request.metrics, request.range) *
              profile_.block_decode_us;
      break;
    case Method::kClusterSum:
    case Method::kNodeMeans: {  // a cluster_sum leg: the same store work
      std::vector<telemetry::MetricId> ids;
      ids.reserve(request.nodes.size());
      for (const machine::NodeId n : request.nodes) {
        ids.push_back(telemetry::metric_id(n, request.channel));
      }
      cost += blocks_for(ids, request.range) * profile_.block_decode_us;
      break;
    }
    case Method::kPueRollup: {
      const auto ids = power_ids(request);
      const double blocks = blocks_for(ids, request.range);
      // Replayed events estimated from the directory: every touched
      // block's events go through the engine. Boundary blocks replay
      // fewer, so this is a slight overestimate — conservative is the
      // right direction for admission.
      cost += blocks * profile_.block_decode_us +
              blocks * static_cast<double>(profile_.events_per_block) *
                  profile_.replay_us_per_event;
      break;
    }
    case Method::kScenario:
    case Method::kScenarioSweep: {
      const auto ids = power_ids(request);
      const double blocks = blocks_for(ids, request.range);
      const double legs =
          2.0 * static_cast<double>(std::max<std::size_t>(
                    1, request.scenarios.size()));  // baseline + variant
      cost += blocks * profile_.block_decode_us +
              legs * blocks *
                  static_cast<double>(profile_.events_per_block) *
                  profile_.replay_us_per_event;
      break;
    }
  }
  cost = std::max(cost, profile_.floor_us);
  // Saturate far below the u64 edge so downstream backlog sums of many
  // maximal prices cannot overflow.
  cost = std::min(cost, 1e15);
  return static_cast<std::uint64_t>(cost);
}

BlockCounter store_block_counter(const store::Store& store) {
  return [&store](std::span<const telemetry::MetricId> ids,
                  util::TimeRange range) {
    return store.estimate_blocks(ids, range);
  };
}

}  // namespace exawatt::qos
