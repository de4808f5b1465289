#include "cluster/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>

#include "cluster/merge.hpp"
#include "net/fanout.hpp"
#include "store/store.hpp"
#include "stream/replay.hpp"
#include "telemetry/metric.hpp"
#include "ts/series.hpp"
#include "util/check.hpp"
#include "util/text_table.hpp"

namespace exawatt::cluster {

namespace {

/// Shard scan legs ride the wire protocol's scan method, which bounds a
/// request to this many metric ids — so node fan-ins above it cannot be
/// clustered on raw legs (the coordinator rejects them instead of
/// silently cropping). cluster_sum's node-means legs have no such cap.
constexpr std::size_t kMaxScanIds = 4096;

[[nodiscard]] server::ClientOptions client_options(
    const Endpoint& endpoint, const CoordinatorOptions& options) {
  server::ClientOptions out;
  out.host = endpoint.host;
  out.port = endpoint.port;
  out.connect_timeout_ms = options.connect_timeout_ms;
  out.request_timeout_ms = options.request_timeout_ms;
  out.max_reconnects = options.max_reconnects;
  return out;
}

/// SegmentMeta bounds are inclusive; query ranges are half-open.
[[nodiscard]] bool segment_overlaps(const store::SegmentMeta& s,
                                    util::TimeRange range) {
  return s.t_min < range.end && range.begin <= s.t_max;
}

[[nodiscard]] std::vector<telemetry::MetricId> channel_ids(
    const std::vector<machine::NodeId>& nodes, int channel) {
  std::vector<telemetry::MetricId> ids;
  ids.reserve(nodes.size());
  for (const machine::NodeId n : nodes) {
    ids.push_back(telemetry::metric_id(n, channel));
  }
  return ids;
}

/// A scatter leg of `parent`: `method` with the parent's deadline and
/// QoS identity — a batch tenant's fan-out must compete as that tenant on
/// every shard, not as an anonymous normal-class coordinator.
[[nodiscard]] wire::Request leg_of(const wire::Request& parent,
                                   wire::Method method) {
  wire::Request leg;
  leg.method = method;
  leg.deadline_ms = parent.deadline_ms;
  leg.qos_class = parent.qos_class;
  leg.tenant = parent.tenant;
  return leg;
}

/// A raw scan leg of `parent` over `ids` in `range`.
[[nodiscard]] wire::Request scan_leg(const wire::Request& parent,
                                     std::vector<telemetry::MetricId> ids,
                                     util::TimeRange range) {
  wire::Request leg = leg_of(parent, wire::Method::kScan);
  leg.metrics = std::move(ids);
  leg.range = range;
  return leg;
}

/// A shard's raw runs in node-means form, coarsened here exactly as a
/// node-means shard coarsens them.
[[nodiscard]] std::vector<store::MetricRun> coarsen_runs(
    std::span<const telemetry::MetricId> ids,
    const std::vector<store::MetricRun>& raw, util::TimeRange range,
    util::TimeSec window) {
  const std::vector<store::MetricRun>* parts[] = {&raw};
  std::vector<store::MetricRun> runs = merge_runs(ids, parts);
  for (store::MetricRun& run : runs) {
    run = store::window_means(run.id,
                              ts::coarsen(run.samples, window, range));
  }
  return runs;
}

}  // namespace

std::string format_shard_stats(const std::vector<ShardStats>& shards) {
  util::TextTable t({"shard", "endpoint", "up", "calls", "ok", "shed",
                     "deadline", "errors", "transport", "reconnects",
                     "mean ms", "max ms"});
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardStats& s = shards[i];
    t.add_row({std::to_string(i), s.endpoint, s.up ? "yes" : "DOWN",
               std::to_string(s.calls), std::to_string(s.ok),
               std::to_string(s.shed), std::to_string(s.deadline_exceeded),
               std::to_string(s.other_errors),
               std::to_string(s.transport_errors),
               std::to_string(s.reconnect_attempts) + "/" +
                   std::to_string(s.reconnect_successes),
               util::fmt_double(s.mean_latency_ms()),
               util::fmt_double(static_cast<double>(s.latency_us_max) /
                                1000.0)});
  }
  return t.str();
}

struct Coordinator::Link {
  mutable std::mutex mu;
  Endpoint endpoint;
  std::unique_ptr<server::Client> client;
  /// Counters of clients this link already wore out (set_endpoint
  /// replaces the Client but history must not reset).
  server::ClientStats retired;
  ShardStats stats;
  bool directory_valid = false;
  wire::DirectoryWire directory;
};

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? *options_.clock
                                       : util::Clock::steady()) {
  EXA_CHECK(!options_.shards.empty(), "coordinator needs at least one shard");
  links_.reserve(options_.shards.size());
  for (const Endpoint& endpoint : options_.shards) {
    auto link = std::make_unique<Link>();
    link->endpoint = endpoint;
    link->client = std::make_unique<server::Client>(
        client_options(endpoint, options_));
    link->stats.endpoint =
        endpoint.host + ":" + std::to_string(endpoint.port);
    links_.push_back(std::move(link));
  }
}

Coordinator::~Coordinator() = default;

wire::Response Coordinator::call_shard(Link& link, wire::Request request,
                                       std::int64_t deadline_us) {
  // The scatter leg inherits whatever is left of the parent's absolute
  // deadline; with no parent deadline the sub-request keeps the parent's
  // own relative one (usually 0 = client timeout only).
  if (deadline_us != 0) {
    const std::int64_t left_ms = (deadline_us - clock_.now_us()) / 1000;
    request.deadline_ms = static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(left_ms, 1, 0xffffffffLL));
  }
  // Scan and node-means legs stream back chunked (unless the caller
  // already chose a size): results are identical byte-for-byte, the
  // shard just never sends one oversized frame.
  if ((request.method == wire::Method::kScan ||
       request.method == wire::Method::kNodeMeans) &&
      options_.leg_chunk_bytes != 0 && request.chunk_bytes == 0) {
    request.chunk_bytes = options_.leg_chunk_bytes;
  }
  ++link.stats.calls;
  const std::int64_t t0 = clock_.now_us();
  wire::Response resp;
  try {
    resp = link.client->call(request);
  } catch (const net::NetError&) {
    ++link.stats.transport_errors;
    link.stats.up = false;
    throw;
  }
  const auto lat = static_cast<std::uint64_t>(clock_.now_us() - t0);
  link.stats.latency_us_total += lat;
  link.stats.latency_us_max = std::max(link.stats.latency_us_max, lat);
  link.stats.up = true;
  switch (resp.status) {
    case wire::Status::kOk: ++link.stats.ok; break;
    case wire::Status::kResourceExhausted: ++link.stats.shed; break;
    case wire::Status::kDeadlineExceeded:
      ++link.stats.deadline_exceeded;
      break;
    default: ++link.stats.other_errors; break;
  }
  return resp;
}

void Coordinator::ensure_directory(Link& link, std::int64_t deadline_us) {
  if (link.directory_valid) return;
  wire::Request req;
  req.method = wire::Method::kDirectory;
  try {
    wire::Response resp = call_shard(link, req, deadline_us);
    if (resp.status == wire::Status::kOk) {
      link.directory = std::move(resp.directory);
      link.directory_valid = true;
    }
  } catch (const net::NetError&) {
    // Shard unreachable: plan without it (the query leg will charge the
    // loss); a stale directory from before the outage stays usable.
  }
}

std::uint64_t Coordinator::lost_cost(const Link& link,
                                     util::TimeRange range) const {
  if (!link.directory_valid) return 1;  // unknown holdings: at least one
  std::uint64_t overlapping = 0;
  for (const store::SegmentMeta& s : link.directory.segments) {
    if (segment_overlaps(s, range)) ++overlapping;
  }
  return std::max<std::uint64_t>(overlapping, 1);
}

bool Coordinator::may_hold(const Link& link, util::TimeRange range) const {
  if (!link.directory_valid) return true;
  if (link.directory.buffered_events > 0) return true;
  for (const store::SegmentMeta& s : link.directory.segments) {
    if (segment_overlaps(s, range)) return true;
  }
  return false;
}

std::vector<wire::Response> Coordinator::scatter(const wire::Request& sub,
                                                 util::TimeRange range,
                                                 std::int64_t deadline_us,
                                                 store::QueryStats* stats) {
  return scatter(range, deadline_us, stats, [&](Link& link) {
    return call_shard(link, sub, deadline_us);
  });
}

std::vector<wire::Response> Coordinator::scatter(util::TimeRange range,
                                                 std::int64_t deadline_us,
                                                 store::QueryStats* stats,
                                                 const Leg& leg) {
  const auto outcomes = net::fan_out(
      links_.size(),
      [&](std::size_t i) -> std::optional<wire::Response> {
        Link& link = *links_[i];
        std::lock_guard lk(link.mu);
        ensure_directory(link, deadline_us);
        if (options_.prune && !may_hold(link, range)) return std::nullopt;
        return leg(link);
      });

  std::vector<wire::Response> oks;
  oks.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    Link& link = *links_[i];
    if (outcomes[i].ok && !outcomes[i].value.has_value()) {
      continue;  // pruned: provably holds nothing in range
    }
    if (outcomes[i].ok && outcomes[i].value->status == wire::Status::kOk) {
      oks.push_back(std::move(*outcomes[i].value));
      if (stats != nullptr) stats->merge(oks.back().stats);
      continue;
    }
    // Transport failure or an unhealthy status (shed / expired /
    // draining): this shard's contribution is lost, not wrong — charge
    // its directory overlap and let the merge carry on without it.
    if (stats != nullptr) {
      std::lock_guard lk(link.mu);
      stats->lost_segments += lost_cost(link, range);
    }
  }
  return oks;
}

wire::Response Coordinator::execute(const wire::Request& request,
                                    const server::CancelToken& cancel,
                                    std::int64_t deadline_us,
                                    const server::QueryService::Emit& emit) {
  wire::Response resp;
  resp.method = request.method;
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    resp.status = wire::Status::kCancelled;
    resp.message = "client disconnected";
    return resp;
  }
  if (deadline_us != 0 && clock_.now_us() > deadline_us) {
    resp.status = wire::Status::kDeadlineExceeded;
    resp.message = "deadline expired before scatter";
    return resp;
  }
  std::string why;
  switch (request.method) {
    case wire::Method::kPing:
      // Coordinator liveness; shard health is kServerStats' business.
      break;
    case wire::Method::kWindowSum: {
      if (!server::grid_ok(request.range, request.window, &why)) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = std::move(why);
        break;
      }
      const auto oks =
          scatter(request, request.range, deadline_us, &resp.stats);
      // Start from the zero grid a single empty store would answer, so a
      // fully pruned (or fully lost) scatter still has the right shape.
      const auto n_windows = static_cast<std::size_t>(
          (request.range.duration() + request.window - 1) / request.window);
      resp.window_sum.start = request.range.begin;
      resp.window_sum.window = request.window;
      resp.window_sum.sum.assign(n_windows, 0.0);
      resp.window_sum.count.assign(n_windows, 0);
      for (const wire::Response& ok : oks) {
        merge_window_sum(resp.window_sum, ok.window_sum);
      }
      break;
    }
    case wire::Method::kScan: {
      if (request.metrics.empty() || request.metrics.size() > kMaxScanIds) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "scan wants 1..4096 metric ids";
        break;
      }
      if (request.range.begin > request.range.end) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "range begin > end";
        break;
      }
      const auto oks =
          scatter(request, request.range, deadline_us, &resp.stats);
      std::vector<const std::vector<store::MetricRun>*> parts;
      parts.reserve(oks.size());
      for (const wire::Response& ok : oks) parts.push_back(&ok.runs);
      resp.runs = merge_runs(request.metrics, parts);
      break;
    }
    case wire::Method::kClusterSum: {
      if (request.nodes.empty()) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "cluster_sum wants nodes";
        break;
      }
      if (!server::grid_ok(request.range, request.window, &why)) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = std::move(why);
        break;
      }
      cluster_sum(request, deadline_us, &resp);
      break;
    }
    case wire::Method::kNodeMeans:
      // A shard-internal leg; answering it here would hide a mid-rebalance
      // id split from the caller, so a stacked coordinator's parent takes
      // the raw path against this one instead.
      resp.status = wire::Status::kUnimplemented;
      resp.message = "node_means is served by shards, not a coordinator";
      break;
    case wire::Method::kPueRollup: {
      if (request.nodes.empty()) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "pue_rollup wants nodes";
        break;
      }
      if (request.nodes.size() > kMaxScanIds) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "too many nodes for a clustered scatter";
        break;
      }
      if (request.range.begin > request.range.end) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "range begin > end";
        break;
      }
      // Clamp to the cluster hull exactly as a single store clamps to
      // its own bounds — there is nothing to replay outside the data.
      const util::TimeRange range = request.range.clamp(bounds());
      const util::TimeSec window = request.window > 0 ? request.window : 10;
      if (!server::grid_ok(range, window, &why)) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = std::move(why);
        break;
      }
      // The PUE replay always rolls up node input power (that is what
      // replay_rollup reads on the unsharded path), so the channel is
      // fixed here rather than taken from the request.
      const std::vector<telemetry::MetricId> ids = channel_ids(
          request.nodes,
          telemetry::channel_of(telemetry::MetricKind::kInputPower, 0));
      const auto oks = scatter(scan_leg(request, ids, range), range,
                               deadline_us, &resp.stats);
      std::vector<const std::vector<store::MetricRun>*> parts;
      parts.reserve(oks.size());
      for (const wire::Response& ok : oks) parts.push_back(&ok.runs);
      const std::vector<store::MetricRun> runs = merge_runs(ids, parts);
      stream::EngineOptions opts;
      opts.range = range;
      opts.window = window;
      opts.rollup.edge_node_count =
          static_cast<double>(request.nodes.size());
      stream::ReplaySinks sinks;
      sinks.cancelled = [&] {
        return (cancel != nullptr &&
                cancel->load(std::memory_order_relaxed)) ||
               (deadline_us != 0 && clock_.now_us() > deadline_us);
      };
      stream::RollupReplay replay =
          stream::replay_rollup_runs(runs, opts, sinks);
      if (replay.cancelled) {
        const bool peer_gone =
            cancel != nullptr && cancel->load(std::memory_order_relaxed);
        resp.status = peer_gone ? wire::Status::kCancelled
                                : wire::Status::kDeadlineExceeded;
        resp.message = peer_gone ? "client disconnected during replay"
                                 : "deadline expired during replay";
        break;
      }
      resp.series = std::move(replay.power);
      resp.pue = std::move(replay.pue);
      break;
    }
    case wire::Method::kDirectory: {
      wire::Request sub = leg_of(request, wire::Method::kDirectory);
      const util::TimeRange everything{
          std::numeric_limits<util::TimeSec>::min(),
          std::numeric_limits<util::TimeSec>::max()};
      const auto oks = scatter(sub, everything, deadline_us, &resp.stats);
      bool any = false;
      for (const wire::Response& ok : oks) {
        resp.directory.total_events += ok.directory.total_events;
        resp.directory.buffered_events += ok.directory.buffered_events;
        if (ok.directory.total_events > 0) {
          if (!any) {
            resp.directory.bounds = ok.directory.bounds;
            any = true;
          } else {
            resp.directory.bounds.begin = std::min(
                resp.directory.bounds.begin, ok.directory.bounds.begin);
            resp.directory.bounds.end = std::max(resp.directory.bounds.end,
                                                 ok.directory.bounds.end);
          }
        }
        resp.directory.segments.insert(resp.directory.segments.end(),
                                       ok.directory.segments.begin(),
                                       ok.directory.segments.end());
      }
      break;
    }
    case wire::Method::kSubscribe:
      resp.status = wire::Status::kUnimplemented;
      resp.message = "subscribe is not clustered";
      break;
    case wire::Method::kServerStats:
      // Answered by the fronting QueryService (its own counters plus
      // augment_stats); a bare Coordinator has no admission queue.
      break;
    case wire::Method::kScanBlocks:
      resp.status = wire::Status::kInvalidArgument;
      resp.message = "scan_blocks is response-only (request as kScan)";
      break;
    case wire::Method::kScenario:
    case wire::Method::kScenarioSweep: {
      stream::EngineOptions opts;
      if (!server::scenario_request_ok(request, bounds(), &opts, &resp)) {
        break;
      }
      // Gather the input-power runs through the same shard scatter the
      // clustered pue_rollup uses, then run the identical scenario body
      // the store executor runs — sharding cannot perturb a digit.
      const std::vector<telemetry::MetricId> ids = channel_ids(
          request.nodes,
          telemetry::channel_of(telemetry::MetricKind::kInputPower, 0));
      const auto oks = scatter(scan_leg(request, ids, opts.range),
                               opts.range, deadline_us, &resp.stats);
      std::vector<const std::vector<store::MetricRun>*> parts;
      parts.reserve(oks.size());
      for (const wire::Response& ok : oks) parts.push_back(&ok.runs);
      const std::vector<store::MetricRun> runs = merge_runs(ids, parts);
      server::run_scenario_request(request, runs, opts, cancel, deadline_us,
                                   clock_, emit, &resp);
      break;
    }
  }
  return resp;
}

void Coordinator::cluster_sum(const wire::Request& request,
                              std::int64_t deadline_us,
                              wire::Response* resp) {
  // The scan ids carry the requested channel, exactly as the
  // store-backed executor hands request.channel to store::cluster_sum
  // — a GPU-temperature roll-up must never come back as input power.
  const std::vector<telemetry::MetricId> ids =
      channel_ids(request.nodes, request.channel);
  wire::Request means = leg_of(request, wire::Method::kNodeMeans);
  means.nodes = request.nodes;
  means.channel = request.channel;
  means.range = request.range;
  means.window = request.window;
  const wire::Request raw = scan_leg(request, ids, request.range);
  std::atomic<bool> too_wide{false};
  const auto oks =
      scatter(request.range, deadline_us, &resp->stats, [&](Link& link) {
        wire::Response leg = call_shard(link, means, deadline_us);
        // A stacked coordinator does not serve node means (see execute):
        // ask it for raw runs and coarsen them here, as a shard would
        // have.
        if (leg.status != wire::Status::kUnimplemented) return leg;
        if (ids.size() > kMaxScanIds) {
          too_wide = true;
          return leg;
        }
        leg = call_shard(link, raw, deadline_us);
        if (leg.status == wire::Status::kOk) {
          leg.runs = coarsen_runs(ids, leg.runs, request.range,
                                  request.window);
        }
        return leg;
      });
  std::vector<const std::vector<store::MetricRun>*> parts;
  parts.reserve(oks.size());
  for (const wire::Response& ok : oks) parts.push_back(&ok.runs);
  std::optional<std::vector<ts::StatSeries>> per_node;
  if (!too_wide) {
    per_node =
        merge_node_means(ids, parts, request.range, request.window);
  }
  if (!per_node) {
    // An id split across shards (mid-rebalance) needs the raw path, and
    // so does a stacked coordinator, whose leg cluster_sum_raw refuses
    // when the fan-in is wider than a raw leg may carry. Start over,
    // charging each loss once.
    resp->stats = {};
    cluster_sum_raw(request, ids, deadline_us, resp);
    return;
  }
  // Node-order reduction through the same store::reduce_cluster_sum the
  // unsharded roll-up runs — shard grouping cannot perturb a digit.
  resp->series = store::reduce_cluster_sum(*per_node, request.range,
                                           request.window, &resp->counts);
}

void Coordinator::cluster_sum_raw(
    const wire::Request& request,
    const std::vector<telemetry::MetricId>& ids, std::int64_t deadline_us,
    wire::Response* resp) {
  if (ids.size() > kMaxScanIds) {
    resp->status = wire::Status::kInvalidArgument;
    resp->message = "too many nodes for a clustered scatter";
    return;
  }
  const auto oks = scatter(scan_leg(request, ids, request.range),
                           request.range, deadline_us, &resp->stats);
  std::vector<const std::vector<store::MetricRun>*> parts;
  parts.reserve(oks.size());
  for (const wire::Response& ok : oks) parts.push_back(&ok.runs);
  const std::vector<store::MetricRun> runs = merge_runs(ids, parts);
  // The raw samples travel; coarsening and the node-order reduction
  // happen here.
  std::vector<ts::StatSeries> per_node;
  per_node.reserve(runs.size());
  for (const store::MetricRun& run : runs) {
    per_node.push_back(
        ts::coarsen(run.samples, request.window, request.range));
  }
  resp->series = store::reduce_cluster_sum(per_node, request.range,
                                           request.window, &resp->counts);
}

server::QueryService::Executor Coordinator::executor() {
  return [this](const wire::Request& request,
                const server::CancelToken& cancel,
                std::int64_t deadline_us,
                const server::QueryService::Emit& emit,
                server::ChunkWriter* /*stream*/) {
    // The coordinator's merged responses materialize (merge needs every
    // leg); the fronting Server chunks them at the wire when the client
    // asked for it, so `stream` needs no handling here.
    return execute(request, cancel, deadline_us, emit);
  };
}

void Coordinator::augment_stats(wire::ServerStatsWire& server) const {
  std::uint64_t down = 0;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  for (const auto& link : links_) {
    std::lock_guard lk(link->mu);
    const server::ClientStats& live = link->client->stats();
    attempted += link->retired.reconnect_attempts + live.reconnect_attempts;
    succeeded += link->retired.reconnect_successes + live.reconnect_successes;
    if (!link->stats.up) ++down;
  }
  server.add("upstream.shards", links_.size());
  server.add("upstream.shards_down", down);
  server.add("upstream.reconnects_attempted", attempted);
  server.add("upstream.reconnects_succeeded", succeeded);
}

void Coordinator::refresh_directories() {
  (void)net::fan_out(links_.size(), [&](std::size_t i) {
    Link& link = *links_[i];
    std::lock_guard lk(link.mu);
    link.directory_valid = false;
    ensure_directory(link, 0);
    return 0;
  });
}

void Coordinator::set_endpoint(std::size_t shard, Endpoint endpoint) {
  EXA_CHECK(shard < links_.size(), "shard index out of range");
  Link& link = *links_[shard];
  std::lock_guard lk(link.mu);
  const server::ClientStats& old = link.client->stats();
  link.retired.connects += old.connects;
  link.retired.reconnect_attempts += old.reconnect_attempts;
  link.retired.reconnect_successes += old.reconnect_successes;
  link.retired.calls += old.calls;
  link.retired.transport_errors += old.transport_errors;
  link.endpoint = endpoint;
  link.client =
      std::make_unique<server::Client>(client_options(endpoint, options_));
  link.stats.endpoint = endpoint.host + ":" + std::to_string(endpoint.port);
  link.stats.up = true;
  link.directory_valid = false;
  link.directory = {};
}

std::vector<ShardStats> Coordinator::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(links_.size());
  for (const auto& link : links_) {
    std::lock_guard lk(link->mu);
    ShardStats s = link->stats;
    const server::ClientStats& live = link->client->stats();
    s.reconnect_attempts =
        link->retired.reconnect_attempts + live.reconnect_attempts;
    s.reconnect_successes =
        link->retired.reconnect_successes + live.reconnect_successes;
    out.push_back(std::move(s));
  }
  return out;
}

util::TimeRange Coordinator::bounds() {
  util::TimeRange hull{0, 0};
  bool any = false;
  (void)net::fan_out(links_.size(), [&](std::size_t i) {
    Link& link = *links_[i];
    std::lock_guard lk(link.mu);
    ensure_directory(link, 0);
    return 0;
  });
  for (const auto& link : links_) {
    std::lock_guard lk(link->mu);
    if (!link->directory_valid || link->directory.total_events == 0) {
      continue;
    }
    if (!any) {
      hull = link->directory.bounds;
      any = true;
    } else {
      hull.begin = std::min(hull.begin, link->directory.bounds.begin);
      hull.end = std::max(hull.end, link->directory.bounds.end);
    }
  }
  return hull;
}

}  // namespace exawatt::cluster
