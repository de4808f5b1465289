#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/client.hpp"
#include "server/service.hpp"
#include "server/wire.hpp"
#include "util/sim_time.hpp"

namespace exawatt::cluster {

namespace wire = server::wire;

/// One shard's address as the coordinator dials it.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct CoordinatorOptions {
  std::vector<Endpoint> shards;
  /// Per-shard client budgets (each scatter leg is one Client::call).
  int connect_timeout_ms = 2000;
  int request_timeout_ms = 5000;
  int max_reconnects = 1;
  /// Deadline clock; nullptr = steady wall clock (match the fronting
  /// service's clock so inherited deadlines agree).
  util::Clock* clock = nullptr;
  /// Skip shards whose cached directory proves they hold nothing in the
  /// query range. Off by default: directories are cached at first
  /// contact and only refreshed via refresh_directories(), so a shard
  /// that ingests or seals after its snapshot could be wrongly pruned —
  /// fresh data silently omitted without even a lost_segments charge.
  /// Opt in only for a quiesced cluster (no concurrent ingest), and
  /// refresh_directories() after any flush/rebalance.
  bool prune = false;
  /// Scatter kScan and kNodeMeans legs as chunked streams of about this
  /// payload size, so a shard's answer flows through its stream gate
  /// instead of one frame per leg. 0 = classic single-frame legs.
  std::uint32_t leg_chunk_bytes = 256 << 10;
};

/// Per-shard health/traffic counters, as reported by shard_stats().
struct ShardStats {
  std::string endpoint;
  bool up = true;                       ///< last contact succeeded
  std::uint64_t calls = 0;              ///< scatter legs attempted
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;               ///< RESOURCE_EXHAUSTED answers
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t other_errors = 0;       ///< remaining non-OK statuses
  std::uint64_t transport_errors = 0;   ///< NetError after client retries
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t reconnect_successes = 0;
  std::uint64_t latency_us_total = 0;   ///< over completed legs (any status)
  std::uint64_t latency_us_max = 0;

  [[nodiscard]] double mean_latency_ms() const {
    const std::uint64_t legs = ok + shed + deadline_exceeded + other_errors;
    return legs == 0 ? 0.0
                     : static_cast<double>(latency_us_total) /
                           static_cast<double>(legs) / 1000.0;
  }
};

/// The links as a text table, one row per shard in `shards` order
/// (latencies in ms to 3 decimals): what `exawatt_sim cluster` and
/// `loadgen --cluster` print.
[[nodiscard]] std::string format_shard_stats(
    const std::vector<ShardStats>& shards);

/// Scatter-gather front-end over N shard query servers. Plans each read
/// against cached per-shard segment directories (time-range pruning),
/// scatters sub-queries concurrently through one `server::Client` per
/// shard with the parent's remaining deadline, and merges partials back
/// into the single-store answer shapes — bit-identical to one Store
/// holding the union of the shards (gated by `ctest -L cluster`).
/// A cluster_sum ships per-node window means (kNodeMeans legs) instead
/// of raw samples; raw scan legs remain the fallback for a shard that is
/// itself a coordinator (it answers those legs UNIMPLEMENTED) and for ids
/// split across shards mid-rebalance.
///
/// Degraded reads: a shard that is down, times out, or sheds does not
/// fail the query. Its would-have-been contribution is charged to
/// `QueryStats::lost_segments` (the cached directory's overlap count, or
/// 1 when the directory was never seen) and the merge proceeds with the
/// shards that answered — partial results with honest accounting, never
/// wrong values, mirroring the store's damaged-segment contract.
///
/// Thread-safe: concurrent execute() calls are fine; each shard link
/// serializes its connection behind a mutex (one request in flight per
/// connection is the Client's contract).
class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Serve one request against the cluster. Honors `cancel` and the
  /// absolute `deadline_us` (0 = none) between scatter phases; in-flight
  /// legs are bounded by the inherited per-shard deadline instead.
  /// `emit` is the optional tick channel (kScenarioSweep streaming).
  [[nodiscard]] wire::Response execute(
      const wire::Request& request, const server::CancelToken& cancel,
      std::int64_t deadline_us,
      const server::QueryService::Emit& emit = nullptr);

  /// Adapter: run this coordinator behind a QueryService — the same
  /// admission queue, deadline policy and counters a shard server has.
  /// The coordinator must outlive the service.
  [[nodiscard]] server::QueryService::Executor executor();
  /// Companion for QueryService::set_stats_augment: appends the
  /// `upstream.*` counters (shards, shards down, reconnects) to a
  /// kServerStats response.
  void augment_stats(wire::ServerStatsWire& server) const;

  /// Re-fetch every shard's directory now (e.g. after ingest/flush).
  /// Unreachable shards keep their stale directory for loss accounting.
  void refresh_directories();

  /// Point one shard at a new address (restart/failover); drops the
  /// connection and cached directory, keeps the traffic counters.
  void set_endpoint(std::size_t shard, Endpoint endpoint);

  [[nodiscard]] std::size_t shards() const { return links_.size(); }
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;

  /// Hull of the shard bounds (shards holding no events are skipped) —
  /// the cluster analogue of Store::bounds(), used to clamp pue_rollup
  /// replays exactly the way a single store would.
  [[nodiscard]] util::TimeRange bounds();

 private:
  struct Link;

  [[nodiscard]] wire::Response call_shard(Link& link, wire::Request request,
                                          std::int64_t deadline_us);
  void ensure_directory(Link& link, std::int64_t deadline_us);
  [[nodiscard]] std::uint64_t lost_cost(const Link& link,
                                        util::TimeRange range) const;
  [[nodiscard]] bool may_hold(const Link& link, util::TimeRange range) const;

  /// One shard's part of a scatter, run with the link locked.
  using Leg = std::function<wire::Response(Link&)>;

  /// Run `leg` on every shard that may hold data in `range`, merge
  /// degradation accounting into `stats`, and return the OK responses.
  [[nodiscard]] std::vector<wire::Response> scatter(
      util::TimeRange range, std::int64_t deadline_us,
      store::QueryStats* stats, const Leg& leg);
  /// The common leg: send `sub` as it is.
  [[nodiscard]] std::vector<wire::Response> scatter(
      const wire::Request& sub, util::TimeRange range,
      std::int64_t deadline_us, store::QueryStats* stats);

  /// kClusterSum on node-means legs: each shard coarsens its own nodes
  /// and ships window means; the reduction runs here in node order.
  /// Falls back to `cluster_sum_raw` when an id comes back from two
  /// shards.
  void cluster_sum(const wire::Request& request, std::int64_t deadline_us,
                   wire::Response* resp);
  /// kClusterSum on raw scan legs, coarsened here (at most kMaxScanIds
  /// nodes).
  void cluster_sum_raw(const wire::Request& request,
                       const std::vector<telemetry::MetricId>& ids,
                       std::int64_t deadline_us, wire::Response* resp);

  CoordinatorOptions options_;
  util::Clock& clock_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace exawatt::cluster
