#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "store/store.hpp"
#include "stream/engine.hpp"

namespace exawatt::stream {

/// Observation hooks for replay_rollup. All optional; all are invoked on
/// the calling thread, in stream order.
struct ReplaySinks {
  /// Every finalized cluster window, as it closes.
  std::function<void(const ClusterWindow&)> on_window;
  /// Every alert transition, as it is raised/cleared.
  std::function<void(const Alert&)> on_alert;
  /// Polled once per replayed second; return true to abandon the replay
  /// (e.g. the subscriber disconnected). Already-emitted windows stand.
  std::function<bool()> cancelled;
};

/// What a finished (or abandoned) replay produced.
struct RollupReplay {
  ts::Series power;  ///< closed cluster power (machine-scaled W)
  ts::Series pue;    ///< facility PUE along the same grid
  std::uint64_t events = 0;     ///< events re-fed into the engine
  std::size_t windows = 0;      ///< cluster windows closed
  bool cancelled = false;       ///< true when sinks.cancelled tripped
};

/// Replay a store-resident telemetry window through a fresh streaming
/// engine: queries every node's input-power channel over `options.range`,
/// re-feeds the events in emit-time order (replay has no transport delay,
/// so arrival == emit) and drives the engine second-by-second. Closed
/// windows and alert transitions stream through `sinks` while the replay
/// runs; the finished series come back in the result. Degradation seen by
/// the underlying store scan (lost segments/blocks, cache traffic) is
/// merged into `*stats` when given.
[[nodiscard]] RollupReplay replay_rollup(const store::Store& store,
                                         const std::vector<machine::NodeId>& nodes,
                                         EngineOptions options,
                                         const ReplaySinks& sinks = {},
                                         store::QueryStats* stats = nullptr);

/// The replay body on already-fetched per-metric runs: flatten, sort by
/// (emit time, metric id), drive the engine second-by-second. The store
/// overload above delegates here after its query_many, and the cluster
/// coordinator feeds it runs gathered over the wire — both roll-up
/// flavors literally execute this one function, so sharded and unsharded
/// answers agree bit-for-bit by construction, not by luck.
[[nodiscard]] RollupReplay replay_rollup_runs(
    const std::vector<store::MetricRun>& runs, EngineOptions options,
    const ReplaySinks& sinks = {});

/// The original power-only entry point: replay_rollup with no sinks,
/// returning just the closed cluster power series. On the same event
/// stream it must be bit-identical to `telemetry::cluster_sum` /
/// `store::cluster_sum` — the `ctest -L store` gate checks that.
[[nodiscard]] ts::Series replay_power_rollup(
    const store::Store& store, const std::vector<machine::NodeId>& nodes,
    EngineOptions options);

}  // namespace exawatt::stream
