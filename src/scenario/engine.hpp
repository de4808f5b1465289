#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "store/store.hpp"
#include "stream/replay.hpp"

namespace exawatt::scenario {

/// One replayed counterfactual next to its un-intervened baseline, on
/// the same window grid (both replays consume the same fetched runs).
struct ScenarioResult {
  ts::Series baseline_power;  ///< machine-scaled cluster power, no spec
  ts::Series baseline_pue;
  ts::Series power;           ///< same replay with the spec applied
  ts::Series pue;
  std::uint64_t events = 0;   ///< events re-fed per replay leg
  std::size_t windows = 0;    ///< variant windows closed
  bool cancelled = false;     ///< either leg abandoned early
};

/// Per-variant aggregate of a scenario result — what a sweep response
/// carries over the wire when the full series would be N times too big.
/// Deltas are variant minus baseline over the common window prefix.
struct ScenarioSummary {
  std::string name;
  std::uint64_t windows = 0;
  double energy_j = 0.0;  ///< sum(window mean power) * window seconds
  double baseline_energy_j = 0.0;
  double mean_pue = 0.0;
  double baseline_mean_pue = 0.0;
  double peak_power_w = 0.0;
  double baseline_peak_power_w = 0.0;
  double max_power_delta_w = 0.0;  ///< max over windows, signed
  double max_pue_delta = 0.0;
};

[[nodiscard]] ScenarioSummary summarize(const ScenarioResult& result,
                                        const std::string& name,
                                        util::TimeSec window);

/// Replay `runs` twice through `stream::replay_rollup_runs` — once
/// untouched (the baseline) and once with `spec` applied — and pair the
/// series up. `sinks` observes the *variant* leg (windows/alerts as they
/// close); its `cancelled` hook is also polled by the baseline leg.
/// Because the variant leg with an identity spec installs no hooks, it
/// is bit-identical to the baseline (and to a plain pue_rollup) by
/// construction.
[[nodiscard]] ScenarioResult run_scenario_runs(
    const std::vector<store::MetricRun>& runs,
    const stream::EngineOptions& base, const ScenarioSpec& spec,
    const stream::ReplaySinks& sinks = {});

/// Store-backed convenience: fetch every node's input-power channel over
/// `base.range` (exactly what `stream::replay_rollup` reads) and
/// delegate to run_scenario_runs. Scan degradation merges into `*stats`.
[[nodiscard]] ScenarioResult run_scenario(
    const store::Store& store, const std::vector<machine::NodeId>& nodes,
    const stream::EngineOptions& base, const ScenarioSpec& spec,
    const stream::ReplaySinks& sinks = {},
    store::QueryStats* stats = nullptr);

struct SweepOptions {
  /// Concurrent variant replays. <= 1 runs serially on the caller's
  /// thread. Workers are dedicated short-lived threads, NOT the shared
  /// util::ThreadPool: that pool runs every request's store fan-out
  /// (per-node scans), which seconds-long variant replays parked on it
  /// would queue behind them.
  std::size_t threads = 0;
  /// Polled between replayed seconds of every leg, possibly from several
  /// worker threads at once — must be thread-safe.
  std::function<bool()> cancelled;
  /// Every closed window of every variant leg, tagged with the variant
  /// index. Called from worker threads when threads > 1 — must be
  /// thread-safe. Per-variant window order is preserved; variants
  /// interleave.
  std::function<void(std::size_t, const stream::ClusterWindow&)> on_window;
};

/// Fan N specs over the same fetched runs: the baseline is replayed
/// once and shared; each variant replays independently. Results land at
/// their spec's index regardless of completion order.
[[nodiscard]] std::vector<ScenarioResult> run_sweep(
    const std::vector<store::MetricRun>& runs,
    const stream::EngineOptions& base,
    const std::vector<ScenarioSpec>& variants,
    const SweepOptions& options = {});

}  // namespace exawatt::scenario
