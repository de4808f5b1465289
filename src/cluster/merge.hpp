#pragma once

#include <optional>
#include <span>
#include <vector>

#include "store/store.hpp"
#include "telemetry/metric.hpp"
#include "ts/series.hpp"

namespace exawatt::cluster {

/// Elementwise-add `from` into `into`. Window sums are exact
/// integer-valued doubles (the store's WindowSum contract), so addition
/// order cannot perturb the result: merging any shard partition of the
/// same events bit-matches the unsharded grid. `into` and `from` must
/// share (start, window, size); an empty `into` adopts `from`'s grid.
void merge_window_sum(store::WindowSum& into, const store::WindowSum& from);

/// Merge per-shard scan results back into the single-store shape:
/// one run per requested id, in `ids` order (duplicate ids each carry
/// the full run, as `Store::query_many` answers them), samples
/// re-sorted by `store::sample_less`. Because that order is a pure
/// function of the sample multiset, the merged runs are the identical
/// vectors `Store::query_many` would have produced on the union of the
/// shards.
[[nodiscard]] std::vector<store::MetricRun> merge_runs(
    std::span<const telemetry::MetricId> ids,
    std::span<const std::vector<store::MetricRun>* const> parts);

/// Gather per-shard node-means answers (`store::window_means` runs) into
/// one series per requested id on the `range`/`window` grid, in `ids`
/// order: count 1 and the mean where a shard reported one, zero
/// elsewhere. `store::reduce_cluster_sum` reads nothing else, so reducing
/// these bit-matches reducing the shard's own coarsened series. Returns
/// nullopt when an id is non-empty in more than one part — two shards
/// both hold some of its samples (e.g. mid-rebalance), so neither mean is
/// the mean over the union and the caller must merge raw samples
/// instead. Throws CheckError on a sample off the grid.
[[nodiscard]] std::optional<std::vector<ts::StatSeries>> merge_node_means(
    std::span<const telemetry::MetricId> ids,
    std::span<const std::vector<store::MetricRun>* const> parts,
    util::TimeRange range, util::TimeSec window);

}  // namespace exawatt::cluster
