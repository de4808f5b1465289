#include "cluster/merge.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.hpp"

namespace exawatt::cluster {

void merge_window_sum(store::WindowSum& into, const store::WindowSum& from) {
  if (into.sum.empty()) {
    into = from;
    return;
  }
  if (from.sum.empty()) return;
  EXA_CHECK(into.start == from.start && into.window == from.window &&
                into.size() == from.size(),
            "window_sum grids disagree — shards answered different grids");
  for (std::size_t w = 0; w < into.size(); ++w) {
    into.sum[w] += from.sum[w];
    into.count[w] += from.count[w];
  }
}

std::vector<store::MetricRun> merge_runs(
    std::span<const telemetry::MetricId> ids,
    std::span<const std::vector<store::MetricRun>* const> parts) {
  std::unordered_map<telemetry::MetricId, std::size_t> index;
  index.reserve(ids.size());
  std::vector<store::MetricRun> out(ids.size());
  // Duplicate requested ids merge once into the first slot, then the
  // finished run is copied to the rest — Store::query_many answers every
  // duplicate with the full run, and parity says we must too.
  std::vector<std::pair<std::size_t, std::size_t>> duplicates;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out[i].id = ids[i];
    const auto [it, fresh] = index.emplace(ids[i], i);
    if (!fresh) duplicates.emplace_back(i, it->second);
  }
  std::unordered_set<telemetry::MetricId> seen;
  for (const std::vector<store::MetricRun>* part : parts) {
    if (part == nullptr) continue;
    seen.clear();
    for (const store::MetricRun& run : *part) {
      const auto it = index.find(run.id);
      if (it == index.end()) continue;  // shard answered an id we dropped
      // A duplicate-id sub-query makes the shard answer the same full
      // run twice; folding both copies in would double-count.
      if (!seen.insert(run.id).second) continue;
      auto& samples = out[it->second].samples;
      samples.insert(samples.end(), run.samples.begin(), run.samples.end());
    }
  }
  for (store::MetricRun& run : out) {
    std::sort(run.samples.begin(), run.samples.end(), store::sample_less);
  }
  for (const auto& [slot, canonical] : duplicates) {
    out[slot].samples = out[canonical].samples;
  }
  return out;
}

std::optional<std::vector<ts::StatSeries>> merge_node_means(
    std::span<const telemetry::MetricId> ids,
    std::span<const std::vector<store::MetricRun>* const> parts,
    util::TimeRange range, util::TimeSec window) {
  // Duplicate requested ids share their first slot's owner, as
  // merge_runs gives every duplicate the full run.
  std::unordered_map<telemetry::MetricId, std::size_t> index;
  index.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) index.emplace(ids[i], i);
  std::vector<const store::MetricRun*> owner(ids.size(), nullptr);
  std::unordered_set<telemetry::MetricId> seen;
  for (const std::vector<store::MetricRun>* part : parts) {
    if (part == nullptr) continue;
    seen.clear();
    for (const store::MetricRun& run : *part) {
      const auto it = index.find(run.id);
      if (it == index.end()) continue;
      if (!seen.insert(run.id).second) continue;  // a duplicate's copy
      if (run.samples.empty()) continue;
      if (owner[it->second] != nullptr) return std::nullopt;
      owner[it->second] = &run;
    }
  }
  const auto n_windows =
      static_cast<std::size_t>((range.duration() + window - 1) / window);
  std::vector<ts::StatSeries> out;
  out.reserve(ids.size());
  for (const telemetry::MetricId id : ids) {
    std::vector<ts::WindowStats> windows(n_windows);
    if (const store::MetricRun* run = owner[index.at(id)]; run != nullptr) {
      for (const ts::Sample& s : run->samples) {
        EXA_CHECK(s.t >= range.begin && s.t < range.end &&
                      (s.t - range.begin) % window == 0,
                  "node means off the window grid");
        const auto w = static_cast<std::size_t>((s.t - range.begin) / window);
        windows[w].count = 1;
        windows[w].mean = s.value;
      }
    }
    out.emplace_back(range.begin, window, std::move(windows));
  }
  return out;
}

}  // namespace exawatt::cluster
