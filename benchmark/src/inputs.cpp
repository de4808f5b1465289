#include "inputs.hpp"

#include <numeric>

#include "core/simulation.hpp"
#include "facility/msb.hpp"
#include "power/component.hpp"
#include "telemetry/pipeline.hpp"
#include "thermal/node_thermal.hpp"
#include "workload/allocation_index.hpp"

namespace exawatt::perf {

namespace {

/// The machine whose history every feed samples: `exawatt_sim simulate`'s
/// defaults (512 nodes, two days).
constexpr int kMachineNodes = 512;
constexpr std::uint64_t kJobHistorySeed = 2021;
/// Feeds start one hour in, past the empty-machine ramp at t = 0.
constexpr util::TimeSec kFeedStart = util::kHour;

}  // namespace

Feed generate_feed(DataSpec spec, std::uint64_t seed, bool per_second) {
  core::SimulationConfig config;
  config.scale = machine::MachineScale::small(kMachineNodes);
  config.seed = kJobHistorySeed;
  config.range = {0, 2 * util::kDay};
  core::Simulation sim(config);

  Feed feed;
  feed.window = {kFeedStart, kFeedStart + spec.minutes * util::kMinute};
  feed.nodes.resize(static_cast<std::size_t>(spec.nodes));
  std::iota(feed.nodes.begin(), feed.nodes.end(), 0);

  const workload::AllocationIndex alloc(sim.jobs(), feed.window,
                                        config.scale.nodes);
  const power::FleetVariability fleet(config.scale, seed + 1);
  const thermal::FleetThermal thermals(config.scale, seed + 2);
  const machine::Topology topo(config.scale);
  const facility::MsbModel msb(topo, seed + 3);
  telemetry::Pipeline pipeline(feed.nodes, alloc, fleet, thermals, msb);

  if (per_second) {
    pipeline.set_tap([&](util::TimeSec,
                         std::span<const telemetry::Collector::Arrival> in) {
      if (in.empty()) return;
      std::vector<telemetry::MetricEvent>& batch = feed.batches.emplace_back();
      batch.reserve(in.size());
      for (const auto& arrival : in) batch.push_back(arrival.event);
    });
  } else {
    pipeline.set_batch_sink(
        [&](const std::vector<telemetry::MetricEvent>& batch) {
          feed.batches.push_back(batch);
        });
  }
  pipeline.run(feed.window);
  for (const auto& batch : feed.batches) feed.events += batch.size();
  return feed;
}

}  // namespace exawatt::perf
