#pragma once

// Seeded benchmark inputs: telemetry feeds produced by the digital twin's
// 1 Hz out-of-band pipeline (core::Simulation + telemetry::Pipeline, the
// path `exawatt_sim simulate --store` lands on disk), not a random walk.

#include <cstdint>
#include <vector>

#include "machine/topology.hpp"
#include "telemetry/metric.hpp"
#include "util/sim_time.hpp"

namespace exawatt::perf {

/// A feed's shape: the first `nodes` nodes of the machine for `minutes`.
struct DataSpec {
  int nodes = 0;
  int minutes = 0;
};

/// ≈0.64 M events: fits the store's default 64 MB decoded-block cache.
inline constexpr DataSpec kSmall{32, 30};
/// ≈8.9 M events, ≈140 MB decoded: about twice the default cache.
inline constexpr DataSpec kLarge{256, 60};
/// ≈5.5 M events per hour, the ingest workload's write feed.
inline constexpr DataSpec kIngestFeed{128, 60};

struct Feed {
  /// Batches in arrival order: one per simulated minute (as the
  /// pipeline's store sink delivers them) or one per simulated second.
  std::vector<std::vector<telemetry::MetricEvent>> batches;
  util::TimeRange window;
  std::vector<machine::NodeId> nodes;
  std::uint64_t events = 0;
};

/// Run the pipeline over `spec`. The job history (which jobs run where)
/// is the fixed machine history of simulation seed 2021; `seed` drives
/// the fleet power variability, node thermals and MSB models that turn it
/// into telemetry. Different seeds give different values and change
/// points at a steady event density, so a run-to-run spread reflects the
/// system, not how busy a random job mix happened to be.
[[nodiscard]] Feed generate_feed(DataSpec spec, std::uint64_t seed,
                                 bool per_second);

}  // namespace exawatt::perf
