#pragma once

#include <vector>

#include "core/simulation.hpp"
#include "facility/msb.hpp"
#include "machine/topology.hpp"
#include "power/component.hpp"
#include "telemetry/pipeline.hpp"
#include "thermal/node_thermal.hpp"
#include "workload/allocation_index.hpp"

namespace exawatt::core {

/// The model stack behind a live 1 Hz telemetry feed over the first
/// `n_nodes` nodes of a simulated machine: job allocation, fleet power
/// variability, node thermals and the MSB meters, wired into one
/// out-of-band `telemetry::Pipeline`. The pipeline holds references to
/// the models, so a rig is built in place and never copied or moved.
struct TelemetryRig {
  workload::AllocationIndex alloc;
  power::FleetVariability fleet;
  thermal::FleetThermal thermals;
  machine::Topology topo;
  facility::MsbModel msb;
  std::vector<machine::NodeId> nodes;
  telemetry::Pipeline pipeline;

  TelemetryRig(Simulation& sim, const SimulationConfig& config,
               util::TimeRange window, int n_nodes);
  TelemetryRig(const TelemetryRig&) = delete;
  TelemetryRig& operator=(const TelemetryRig&) = delete;
};

}  // namespace exawatt::core
