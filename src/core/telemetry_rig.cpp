#include "core/telemetry_rig.hpp"

#include <numeric>

namespace exawatt::core {

TelemetryRig::TelemetryRig(Simulation& sim, const SimulationConfig& config,
                           util::TimeRange window, int n_nodes)
    : alloc(sim.jobs(), window, config.scale.nodes),
      fleet(config.scale, config.seed + 1),
      thermals(config.scale, config.seed + 2),
      topo(config.scale),
      msb(topo, config.seed + 3),
      nodes([&] {
        std::vector<machine::NodeId> v(static_cast<std::size_t>(n_nodes));
        std::iota(v.begin(), v.end(), 0);
        return v;
      }()),
      pipeline(nodes, alloc, fleet, thermals, msb) {}

}  // namespace exawatt::core
