#pragma once

#include <vector>

#include "machine/topology.hpp"
#include "server/service.hpp"
#include "store/store.hpp"

namespace exawatt::server {

/// Every node with an input-power channel in `store`.
[[nodiscard]] std::vector<machine::NodeId> power_nodes(
    const store::Store& store);

/// The subscription executor a store-backed server installs: replay the
/// requested window of `store` through the streaming engine on the pool
/// thread, pushing each closed cluster window (and alert transition) to
/// the subscriber as it happens, then a final kEnd tick. Runs the exact
/// replay path `analyze --store` uses, which is what makes subscription
/// ticks bit-comparable to the offline series. An empty node list means
/// every power node; `store` must outlive the source.
[[nodiscard]] QueryService::SubscribeSource make_replay_source(
    const store::Store& store);

}  // namespace exawatt::server
