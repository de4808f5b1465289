#include "server/replay_source.hpp"

#include <algorithm>

#include "stream/replay.hpp"
#include "telemetry/metric.hpp"

namespace exawatt::server {

std::vector<machine::NodeId> power_nodes(const store::Store& store) {
  const int power_channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  std::vector<machine::NodeId> nodes;
  for (const telemetry::MetricId id : store.metrics()) {
    if (telemetry::metric_channel(id) == power_channel) {
      nodes.push_back(telemetry::metric_node(id));
    }
  }
  return nodes;
}

QueryService::SubscribeSource make_replay_source(const store::Store& store) {
  return [&store](const wire::Request& request, const CancelToken& cancel,
                  const QueryService::Emit& emit) {
    using wire::Tick;
    using wire::TickKind;
    std::vector<machine::NodeId> nodes = request.nodes;
    if (nodes.empty()) nodes = power_nodes(store);
    // The wire range is adversarial: an inverted or empty range means
    // "everything", and anything else is clamped to the stored data — the
    // replay walks its range second by second, so it must never outlive
    // the store just because a subscriber asked for end = 2^60.
    util::TimeRange range = request.range;
    if (range.begin >= range.end) {
      range = store.bounds();
    } else {
      range = range.clamp(store.bounds());
    }

    stream::EngineOptions options;
    options.range = range;
    options.window = request.window > 0 ? request.window : 10;
    options.rollup.edge_node_count = static_cast<double>(
        std::max<std::size_t>(1, nodes.size()));

    stream::ReplaySinks sinks;
    if ((request.subscribe_mask &
         static_cast<std::uint8_t>(TickKind::kWindow)) != 0) {
      sinks.on_window = [&emit](const stream::ClusterWindow& w) {
        Tick tick;
        tick.kind = TickKind::kWindow;
        tick.index = w.index;
        tick.t = w.t;
        tick.power_w = w.power_w;
        tick.pue = w.cooling.pue;
        tick.nodes_reporting = w.nodes_reporting;
        emit(tick);
      };
    }
    if ((request.subscribe_mask &
         static_cast<std::uint8_t>(TickKind::kAlert)) != 0) {
      sinks.on_alert = [&emit](const stream::Alert& alert) {
        Tick tick;
        tick.kind = TickKind::kAlert;
        tick.t = alert.t;
        tick.alert = alert;
        emit(tick);
      };
    }
    sinks.cancelled = [&cancel] {
      return cancel != nullptr && cancel->load(std::memory_order_relaxed);
    };

    const auto replay = stream::replay_rollup(store, nodes, options, sinks);
    if (!replay.cancelled) {
      Tick end;
      end.kind = TickKind::kEnd;
      end.t = range.end;
      end.index = replay.windows;
      emit(end);
    }
  };
}

}  // namespace exawatt::server
