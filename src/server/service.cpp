#include "server/service.hpp"

#include <chrono>
#include <limits>
#include <thread>

#include "scenario/engine.hpp"
#include "server/chunk.hpp"
#include "stream/replay.hpp"
#include "telemetry/metric.hpp"
#include "util/check.hpp"

namespace exawatt::server {

// Rejects before the store's round-up arithmetic
// (`(duration + window - 1) / window` doubles) can overflow or demand
// an absurd allocation.
bool grid_ok(util::TimeRange range, util::TimeSec window, std::string* why) {
  if (range.begin > range.end) {
    *why = "range begin > end";
    return false;
  }
  const util::TimeSec duration = range.duration();
  if (duration < 0) {  // wider than INT64_MAX seconds (unsigned wrap)
    *why = "range too wide";
    return false;
  }
  if (window <= 0) {
    *why = "window must be positive";
    return false;
  }
  if (window - 1 > std::numeric_limits<util::TimeSec>::max() - duration) {
    *why = "window too large";  // duration + window - 1 would overflow
    return false;
  }
  if (duration / window > static_cast<util::TimeSec>(1) << 24) {
    *why = "window grid too large";
    return false;
  }
  return true;
}

bool scenario_request_ok(const wire::Request& request,
                         util::TimeRange bounds,
                         stream::EngineOptions* opts,
                         wire::Response* resp) {
  const auto invalid = [&](std::string why) {
    resp->status = wire::Status::kInvalidArgument;
    resp->message = std::move(why);
    return false;
  };
  if (request.nodes.empty()) return invalid("scenario wants nodes");
  if (request.nodes.size() > 4096) {
    return invalid("too many nodes for a scenario replay");
  }
  const std::size_t max_specs =
      request.method == wire::Method::kScenario ? 1 : wire::kMaxSweepVariants;
  if (request.scenarios.empty() || request.scenarios.size() > max_specs) {
    return invalid(request.method == wire::Method::kScenario
                       ? "scenario wants exactly one spec"
                       : "sweep wants 1..64 specs");
  }
  std::string why;
  for (const scenario::ScenarioSpec& spec : request.scenarios) {
    if (!spec.valid(&why)) {
      return invalid("scenario '" + spec.name + "': " + why);
    }
  }
  if (request.range.begin > request.range.end) {
    return invalid("range begin > end");
  }
  // Like pue_rollup: the replay walks its range second by second, so a
  // wire-supplied range must not outlive the data.
  const util::TimeRange range = request.range.clamp(bounds);
  const util::TimeSec window = request.window > 0 ? request.window : 10;
  if (!grid_ok(range, window, &why)) return invalid(std::move(why));
  opts->range = range;
  opts->window = window;
  opts->rollup.edge_node_count = static_cast<double>(request.nodes.size());
  return true;
}

void run_scenario_request(const wire::Request& request,
                          const std::vector<store::MetricRun>& runs,
                          const stream::EngineOptions& opts,
                          const CancelToken& cancel,
                          std::int64_t deadline_us, util::Clock& clock,
                          const QueryService::Emit& emit,
                          wire::Response* resp) {
  const auto cancelled = [&cancel, deadline_us, &clock] {
    return (cancel != nullptr && cancel->load(std::memory_order_relaxed)) ||
           (deadline_us != 0 && clock.now_us() > deadline_us);
  };
  bool abandoned = false;
  if (request.method == wire::Method::kScenario) {
    stream::ReplaySinks sinks;
    sinks.cancelled = cancelled;
    scenario::ScenarioResult r = scenario::run_scenario_runs(
        runs, opts, request.scenarios.front(), sinks);
    abandoned = r.cancelled;
    if (!abandoned) {
      resp->scenarios.push_back(
          scenario::summarize(r, request.scenarios.front().name,
                              opts.window));
      resp->series = std::move(r.power);
      resp->pue = std::move(r.pue);
      resp->baseline_power = std::move(r.baseline_power);
      resp->baseline_pue = std::move(r.baseline_pue);
    }
  } else {
    scenario::SweepOptions sweep;
    sweep.cancelled = cancelled;
    if (emit != nullptr &&
        (request.subscribe_mask &
         static_cast<std::uint8_t>(wire::TickKind::kWindow)) != 0) {
      sweep.on_window = [&emit](std::size_t variant,
                                const stream::ClusterWindow& w) {
        wire::Tick tick;
        tick.kind = wire::TickKind::kVariantWindow;
        tick.variant = static_cast<std::uint32_t>(variant);
        tick.index = w.index;
        tick.t = w.t;
        tick.power_w = w.power_w;
        tick.pue = w.cooling.pue;
        tick.nodes_reporting = w.nodes_reporting;
        emit(tick);
      };
    }
    if (request.scenarios.size() > 1) {
      const unsigned hw = std::thread::hardware_concurrency();
      sweep.threads = std::min<std::size_t>(request.scenarios.size(),
                                            hw > 0 ? hw : 2);
    }
    const std::vector<scenario::ScenarioResult> results =
        scenario::run_sweep(runs, opts, request.scenarios, sweep);
    for (const scenario::ScenarioResult& r : results) {
      abandoned = abandoned || r.cancelled;
    }
    if (!abandoned) {
      resp->scenarios.reserve(results.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        resp->scenarios.push_back(scenario::summarize(
            results[i], request.scenarios[i].name, opts.window));
      }
    }
  }
  if (abandoned) {
    // Same verdict shape as an abandoned pue_rollup: a partial sweep is
    // not the answer, so report why the work stopped.
    const bool peer_gone =
        cancel != nullptr && cancel->load(std::memory_order_relaxed);
    resp->scenarios.clear();
    resp->status = peer_gone ? wire::Status::kCancelled
                             : wire::Status::kDeadlineExceeded;
    resp->message = peer_gone ? "client disconnected during replay"
                              : "deadline expired during replay";
  }
}

namespace {

wire::Response execute_on_store(const store::Store& store,
                                util::Clock& clock,
                                const wire::Request& request,
                                const CancelToken& cancel,
                                std::int64_t deadline_us,
                                const QueryService::Emit& emit,
                                ChunkWriter* stream) {
  wire::Response resp;
  resp.method = request.method;
  std::string why;
  switch (request.method) {
    case wire::Method::kPing:
      break;
    case wire::Method::kWindowSum: {
      if (!grid_ok(request.range, request.window, &why)) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = std::move(why);
        break;
      }
      resp.window_sum = store.window_sum(request.metric, request.range,
                                         request.window, nullptr,
                                         &resp.stats);
      break;
    }
    case wire::Method::kScan: {
      if (request.metrics.empty() || request.metrics.size() > 4096) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "scan wants 1..4096 metric ids";
        break;
      }
      if (request.range.begin > request.range.end) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "range begin > end";
        break;
      }
      if (stream == nullptr) {
        resp.runs = store.query_many(request.metrics, request.range, nullptr,
                                     &resp.stats);
        break;
      }
      // Chunked path: runs flow one at a time from the decoded-block
      // cache through the ChunkWriter into the connection's gated
      // outbox — peak resident bytes are one run plus the stream
      // budget, not the result size. The concatenated stream encoding
      // is byte-identical to encode_response of the materialized
      // result; resp.runs stays empty (already on the wire).
      bool expired = false;
      std::vector<std::uint8_t> buf;
      bool alive = true;
      auto check_liveness = [&] {
        if (deadline_us != 0 && clock.now_us() > deadline_us) {
          expired = true;
          return false;
        }
        return cancel == nullptr || !cancel->load(std::memory_order_relaxed);
      };
      if (request.want_scan_blocks) {
        // Block form: whole-in-range blocks ship still encoded, sliced
        // straight from the mapped segment through the ChunkWriter —
        // the serving path never decodes or re-encodes them. The
        // response method flips to kScanBlocks so the peer knows to
        // decode pieces (it opted in, so it can).
        resp.method = wire::Method::kScanBlocks;
        buf.clear();
        wire::scan_blocks_begin(request.metrics.size(), &buf);
        alive = stream->write(buf);
        if (alive) {
          store::RawScanSink sink;
          sink.begin_run = [&](telemetry::MetricId id) {
            if (!check_liveness()) return false;
            buf.clear();
            wire::scan_blocks_run_begin(id, &buf);
            return stream->write(buf);
          };
          sink.block = [&](std::span<const std::uint8_t> bytes,
                           std::uint32_t events) {
            if (!check_liveness()) return false;
            buf.clear();
            wire::scan_blocks_block_header(
                static_cast<std::uint32_t>(bytes.size()), events, &buf);
            return stream->write(buf) && stream->write(bytes);
          };
          sink.samples = [&](std::span<const ts::Sample> samples) {
            if (!check_liveness()) return false;
            buf.clear();
            wire::scan_blocks_samples(samples, &buf);
            return stream->write(buf);
          };
          sink.end_run = [&] {
            buf.clear();
            wire::scan_blocks_run_end(&buf);
            return stream->write(buf);
          };
          alive = store.scan_encoded(request.metrics, request.range, sink,
                                     &resp.stats);
        }
      } else {
        wire::scan_stream_begin(request.metrics.size(), &buf);
        alive = stream->write(buf);
        if (alive) {
          alive = store.scan(
              request.metrics, request.range,
              [&](store::MetricRun&& run) {
                if (!check_liveness()) return false;
                buf.clear();
                wire::scan_stream_run(run, &buf);
                return stream->write(buf);
              },
              &resp.stats);
        }
      }
      if (alive) {
        buf.clear();
        if (request.want_scan_blocks) {
          wire::scan_blocks_end(resp.stats, &buf);
        } else {
          wire::scan_stream_end(resp.stats, &buf);
        }
        if (!stream->write(buf) || !stream->finish()) {
          resp.status = wire::Status::kCancelled;
          resp.message = "stream died mid-scan";
        }
        break;
      }
      // The scan stopped early: deadline, cancel, or a dead stream. The
      // fragments already sent are disowned by the kAbort frame carrying
      // this error response.
      const bool peer_gone =
          cancel != nullptr && cancel->load(std::memory_order_relaxed);
      resp.status = expired ? wire::Status::kDeadlineExceeded
                            : wire::Status::kCancelled;
      resp.message = expired ? "deadline expired during scan"
                             : (peer_gone ? "client disconnected during scan"
                                          : "stream died mid-scan");
      if (!stream->terminated()) stream->abort(resp);
      break;
    }
    case wire::Method::kClusterSum: {
      if (request.nodes.empty()) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "cluster_sum wants nodes";
        break;
      }
      if (!grid_ok(request.range, request.window, &why)) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = std::move(why);
        break;
      }
      resp.series =
          store::cluster_sum(store, request.nodes, request.channel,
                             request.range, request.window, &resp.counts,
                             nullptr, &resp.stats);
      break;
    }
    case wire::Method::kNodeMeans: {
      if (request.nodes.empty()) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "node_means wants nodes";
        break;
      }
      if (!grid_ok(request.range, request.window, &why)) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = std::move(why);
        break;
      }
      // cluster_sum's per-node stage, shipped instead of reduced: the
      // coordinator reduces every shard's means in node order.
      const std::vector<ts::StatSeries> per_node = store::coarsen_nodes(
          store, request.nodes, request.channel, request.range,
          request.window, nullptr, &resp.stats);
      resp.runs.reserve(per_node.size());
      for (std::size_t i = 0; i < per_node.size(); ++i) {
        resp.runs.push_back(store::window_means(
            telemetry::metric_id(request.nodes[i], request.channel),
            per_node[i]));
      }
      break;
    }
    case wire::Method::kPueRollup: {
      if (request.nodes.empty()) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "pue_rollup wants nodes";
        break;
      }
      if (request.range.begin > request.range.end) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = "range begin > end";
        break;
      }
      // The replay walks its range one simulated second at a time, so a
      // wire-supplied range must not outlive the data: there is nothing
      // to replay outside the store's bounds.
      const util::TimeRange range = request.range.clamp(store.bounds());
      const util::TimeSec window = request.window > 0 ? request.window : 10;
      if (!grid_ok(range, window, &why)) {
        resp.status = wire::Status::kInvalidArgument;
        resp.message = std::move(why);
        break;
      }
      stream::EngineOptions opts;
      opts.range = range;
      opts.window = window;
      opts.rollup.edge_node_count =
          static_cast<double>(request.nodes.size());
      stream::ReplaySinks sinks;
      sinks.cancelled = [&] {
        return (cancel != nullptr &&
                cancel->load(std::memory_order_relaxed)) ||
               (deadline_us != 0 && clock.now_us() > deadline_us);
      };
      stream::RollupReplay replay = stream::replay_rollup(
          store, request.nodes, opts, sinks, &resp.stats);
      if (replay.cancelled) {
        // Abandoned mid-replay; a partial series is not the answer the
        // client asked for, so report why the work stopped instead.
        const bool peer_gone =
            cancel != nullptr && cancel->load(std::memory_order_relaxed);
        resp.status = peer_gone ? wire::Status::kCancelled
                                : wire::Status::kDeadlineExceeded;
        resp.message = peer_gone ? "client disconnected during replay"
                                 : "deadline expired during replay";
        break;
      }
      resp.series = std::move(replay.power);
      resp.pue = std::move(replay.pue);
      break;
    }
    case wire::Method::kSubscribe:
      // Reached only via execute() in tests; the admitted path routes
      // subscriptions to the installed source instead.
      resp.status = wire::Status::kUnimplemented;
      resp.message = "subscribe needs a streaming endpoint";
      break;
    case wire::Method::kDirectory:
      resp.directory.total_events = store.total_events();
      resp.directory.buffered_events = store.buffered_events();
      resp.directory.bounds = store.bounds();
      resp.directory.segments = store.directory();
      break;
    case wire::Method::kServerStats:
      // Handled by QueryService::execute before the executor is reached.
      break;
    case wire::Method::kScanBlocks:
      resp.status = wire::Status::kInvalidArgument;
      resp.message = "scan_blocks is response-only (request as kScan)";
      break;
    case wire::Method::kScenario:
    case wire::Method::kScenarioSweep: {
      stream::EngineOptions opts;
      if (!scenario_request_ok(request, store.bounds(), &opts, &resp)) {
        break;
      }
      const int channel =
          telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
      std::vector<telemetry::MetricId> ids;
      ids.reserve(request.nodes.size());
      for (const machine::NodeId n : request.nodes) {
        ids.push_back(telemetry::metric_id(n, channel));
      }
      const auto runs =
          store.query_many(ids, opts.range, nullptr, &resp.stats);
      run_scenario_request(request, runs, opts, cancel, deadline_us, clock,
                           emit, &resp);
      break;
    }
  }
  return resp;
}

}  // namespace

QueryService::Executor make_store_executor(const store::Store& store,
                                           util::Clock* clock) {
  util::Clock* resolved =
      clock != nullptr ? clock : &util::Clock::steady();
  return [&store, resolved](const wire::Request& request,
                            const CancelToken& cancel,
                            std::int64_t deadline_us,
                            const QueryService::Emit& emit,
                            ChunkWriter* stream) {
    return execute_on_store(store, *resolved, request, cancel, deadline_us,
                            emit, stream);
  };
}

namespace {

/// Fills in what a caller may leave out: QoS tuning defaults to
/// QosOptions{} and the scheduler's queue bound is the service's.
ServiceOptions resolved(ServiceOptions options) {
  EXA_CHECK(options.queue_limit > 0, "admission queue must hold something");
  if (!options.qos) options.qos.emplace();
  options.qos->scheduler.max_queue = options.queue_limit;
  return options;
}

/// The store-backed constructor defaults the QoS block counter to its
/// own store — pricing and execution then read the same directory.
ServiceOptions with_store_counter(const store::Store& store,
                                  ServiceOptions options) {
  QosOptions qos = options.qos.value_or(QosOptions{});
  if (!qos.blocks) qos.blocks = qos::store_block_counter(store);
  options.qos = std::move(qos);
  return options;
}

}  // namespace

QueryService::QueryService(const store::Store& store, ServiceOptions options)
    : QueryService(make_store_executor(store, options.clock),
                   with_store_counter(store, std::move(options))) {}

QueryService::QueryService(Executor executor, ServiceOptions options)
    : executor_(std::move(executor)),
      options_(resolved(std::move(options))),
      clock_(options_.clock != nullptr ? *options_.clock
                                       : util::Clock::steady()),
      lat_p50_(0.5),
      lat_p99_(0.99),
      class_p99_{stream::P2Quantile(0.99), stream::P2Quantile(0.99),
                 stream::P2Quantile(0.99)},
      qos_cost_(options_.qos->cost, options_.qos->blocks),
      qos_sched_(options_.qos->scheduler),
      qos_pool_(&qos_sched_, options_.qos->pool, options_.clock) {
  EXA_CHECK(executor_ != nullptr, "service needs an executor");
}

QueryService::~QueryService() {
  qos_pool_.stop();
  // Unstarted items at teardown are shed, not leaked: their done
  // callbacks still fire exactly once.
  for (qos::Item& item : qos_sched_.drain_all()) {
    if (item.shed) item.shed();
  }
}

void QueryService::set_subscribe_source(SubscribeSource source) {
  std::lock_guard lk(mu_);
  subscribe_ = std::move(source);
}

void QueryService::set_stats_augment(StatsAugment augment) {
  std::lock_guard lk(mu_);
  stats_augments_.push_back(std::move(augment));
}

wire::Response QueryService::execute(const wire::Request& request,
                                     const CancelToken& cancel,
                                     std::int64_t deadline_us,
                                     const Emit& emit,
                                     ChunkWriter* stream) const {
  if (request.method == wire::Method::kServerStats) {
    // The counters are the service's own, so stats never defer to the
    // executor — a coordinator augments the snapshot with its link
    // health instead of replacing it.
    wire::Response resp;
    resp.method = request.method;
    const ServiceMetrics m = metrics();
    wire::ServerStatsWire& s = resp.server;
    s.add("service.accepted", m.accepted);
    s.add("service.served", m.served);
    s.add("service.shed", m.shed);
    s.add("service.deadline_exceeded", m.deadline_exceeded);
    s.add("service.cancelled", m.cancelled);
    s.add("service.failed", m.failed);
    s.add("service.queue_depth", m.queue_depth);
    s.add("service.queue_limit", options_.queue_limit);
    s.add("service.p50_ms", m.p50_ms);
    s.add("service.p99_ms", m.p99_ms);
    s.add("qos.workers", m.qos_workers);
    s.add("qos.backlog_cost_us", m.qos_backlog_cost_us);
    for (std::size_t c = 0; c < qos::kClassCount; ++c) {
      const std::string cls =
          std::string("qos.") + qos::class_name(static_cast<qos::Class>(c));
      s.add(cls + ".served", m.class_served[c]);
      s.add(cls + ".shed", m.class_shed[c]);
      s.add(cls + ".p99_ms", m.class_p99_ms[c]);
    }
    std::vector<StatsAugment> augments;
    {
      std::lock_guard lk(mu_);
      augments = stats_augments_;
    }
    for (const StatsAugment& augment : augments) augment(s);
    return resp;
  }
  return executor_(request, cancel, deadline_us, emit, stream);
}

void QueryService::finish(std::int64_t admitted_us, qos::Class cls,
                          wire::Response&& response, const Done& done) {
  const double latency_ms =
      static_cast<double>(clock_.now_us() - admitted_us) / 1000.0;
  const wire::Status status = response.status;
  done(std::move(response));
  // Counted only once `done` has returned, in the same critical section
  // that frees the slot: drain() never returns under a running `done`
  // (which may still touch the endpoint that owns it), and every
  // snapshot keeps accepted == settled + queue_depth.
  std::lock_guard lk(mu_);
  switch (status) {
    case wire::Status::kOk: ++served_; break;
    case wire::Status::kDeadlineExceeded: ++deadline_exceeded_; break;
    case wire::Status::kCancelled: ++cancelled_; break;
    case wire::Status::kInternal: ++failed_; break;
    default: break;
  }
  lat_p50_.add(latency_ms);
  lat_p99_.add(latency_ms);
  const auto c = static_cast<std::size_t>(cls);
  if (status == wire::Status::kOk) ++class_served_[c];
  class_p99_[c].add(latency_ms);
  if (--depth_ == 0) idle_cv_.notify_all();
}

void QueryService::run_admitted(const std::shared_ptr<Admitted>& a) {
  wire::Response resp;
  resp.method = a->request.method;
  if (a->cancel != nullptr && a->cancel->load(std::memory_order_relaxed)) {
    // The peer is gone; its queued work is void, not executed.
    resp.status = wire::Status::kCancelled;
    resp.message = "client disconnected while queued";
    finish(a->admitted_us, a->cls, std::move(resp), a->done);
    return;
  }
  if (a->deadline_us != 0 && clock_.now_us() > a->deadline_us) {
    // Expired work is never started — running it would only delay
    // requests that can still make their deadlines.
    resp.status = wire::Status::kDeadlineExceeded;
    resp.message = "deadline expired before execution";
    finish(a->admitted_us, a->cls, std::move(resp), a->done);
    return;
  }
  try {
    if (a->request.method == wire::Method::kSubscribe) {
      if (!a->subscribe) {
        resp.status = wire::Status::kUnimplemented;
        resp.message = "no subscription source";
      } else {
        a->subscribe(a->request, a->cancel, a->emit);
        if (a->cancel != nullptr &&
            a->cancel->load(std::memory_order_relaxed)) {
          resp.status = wire::Status::kCancelled;
          resp.message = "subscriber disconnected";
        }
      }
    } else {
      resp = execute(a->request, a->cancel, a->deadline_us, a->emit,
                     a->stream);
      if (a->deadline_us != 0 && clock_.now_us() > a->deadline_us) {
        // Finished too late to be useful; report it as such so the
        // latency SLO accounting reflects what the client saw.
        resp = {};
        resp.method = a->request.method;
        resp.status = wire::Status::kDeadlineExceeded;
        resp.message = "deadline expired during execution";
      }
    }
  } catch (const std::exception& e) {
    resp = {};
    resp.method = a->request.method;
    resp.status = wire::Status::kInternal;
    resp.message = e.what();
  }
  finish(a->admitted_us, a->cls, std::move(resp), a->done);
}

void QueryService::submit(wire::Request request, CancelToken cancel,
                          Emit emit, Done done, ChunkWriter* stream) {
  // Everything the worker needs travels in one shared Admitted record:
  // the run and shed closures alias it instead of copying the request.
  const qos::Class cls = qos::class_from_wire(request.qos_class);
  const std::uint32_t tenant = request.tenant;
  const std::uint64_t cost_us = qos_cost_.price(request);

  const std::int64_t admitted_us = clock_.now_us();
  const std::uint32_t deadline_ms = request.deadline_ms != 0
                                        ? request.deadline_ms
                                        : options_.default_deadline_ms;
  auto a = std::make_shared<Admitted>();
  a->request = std::move(request);
  a->cancel = std::move(cancel);
  a->emit = std::move(emit);
  a->done = std::move(done);
  a->stream = stream;
  a->admitted_us = admitted_us;
  a->deadline_us =
      deadline_ms != 0
          ? admitted_us + static_cast<std::int64_t>(deadline_ms) * 1000
          : 0;
  a->cls = cls;
  a->cost_us = cost_us;

  qos::Item item;
  item.cls = cls;
  item.tenant = tenant;
  item.cost_us = cost_us;
  item.run = [this, a] {
    {
      std::lock_guard lk(mu_);
      a->subscribe = subscribe_;
    }
    run_admitted(a);
  };
  item.shed = [this, a] {
    wire::Response resp;
    resp.method = a->request.method;
    resp.status = wire::Status::kResourceExhausted;
    resp.message = "queue overloaded: request shed (estimated cost " +
                   std::to_string(a->cost_us) + " us)";
    resp.shed_cost_hint_us = a->cost_us;
    a->done(std::move(resp));
    std::lock_guard lk(mu_);  // settled after `done`, as in finish()
    ++shed_;
    ++class_shed_[static_cast<std::size_t>(a->cls)];
    if (--depth_ == 0) idle_cv_.notify_all();
  };

  {
    std::lock_guard lk(mu_);
    if (draining_) {
      wire::Response resp;
      resp.method = a->request.method;
      resp.status = wire::Status::kUnavailable;
      resp.message = "server is draining";
      a->done(std::move(resp));
      return;
    }
    // Count before push: a worker may pop and finish the item before
    // push even returns, and finish() expects depth_ to include it.
    ++depth_;
    ++accepted_;
  }
  qos::PushResult r = qos_sched_.push(std::move(item), clock_.now_us());
  if (!r.admitted) {
    // The incoming request itself was refused: undo its admission (the
    // shed callback below settles depth_ and the shed counters).
    std::lock_guard lk(mu_);
    --accepted_;
  }
  if (r.evicted) {
    // Invoked outside every lock — the shed closure takes mu_ itself.
    r.evicted->shed();
  }
  if (r.admitted) qos_pool_.notify();
}

void QueryService::submit_internal(qos::Class cls, std::uint64_t cost_us,
                                   std::function<void()> work,
                                   std::function<void()> dropped) {
  {
    std::unique_lock lk(mu_);
    if (draining_) {
      lk.unlock();  // user callback never runs under mu_
      if (dropped) dropped();
      return;
    }
    ++depth_;  // internal work is not `accepted_` — it is not a request
  }
  auto settle = [this] {
    std::lock_guard lk(mu_);
    --depth_;
    if (depth_ == 0) idle_cv_.notify_all();
  };
  qos::Item item;
  item.cls = cls;
  item.tenant = 0;
  item.cost_us = cost_us;
  item.run = [work = std::move(work), settle] {
    try {
      work();
    } catch (...) {
      // Internal work failing must not take the worker thread with it.
    }
    settle();
  };
  // Shed under pressure: the work simply does not run this round — the
  // caller's cadence retries once `dropped` releases its latch.
  item.shed = [settle, dropped = std::move(dropped)] {
    if (dropped) dropped();
    settle();
  };
  qos::PushResult r = qos_sched_.push(std::move(item), clock_.now_us());
  if (r.evicted) r.evicted->shed();
  if (r.admitted) qos_pool_.notify();
}

ServiceMetrics QueryService::metrics() const {
  ServiceMetrics m;
  // Pool and scheduler snapshots are taken outside mu_ — each has its
  // own lock, and the ordering here (no lock held while asking) keeps
  // the three lock domains acyclic.
  m.qos_workers = qos_pool_.workers();
  m.qos_backlog_cost_us = qos_sched_.snapshot(clock_.now_us()).backlog_cost_us;
  std::lock_guard lk(mu_);
  m.accepted = accepted_;
  m.served = served_;
  m.shed = shed_;
  m.deadline_exceeded = deadline_exceeded_;
  m.cancelled = cancelled_;
  m.failed = failed_;
  m.queue_depth = depth_;
  m.p50_ms = lat_p50_.count() > 0 ? lat_p50_.value() : 0.0;
  m.p99_ms = lat_p99_.count() > 0 ? lat_p99_.value() : 0.0;
  for (std::size_t c = 0; c < qos::kClassCount; ++c) {
    m.class_served[c] = class_served_[c];
    m.class_shed[c] = class_shed_[c];
    m.class_p99_ms[c] =
        class_p99_[c].count() > 0 ? class_p99_[c].value() : 0.0;
  }
  return m;
}

bool QueryService::drain(int timeout_ms) {
  std::unique_lock lk(mu_);
  draining_ = true;
  const auto idle = [this] { return depth_ == 0; };
  if (timeout_ms < 0) {
    idle_cv_.wait(lk, idle);
    return true;
  }
  return idle_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms), idle);
}

}  // namespace exawatt::server
