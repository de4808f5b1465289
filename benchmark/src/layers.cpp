// The traced run's replay passes. Each pass sends the same request prefix
// through one more layer boundary, so the differences between passes, and
// the spans inside them, say where a request's time goes:
//
//   0  loopback Client::call at concurrency 1 on the untraced topology
//      (the trace.overhead baseline), interleaved with pass 1
//   1  loopback Client::call at concurrency 1 on a second topology whose
//      executors are wrapped in spans, plus the wire codec alone on each
//      request/response it carried
//   2  QueryService::submit at workload concurrency (admission, queue wait)
//   3  QueryService::execute (no admission, no transport)
//   4  direct Store / replay_rollup / run_scenario_request calls
//   5  Coordinator::execute with the shard executors as child spans
//      (cluster workload only)

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>

#include "qos/cost.hpp"
#include "serving.hpp"
#include "server/client.hpp"
#include "stream/replay.hpp"
#include "trace.hpp"

namespace exawatt::perf {

namespace {

/// The span a direct call of `op` records in pass 4 (none for ping).
const char* direct_span(Op op) {
  switch (op) {
    case Op::kWindowSum: return "store.window_sum";
    case Op::kClusterSum: return "store.cluster_sum";
    case Op::kScan: return "store.scan";
    case Op::kScanBlocks: return "store.scan_blocks";
    case Op::kPueRollup: return "stream.replay";
    case Op::kScenarioSweep: return "scenario.request";
    case Op::kPing: break;
  }
  return nullptr;
}

struct DirectTotals {
  store::QueryStats stats;
  std::size_t calls = 0;
  std::vector<double> replay_events_per_s;
};

/// Pass 4 body: the layer call under the service for one request.
void call_direct(const store::Store& store, const Req& req, std::uint64_t id,
                 Tracer& tracer, DirectTotals& totals) {
  const wire::Request& w = req.wire;
  store::QueryStats stats;
  const double t0 = now_us();
  switch (req.op) {
    case Op::kPing:
      return;
    case Op::kWindowSum:
      (void)store.window_sum(w.metric, w.range, w.window, nullptr, &stats);
      break;
    case Op::kClusterSum: {
      std::vector<double> counts;
      (void)store::cluster_sum(store, w.nodes, w.channel, w.range, w.window,
                               &counts, nullptr, &stats);
      break;
    }
    case Op::kScan:
      (void)store.query_many(w.metrics, w.range, nullptr, &stats);
      break;
    case Op::kScanBlocks: {
      std::uint64_t bytes = 0;
      store::RawScanSink sink;
      sink.begin_run = [](telemetry::MetricId) { return true; };
      sink.block = [&bytes](std::span<const std::uint8_t> b, std::uint32_t) {
        bytes += b.size();
        return true;
      };
      sink.samples = [](std::span<const ts::Sample>) { return true; };
      sink.end_run = [] { return true; };
      (void)store.scan_encoded(w.metrics, w.range, sink, &stats);
      break;
    }
    case Op::kPueRollup: {
      stream::EngineOptions opts;
      opts.range = w.range.clamp(store.bounds());
      opts.window = w.window;
      opts.rollup.edge_node_count = static_cast<double>(w.nodes.size());
      const stream::RollupReplay replay =
          stream::replay_rollup(store, w.nodes, opts, {}, &stats);
      const double dt_s = (now_us() - t0) / 1e6;
      if (dt_s > 0) {
        totals.replay_events_per_s.push_back(
            static_cast<double>(replay.events) / dt_s);
      }
      break;
    }
    case Op::kScenarioSweep: {
      stream::EngineOptions opts;
      wire::Response resp;
      if (!server::scenario_request_ok(w, store.bounds(), &opts, &resp)) {
        throw std::runtime_error("sweep request rejected: " + resp.message);
      }
      std::vector<telemetry::MetricId> ids;
      const int channel =
          telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
      for (const machine::NodeId n : w.nodes) {
        ids.push_back(telemetry::metric_id(n, channel));
      }
      const auto runs = store.query_many(ids, opts.range, nullptr, &stats);
      const double t1 = now_us();
      server::run_scenario_request(w, runs, opts, nullptr, 0,
                                   util::Clock::steady(), nullptr, &resp);
      const double t2 = now_us();
      tracer.record("scenario.fetch", t0, t1, id);
      tracer.record("scenario.sweep", t1, t2, id);
      break;
    }
  }
  tracer.record(direct_span(req.op), t0, now_us(), id);
  totals.stats.merge(stats);
  ++totals.calls;
}

/// Pass 2 at `clients` concurrency: submit each request into `service`
/// and wait for its done callback.
void submit_pass(server::QueryService& service, const std::vector<Req>& reqs,
                 std::size_t clients, Tracer& tracer) {
  run_threads(clients, [&](std::size_t c) {
    for (std::size_t i = c; i < reqs.size(); i += clients) {
      const std::uint64_t id = i + 1;
      const server::CancelToken token = server::make_cancel_token();
      tracer.bind(token.get(), id);
      std::mutex mu;
      std::condition_variable cv;
      double done_us = 0.0;
      const double t0 = now_us();
      service.submit(reqs[i].wire, token, nullptr, [&](wire::Response&&) {
        std::lock_guard lk(mu);
        done_us = now_us();
        cv.notify_one();
      });
      const double t1 = now_us();
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return done_us != 0.0; });
      // A fast request can finish on a worker before submit returns.
      tracer.record("qos.request", t0, std::max(t1, done_us), id);
      tracer.record("qos.submit", t0, t1, id);
    }
  });
}

std::string op_metric(const char* prefix, Op op, const char* suffix) {
  return std::string(prefix) + op_name(op) + suffix;
}

}  // namespace

bool trace_passes(const std::vector<store::Store>& stores, Topology& untraced,
                  const store::Store& direct, const std::vector<Req>& reqs,
                  std::size_t clients, const std::string& trace_path,
                  Metrics* layers, std::string* why) {
  Tracer tracer;
  Topology traced(stores, tracer.wrapper("shard.exec"),
                  tracer.wrapper("server.exec"));
  const qos::CostModel prices(qos::CostProfile{},
                              qos::store_block_counter(direct));
  const auto connect = [](Topology& t) {
    server::ClientOptions options;
    options.port = t.port();
    return server::Client(options);
  };

  // Passes 0 and 1 alternate request by request, and which of the two
  // goes first, so host drift and cache order weigh on both alike. After
  // each traced call the codec runs alone on the request and the response
  // it carried.
  tracer.begin_pass(1);
  double untraced_us = 0.0;
  double traced_us = 0.0;
  std::map<Op, std::vector<double>> response_bytes;
  std::vector<double> price_us(reqs.size(), 0.0);
  {
    server::Client plain = connect(untraced);
    server::Client client = connect(traced);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::uint64_t id = i + 1;
      const wire::Request& w = reqs[i].wire;
      const auto untraced_call = [&] {
        const double t0 = now_us();
        (void)plain.call(w);
        untraced_us += now_us() - t0;
      };
      price_us[i] = static_cast<double>(prices.price(w));
      if (i % 2 == 0) untraced_call();
      tracer.set_current(id);
      const double t0 = now_us();
      const wire::Response resp = client.call(w);
      const double t1 = now_us();
      tracer.set_current(0);
      tracer.record("client.call", t0, t1, id);
      traced_us += t1 - t0;
      if (i % 2 == 1) untraced_call();

      const double c0 = now_us();
      const auto req_bytes = wire::encode_request(w);
      const double c1 = now_us();
      (void)wire::decode_request(req_bytes);
      const double c2 = now_us();
      const auto resp_bytes = wire::encode_response(resp);
      const double c3 = now_us();
      (void)wire::decode_response(resp_bytes);
      const double c4 = now_us();
      tracer.record("wire.encode_request", c0, c1, id);
      tracer.record("wire.decode_request", c1, c2, id);
      tracer.record("wire.encode_response", c2, c3, id);
      tracer.record("wire.decode_response", c3, c4, id);
      tracer.record("wire.codec", c0, c4, id);
      response_bytes[reqs[i].op].push_back(
          static_cast<double>(resp_bytes.size()));
    }
  }

  tracer.begin_pass(2);
  submit_pass(traced.service(), reqs, clients, tracer);
  // Queue wait: from submit to the executor span of the same request.
  {
    std::map<std::uint64_t, double> submitted;
    std::map<std::uint64_t, double> started;
    for (const Span& s : tracer.spans()) {
      if (s.pass != 2) continue;
      if (s.name == "qos.request") submitted[s.req] = s.start_us;
      if (s.name == "server.exec") started[s.req] = s.start_us;
    }
    for (const auto& [req, t0] : submitted) {
      const auto it = started.find(req);
      if (it != started.end()) tracer.record("qos.queue_wait", t0, it->second, req);
    }
  }

  tracer.begin_pass(3);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    tracer.set_current(i + 1);
    const double t0 = now_us();
    (void)traced.service().execute(reqs[i].wire);
    tracer.record("service.execute", t0, now_us(), i + 1);
  }
  tracer.set_current(0);

  tracer.begin_pass(4);
  DirectTotals totals;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    call_direct(direct, reqs[i], i + 1, tracer, totals);
  }

  if (ClusterHost* cluster = traced.cluster()) {
    tracer.begin_pass(5);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      tracer.set_current(i + 1);
      const double t0 = now_us();
      (void)cluster->coordinator().execute(reqs[i].wire, nullptr, 0);
      tracer.record("cluster.coord", t0, now_us(), i + 1);
    }
    tracer.set_current(0);
  }

  if (totals.stats.degraded()) {
    *why = "direct calls reported lost blocks or segments";
    return false;
  }
  if (!tracer.link_and_check(why)) return false;
  std::vector<std::string> methods;
  for (const Req& r : reqs) methods.emplace_back(op_name(r.op));
  tracer.write_chrome(trace_path, methods);

  // Span-derived metrics, per request id, by pass.
  const std::vector<Span>& spans = tracer.spans();
  std::map<std::pair<int, std::uint64_t>, std::map<std::string, std::size_t>>
      index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index[{spans[i].pass, spans[i].req}][spans[i].name] = i;
  }
  const auto find = [&](int pass, std::uint64_t req,
                        const std::string& name) -> const Span* {
    const auto it = index.find({pass, req});
    if (it == index.end()) return nullptr;
    const auto jt = it->second.find(name);
    return jt == it->second.end() ? nullptr : &spans[jt->second];
  };
  const auto ms = [](const Span* s) { return s->dur_us() / 1e3; };

  // Rows that mix methods are the geometric mean of each method's median,
  // like latency_p50_ms: a median across a method mix is bimodal.
  using ByOp = std::map<Op, std::vector<double>>;
  const auto per_method = [](const ByOp& by_op) {
    std::vector<double> medians;
    for (const auto& [op, v] : by_op) medians.push_back(median(v));
    return geomean(medians);
  };
  ByOp net_self;
  ByOp wire_us;
  ByOp admit_us;
  ByOp queue_ms;
  ByOp exec_ms;
  ByOp price_error;
  ByOp direct_ms;
  ByOp coord_ms;
  ByOp coord_self_ms;
  std::vector<double> all_queue_ms;
  std::vector<double> fetch_ms;
  std::vector<double> sweep_ms;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::uint64_t id = i + 1;
    const Op op = reqs[i].op;
    const Span* call = find(1, id, "client.call");
    const Span* exec = find(1, id, "server.exec");
    const Span* codec = find(1, id, "wire.codec");
    if (call != nullptr && exec != nullptr && codec != nullptr) {
      const std::size_t call_index =
          static_cast<std::size_t>(call - spans.data());
      net_self[op].push_back((tracer.self_us(call_index) - codec->dur_us()) /
                             1e3);
      exec_ms[op].push_back(ms(exec));
      if (exec->dur_us() > 0) {
        price_error[op].push_back(
            std::abs(std::log2(price_us[i] / exec->dur_us())));
      }
      wire_us[op].push_back(codec->dur_us());
    }
    const char* direct_name = direct_span(op);
    if (const Span* d = direct_name ? find(4, id, direct_name) : nullptr) {
      direct_ms[op].push_back(ms(d));
    }
    if (const Span* s = find(2, id, "qos.submit")) {
      admit_us[op].push_back(s->dur_us());
    }
    if (const Span* s = find(2, id, "qos.queue_wait")) {
      queue_ms[op].push_back(ms(s));
      all_queue_ms.push_back(ms(s));
    }
    if (const Span* s = find(4, id, "scenario.fetch")) fetch_ms.push_back(ms(s));
    if (const Span* s = find(4, id, "scenario.sweep")) sweep_ms.push_back(ms(s));
    if (const Span* s = find(5, id, "cluster.coord")) {
      coord_ms[op].push_back(ms(s));
      coord_self_ms[op].push_back(
          tracer.self_us(static_cast<std::size_t>(s - spans.data())) / 1e3);
    }
  }

  Metrics& m = *layers;
  m.set("net.self_ms.p50", per_method(net_self), "ms");
  for (const auto& [op, v] : exec_ms) {
    m.set(op_metric("server.exec_ms.", op, ".p50"), median(v), "ms");
  }
  m.set("server.wire_us.p50", per_method(wire_us), "us");
  m.set("server.response_bytes.p50", per_method(response_bytes), "B");
  m.set("qos.admit_us.p50", per_method(admit_us), "us");
  m.set("qos.queue_wait_ms.p50", per_method(queue_ms), "ms");
  m.set("qos.queue_wait_ms.p99", quantile(all_queue_ms, 0.99), "ms");
  for (const auto& [op, v] : price_error) {
    m.set(op_metric("qos.price_error.", op, ""), median(v), "log2");
  }
  for (const auto& [op, v] : direct_ms) {
    if (std::string(direct_span(op)).rfind("store.", 0) == 0) {
      m.set(op_metric("store.call_ms.", op, ".p50"), median(v), "ms");
    } else if (op == Op::kPueRollup) {
      m.set("stream.replay_ms.p50", median(v), "ms");
    }
  }
  if (totals.calls > 0) {
    const auto per_call = [&](std::size_t n) {
      return static_cast<double>(n) / static_cast<double>(totals.calls);
    };
    m.set("store.cold_blocks_per_req", per_call(totals.stats.cold_blocks),
          "count");
    m.set("store.warm_blocks_per_req", per_call(totals.stats.warm_blocks),
          "count");
  }
  m.set("stream.replay_events_per_s", median(totals.replay_events_per_s),
        "1/s");
  m.set("scenario.fetch_ms.p50", median(fetch_ms), "ms");
  m.set("scenario.sweep_ms.p50", median(sweep_ms), "ms");
  for (const auto& [op, v] : coord_ms) {
    m.set(op_metric("cluster.coord_ms.", op, ".p50"), median(v), "ms");
  }
  for (const auto& [op, v] : coord_self_ms) {
    m.set(op_metric("cluster.self_ms.", op, ".p50"), median(v), "ms");
  }
  m.set("trace.overhead", untraced_us > 0 ? traced_us / untraced_us - 1.0 : 0.0,
        "ratio");
  std::fprintf(stderr, "trace: %zu spans over %zu requests -> %s\n",
               spans.size(), reqs.size(), trace_path.c_str());
  return true;
}

}  // namespace exawatt::perf
