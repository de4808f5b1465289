// exawatt_sim — command-line front end for the digital twin:
//
//   exawatt_sim simulate --nodes 512 --days 7 --seed 42 --out traces/
//       run the twin and export the paper-schema datasets (C/D, E, 1+2,
//       5+7) as CSV files into the output directory.
//
//   exawatt_sim analyze --data traces/
//       re-import the datasets and print the operational report: class
//       mix, power envelope, edge statistics, failure composition.
//
//   exawatt_sim report --nodes 512 --days 2 --seed 42
//       one-shot in-memory simulate + analyze (no files).
//
//   exawatt_sim stream --nodes 64 --minutes 10 --seed 42 --shards 4
//       run the twin's telemetry feed and the streaming analytics engine
//       in lock-step; prints the live dashboard every --refresh seconds
//       and a final parity check against the batch aggregator.
//
//   exawatt_sim simulate ... --store telemetry_store/ --tnodes 32 --tminutes 30
//       additionally run the 1 Hz telemetry pipeline over a node subset
//       and land the feed in the crash-safe on-disk columnar store.
//
//   exawatt_sim analyze --store telemetry_store/
//       reopen the store (recovery report), roll up cluster power from
//       segments and replay it through the streaming engine — analysis
//       from disk, no re-simulation.
//
//   exawatt_sim serve --store telemetry_store/ --port 4626
//       expose the store over TCP: the query service answers window-sum /
//       scan / roll-up requests and streams subscription ticks. SIGINT or
//       SIGTERM drains gracefully and prints the final service counters.
//
//   exawatt_sim cluster --shards 4701,4702,4703 --port 4700
//       scatter-gather coordinator front-end: serve the full query
//       protocol over a set of shard servers (started with `serve`),
//       merging partials and degrading — never erroring — when a shard
//       is down. Ctrl-C drains and prints the per-shard breakdown.
//
//   exawatt_sim scenario --store DIR --cap-mw 18 [--force-chillers]
//       counterfactual what-if: replay the stored trace with a declared
//       intervention (cluster power cap, wet-bulb offset, forced trim
//       chillers, replaced weather year) next to the un-intervened
//       baseline and print the energy/PUE deltas. --endpoint HOST:PORT
//       runs the same replay on a live server (kScenario RPC);
//       --sweep-caps 14,16,18 fans one variant per cap (kScenarioSweep).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "cluster/coordinator.hpp"
#include "core/edges.hpp"
#include "core/failure_analysis.hpp"
#include "core/job_features.hpp"
#include "core/pue_analysis.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"
#include "core/telemetry_rig.hpp"
#include "datasets/export.hpp"
#include "datasets/import.hpp"
#include "qos/cost.hpp"
#include "qos/scheduler.hpp"
#include "scenario/spec.hpp"
#include "server/client.hpp"
#include "server/replay_source.hpp"
#include "server/server.hpp"
#include "store/store.hpp"
#include "stream/engine.hpp"
#include "stream/ingest.hpp"
#include "stream/replay.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/pipeline.hpp"
#include "util/flags.hpp"
#include "util/signal.hpp"
#include "util/text_table.hpp"

namespace {

using namespace exawatt;

int usage() {
  std::printf(
      "usage: exawatt_sim <command> [flags]\n"
      "  simulate --nodes N --days D --seed S --out DIR   export datasets\n"
      "           [--store DIR --tnodes N --tminutes M]   + telemetry store\n"
      "  analyze  --data DIR | --store DIR                analyze exports\n"
      "  report   --nodes N --days D --seed S             in-memory report\n"
      "  stream   --nodes N --minutes M --seed S --shards K --refresh R\n"
      "                                                   live analytics demo\n"
      "  compact  --store DIR [--drop-before T --small-events N]\n"
      "                                                   merge + retention"
      " pass\n"
      "  serve    --store DIR --port P [--queue N --deadline MS]\n"
      "           [--min-workers N --max-workers N]\n"
      "           [--auto-compact --compact-interval S]    TCP query service\n"
      "  cluster  --shards P1,P2,.. --port P [--queue N --deadline MS]\n"
      "                                                   scatter-gather"
      " coordinator\n"
      "  scenario --store DIR | --endpoint HOST:PORT [--cap-mw MW]\n"
      "           [--wet-bulb-offset C --force-chillers --weather-seed S]\n"
      "           [--sweep-caps MW1,MW2,...]              counterfactual"
      " replay\n"
      "  analyze  --endpoint HOST:PORT                    server_stats over"
      " the wire\n");
  return 2;
}

core::SimulationConfig config_from(const util::Flags& flags) {
  core::SimulationConfig config;
  const auto nodes = static_cast<int>(flags.get_int("nodes", 512));
  config.scale = nodes >= machine::SummitSpec::kNodes
                     ? machine::MachineScale::full()
                     : machine::MachineScale::small(nodes);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto days = flags.get_number("days", 2.0);
  config.range = {0, static_cast<util::TimeSec>(days * util::kDay)};
  return config;
}

/// Bit-identical windows of two power series, out of the longer one's
/// length: a series that is a truncated prefix of the other never passes.
std::pair<std::size_t, std::size_t> parity(const ts::Series& a,
                                           const ts::Series& b) {
  std::size_t identical = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] == b[i]) ++identical;
  }
  return {identical, std::max(a.size(), b.size())};
}

void print_job_report(const std::vector<workload::Job>& jobs) {
  std::size_t scheduled = 0;
  std::array<std::size_t, 6> per_class{};
  double node_hours = 0.0;
  for (const auto& j : jobs) {
    if (j.start < 0) continue;
    ++scheduled;
    ++per_class[static_cast<std::size_t>(j.sched_class)];
    node_hours += j.node_hours();
  }
  util::TextTable t({"class", "jobs", "share"});
  for (int cls = 1; cls <= 5; ++cls) {
    t.add_row({std::to_string(cls),
               std::to_string(per_class[static_cast<std::size_t>(cls)]),
               util::fmt_double(100.0 *
                                    static_cast<double>(
                                        per_class[static_cast<std::size_t>(
                                            cls)]) /
                                    static_cast<double>(scheduled),
                                1) +
                   "%"});
  }
  std::printf("jobs: %zu scheduled, %.0f node-hours\n%s\n", scheduled,
              node_hours, t.str().c_str());
}

void print_power_report(const ts::Series& power, int nodes) {
  double peak = 0.0;
  double mean = 0.0;
  for (std::size_t i = 0; i < power.size(); ++i) {
    peak = std::max(peak, power[i]);
    mean += power[i];
  }
  mean /= static_cast<double>(power.size());
  const auto edges = core::detect_edges(power, static_cast<double>(nodes));
  std::printf("cluster power: mean %s, peak %s, %zu edges (868 W/node rule)\n",
              util::fmt_si(mean, "W").c_str(),
              util::fmt_si(peak, "W").c_str(), edges.size());
  std::printf("profile: %s\n\n", core::sparkline(power, 72).c_str());
}

void print_failure_report(const std::vector<failures::GpuFailureEvent>& log,
                          int nodes) {
  if (log.empty()) {
    std::printf("no GPU failures in the window\n");
    return;
  }
  util::TextTable t({"GPU error", "count", "max/node share"});
  for (const auto& row : core::failure_composition(log, nodes)) {
    if (row.count == 0) continue;
    t.add_row({failures::xid_name(row.type), std::to_string(row.count),
               util::fmt_double(100.0 * row.max_per_node_share, 1) + "%"});
  }
  std::printf("GPU failures: %zu total\n%s\n", log.size(), t.str().c_str());
}

int cmd_simulate(const util::Flags& flags) {
  const std::string out = flags.get("out", "traces");
  std::filesystem::create_directories(out);
  core::SimulationConfig config = config_from(flags);
  core::Simulation sim(config);
  std::printf("simulating %d nodes for %.1f days (seed %llu)...\n",
              config.scale.nodes,
              static_cast<double>(config.range.duration()) / util::kDay,
              static_cast<unsigned long long>(config.seed));

  const auto jobs_rows = datasets::export_jobs(out + "/jobs.csv", sim.jobs());
  const auto xid_rows =
      datasets::export_xid_log(out + "/xid_log.csv", sim.failure_log());
  const auto cluster =
      sim.cluster_frame(config.range, {.dt = 60, .subsamples = 2});
  const auto series_rows =
      datasets::export_cluster_series(out + "/cluster_power.csv", cluster);
  const auto summaries = core::summarize_jobs(sim.jobs());
  const auto power_rows =
      datasets::export_job_power(out + "/job_power.csv", summaries);

  util::TextTable t({"dataset", "file", "rows"});
  t.add_row({"C+D job history", out + "/jobs.csv", std::to_string(jobs_rows)});
  t.add_row({"E XID log", out + "/xid_log.csv", std::to_string(xid_rows)});
  t.add_row({"1+2 cluster series", out + "/cluster_power.csv",
             std::to_string(series_rows)});
  t.add_row({"5+7 job power", out + "/job_power.csv",
             std::to_string(power_rows)});

  const std::string store_dir = flags.get("store");
  if (!store_dir.empty()) {
    // Dataset A: run the 1 Hz out-of-band pipeline over a node subset and
    // land the feed durably — analyze --store re-reads it without
    // re-simulating.
    const int tnodes = static_cast<int>(
        std::min<std::int64_t>(config.scale.nodes, flags.get_int("tnodes", 32)));
    const auto tminutes = flags.get_number("tminutes", 30.0);
    const util::TimeRange twindow{
        0, std::min(config.range.end,
                    static_cast<util::TimeSec>(tminutes * 60.0))};
    core::TelemetryRig rig(sim, config, twindow, tnodes);
    store::Store store = store::Store::open(store_dir);
    rig.pipeline.set_batch_sink(
        [&](const std::vector<telemetry::MetricEvent>& batch) {
          store.append(batch);
        });
    rig.pipeline.run(twindow);
    store.flush();
    t.add_row({"A telemetry store", store_dir + "/ (" +
                   std::to_string(store.sealed_segments()) + " segments)",
               std::to_string(store.total_events())});
  }
  std::printf("%s", t.str().c_str());
  return 0;
}

void print_query_stats(const char* what, const store::QueryStats& stats) {
  std::printf("%s: cache %llu hits / %llu misses%s", what,
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              stats.degraded() ? "" : ", no data loss\n");
  if (stats.degraded()) {
    std::printf(", DEGRADED: %zu segment(s) and %zu block(s) lost\n",
                stats.lost_segments, stats.lost_blocks);
  }
}

int analyze_store(const std::string& dir) {
  store::Store store = store::Store::open(dir);
  const auto& rec = store.recovery();
  std::printf("store %s: %zu segments, %zu day partitions, %llu events, "
              "%.2f MB on disk (%.1fx compression)\n",
              dir.c_str(), store.sealed_segments(), store.day_partitions(),
              static_cast<unsigned long long>(store.total_events()),
              static_cast<double>(store.stored_bytes()) / 1e6,
              store.compression_ratio());
  std::printf("recovery: %s (adopted %zu, dropped corrupt %zu, dropped "
              "missing %zu%s)\n\n",
              rec.clean() ? "clean" : "repaired", rec.adopted_orphans,
              rec.dropped_corrupt, rec.dropped_missing,
              rec.manifest_rebuilt ? ", manifest rebuilt" : "");

  const int power_channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  const std::vector<machine::NodeId> nodes = server::power_nodes(store);
  if (nodes.empty()) {
    std::printf("store holds no input-power channels; nothing to analyze\n");
    return 1;
  }
  const util::TimeRange window = store.bounds();
  store::QueryStats sum_stats;
  const auto power = store::cluster_sum(store, nodes, power_channel, window,
                                        10, nullptr, nullptr, &sum_stats);
  print_power_report(power, static_cast<int>(nodes.size()));
  print_query_stats("roll-up scan", sum_stats);

  stream::EngineOptions options;
  options.range = window;
  options.rollup.edge_node_count = static_cast<double>(nodes.size());
  store::QueryStats replay_stats;
  const auto replay =
      stream::replay_rollup(store, nodes, options, {}, &replay_stats);
  print_query_stats("replay scan", replay_stats);
  const auto [identical, nw] = parity(power, replay.power);
  std::printf("streaming replay parity vs store roll-up: %zu/%zu windows "
              "bit-identical\n",
              identical, nw);
  // A degraded store still analyzes — that is the point of the QueryStats
  // plumbing — but the parity gate below only holds on an intact one.
  if (sum_stats.degraded() || replay_stats.degraded()) return 0;
  return identical == nw && nw > 0 ? 0 : 1;
}

/// "PORT" or "HOST:PORT" → Endpoint (bare ports dial loopback).
cluster::Endpoint parse_endpoint(const std::string& spec) {
  cluster::Endpoint ep;
  const std::size_t colon = spec.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  if (colon != std::string::npos && colon > 0) ep.host = spec.substr(0, colon);
  const long port = std::strtol(port_text.c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) {
    throw std::runtime_error("bad endpoint (want PORT or HOST:PORT): " + spec);
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

/// Comma-separated endpoint list, e.g. "4701,4702" or "10.0.0.2:4701,...".
std::vector<cluster::Endpoint> parse_endpoints(const std::string& list) {
  std::vector<cluster::Endpoint> eps;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    std::size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string part = list.substr(begin, end - begin);
    if (!part.empty()) eps.push_back(parse_endpoint(part));
    begin = end + 1;
  }
  return eps;
}

/// `analyze --endpoint HOST:PORT`: read the kServerStats counters off a
/// live server — a shard reports its service, QoS, stream and transport
/// counters; a coordinator front-end adds its upstream-link health.
int analyze_endpoint(const std::string& spec) {
  const cluster::Endpoint ep = parse_endpoint(spec);
  server::ClientOptions copts;
  copts.host = ep.host;
  copts.port = ep.port;
  server::Client client(copts);
  server::wire::Request req;
  req.method = server::wire::Method::kServerStats;
  const auto resp = client.call(req);
  if (resp.status != server::wire::Status::kOk) {
    std::printf("server_stats on %s:%u returned %s\n", ep.host.c_str(),
                ep.port, server::wire::status_name(resp.status));
    return 1;
  }
  std::printf("server %s:%u\n%s", ep.host.c_str(), ep.port,
              server::wire::format_server_stats(resp.server).c_str());
  return 0;
}

int cmd_analyze(const util::Flags& flags) {
  const std::string endpoint = flags.get("endpoint");
  if (!endpoint.empty()) return analyze_endpoint(endpoint);
  const std::string store_dir = flags.get("store");
  if (!store_dir.empty()) return analyze_store(store_dir);
  const std::string dir = flags.get("data", "traces");
  const auto jobs = datasets::import_jobs(dir + "/jobs.csv");
  const auto log = datasets::import_xid_log(dir + "/xid_log.csv");
  const auto power = datasets::import_cluster_power(dir + "/cluster_power.csv");
  int max_node = 0;
  for (const auto& j : jobs) {
    for (const auto& r : j.nodes) max_node = std::max(max_node, r.first + r.count);
  }
  std::printf("loaded %zu jobs, %zu failures, %zu power windows (machine "
              ">= %d nodes)\n\n",
              jobs.size(), log.size(), power.size(), max_node);
  print_job_report(jobs);
  print_power_report(power, max_node);
  print_failure_report(log, max_node);
  return 0;
}

int cmd_report(const util::Flags& flags) {
  core::SimulationConfig config = config_from(flags);
  core::Simulation sim(config);
  print_job_report(sim.jobs());
  const auto cluster =
      sim.cluster_frame(config.range, {.dt = 60, .subsamples = 2});
  print_power_report(cluster.at("input_power_w"), config.scale.nodes);
  const auto cep = sim.cep_frame(cluster);
  const auto trend = core::year_trend(cluster, cep);
  std::printf("PUE: mean %.3f (facility model)\n\n", trend.mean_pue);
  print_failure_report(sim.failure_log(), config.scale.nodes);
  return 0;
}

int cmd_stream(const util::Flags& flags) {
  const auto n = static_cast<int>(flags.get_int("nodes", 64));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const double minutes = flags.get_number("minutes", 10.0);
  const auto shards = static_cast<std::size_t>(flags.get_int("shards", 4));
  const auto refresh = static_cast<util::TimeSec>(flags.get_int("refresh", 120));

  // Stream a window an hour into the operational period so jobs are
  // already running when the panel comes up.
  const util::TimeSec start = util::kHour;
  const util::TimeRange window{
      start, start + static_cast<util::TimeSec>(minutes * 60.0)};

  core::SimulationConfig config;
  config.scale = n >= machine::SummitSpec::kNodes
                     ? machine::MachineScale::full()
                     : machine::MachineScale::small(n);
  config.seed = seed;
  config.range = {0, window.end + util::kHour};
  core::Simulation sim(config);
  std::printf("streaming %d nodes for %.1f min (seed %llu, %zu shards)\n\n",
              config.scale.nodes, minutes,
              static_cast<unsigned long long>(seed), shards);

  core::TelemetryRig rig(sim, config, window, config.scale.nodes);
  telemetry::Pipeline& pipeline = rig.pipeline;
  const std::vector<machine::NodeId>& nodes = rig.nodes;

  stream::IngestOptions ingest_options;
  ingest_options.shards = shards;
  stream::ShardedIngest ingest(ingest_options);

  stream::EngineOptions engine_options;
  engine_options.range = window;
  engine_options.rollup.edge_node_count =
      static_cast<double>(config.scale.nodes);
  engine_options.rollup.weather_seed = seed + 4;
  stream::Engine engine(engine_options);

  // Ctrl-C / SIGTERM: stop the feed at the current simulated second, let
  // the drain below flush stragglers, and still print the final panel.
  util::SignalTrap trap;

  // Lock-step bridge: the tap hands over each second's collector output;
  // events sit in the in-flight map until their arrival second, which is
  // what makes the feed genuinely out-of-order across metrics.
  std::map<util::TimeSec, std::vector<telemetry::Collector::Arrival>>
      in_flight;
  pipeline.set_tap([&](util::TimeSec now,
                       std::span<const telemetry::Collector::Arrival> batch) {
    if (trap.stop_requested()) pipeline.request_stop();
    for (const auto& arrival : batch) {
      in_flight[arrival.arrival_t].push_back(arrival);
    }
    for (auto it = in_flight.begin();
         it != in_flight.end() && it->first <= now;
         it = in_flight.erase(it)) {
      for (const auto& arrival : it->second) ingest.push(arrival);
    }
    ingest.drain(
        [&](const telemetry::Collector::Arrival& a) { engine.ingest(a); });
    engine.advance_to(now);
    // Back-pressure watchdog: shed events page like any other alert.
    engine.alerts().on_ingest_drops(now, ingest.total_dropped());
    if (refresh > 0 && (now - window.begin + 1) % refresh == 0) {
      std::printf("%s\n", engine.render().c_str());
    }
  });
  const auto stats = pipeline.run(window);
  if (trap.stop_requested()) {
    std::printf("\nsignal %d: feed stopped early, draining in-flight "
                "events...\n",
                trap.signal_number());
  }

  // Stragglers still in flight past the range end (delay tail).
  for (const auto& [t, batch] : in_flight) {
    for (const auto& arrival : batch) ingest.push(arrival);
  }
  ingest.drain(
      [&](const telemetry::Collector::Arrival& a) { engine.ingest(a); });
  engine.finish();
  std::printf("%s\n", engine.render(8).c_str());

  std::printf("feed: %llu events | mean delay %.2f s | ingest pushed %llu "
              "dropped %llu | max shard lag %zu\n",
              static_cast<unsigned long long>(stats.events),
              stats.mean_delay_s,
              static_cast<unsigned long long>(ingest.total_pushed()),
              static_cast<unsigned long long>(ingest.total_dropped()),
              [&] {
                std::size_t lag = 0;
                for (std::size_t s = 0; s < ingest.shards(); ++s) {
                  lag = std::max(lag, ingest.shard_stats(s).max_lag);
                }
                return lag;
              }());

  // Parity: the streaming roll-up must reproduce the batch aggregator
  // bit-for-bit from the same archive.
  const auto batch_sum = telemetry::cluster_sum(
      pipeline.archive(), nodes,
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0), window);
  const auto [identical, nw] =
      parity(batch_sum, engine.rollup().power_series());
  std::printf("parity vs batch aggregator: %zu/%zu windows bit-identical\n",
              identical, nw);
  // An interrupted stream saw only a prefix of the window; the full-run
  // parity gate does not apply, a clean drain is the success criterion.
  if (trap.stop_requested()) return 0;
  return identical == nw && nw > 0 ? 0 : 1;
}

/// Operator command: one synchronous compaction pass over an existing
/// store. `--drop-before T` moves the retention cutoff (absolute seconds;
/// 0 keeps everything), `--small-events N` sets the merge-candidate
/// threshold.
int cmd_compact(const util::Flags& flags) {
  const std::string dir = flags.get("store", "");
  if (dir.empty()) {
    std::printf("compact needs --store DIR\n");
    return 1;
  }
  store::CompactionOptions opts;
  opts.retention.drop_before =
      static_cast<util::TimeSec>(flags.get_int("drop-before", 0));
  opts.small_segment_events = static_cast<std::uint64_t>(
      flags.get_int("small-events", 1 << 18));
  store::Store store = store::Store::open(dir);
  const std::size_t before = store.sealed_segments();
  const auto report = store.compact(opts);
  std::printf(
      "compacted %s: %zu -> %zu segments (%zu dropped whole, %zu rounds "
      "merged %zu inputs, %zu skipped)\n",
      dir.c_str(), before, store.sealed_segments(),
      report.dropped_segments, report.rounds, report.merged_inputs,
      report.rounds_skipped);
  std::printf(
      "events: %llu in, %llu out, %llu expired by retention "
      "(drop_before=%lld)\n",
      static_cast<unsigned long long>(report.events_in),
      static_cast<unsigned long long>(report.events_out),
      static_cast<unsigned long long>(report.events_expired),
      static_cast<long long>(opts.retention.drop_before));
  return 0;
}

/// The endpoint's final counters, as `analyze --endpoint` would read
/// them: the service answers its own kServerStats in-process.
void print_service_report(const server::QueryService& service) {
  server::wire::Request req;
  req.method = server::wire::Method::kServerStats;
  const server::wire::Response resp = service.execute(req);
  std::printf("%s", server::wire::format_server_stats(resp.server).c_str());
}

int cmd_serve(const util::Flags& flags) {
  const std::string dir = flags.get("store", "telemetry_store");
  store::Store store = store::Store::open(dir);
  std::printf("store %s: %zu segments, %llu events, window [%lld, %lld)\n",
              dir.c_str(), store.sealed_segments(),
              static_cast<unsigned long long>(store.total_events()),
              static_cast<long long>(store.bounds().begin),
              static_cast<long long>(store.bounds().end));

  server::ServerOptions options;
  options.port = static_cast<std::uint16_t>(flags.get_int("port", 4626));
  options.service.queue_limit =
      static_cast<std::size_t>(flags.get_int("queue", 256));
  options.service.default_deadline_ms =
      static_cast<std::uint32_t>(flags.get_int("deadline", 0));
  server::QosOptions& q = options.service.qos.emplace();
  // Calibrate unit costs from the codec bench when its JSON is around;
  // defaults otherwise — pricing only needs to be proportionate.
  q.cost = qos::CostProfile::from_bench_json(
      flags.get("bench-codec", "BENCH_codec.json"));
  q.pool.autoscaler.min_workers =
      static_cast<std::size_t>(flags.get_int("min-workers", 1));
  q.pool.autoscaler.max_workers =
      static_cast<std::size_t>(flags.get_int("max-workers", 0));
  server::Server server(store, options);
  server.service().set_subscribe_source(server::make_replay_source(store));

  util::SignalTrap trap;
  std::printf("serving on 127.0.0.1:%u (queue %zu, default deadline %u ms) "
              "— Ctrl-C drains\n",
              server.port(), options.service.queue_limit,
              options.service.default_deadline_ms);

  // --auto-compact: periodic store compaction rides the QoS queue as a
  // batch-class citizen — it waits its class turn behind paying traffic
  // and may be shed under overload (the next tick simply retries).
  const bool auto_compact = flags.has("auto-compact");
  const auto compact_every = static_cast<std::int64_t>(
      flags.get_int("compact-interval", 30));
  auto compacting = std::make_shared<std::atomic<bool>>(false);
  std::int64_t last_compact_us = util::Clock::steady().now_us();
  if (auto_compact) {
    std::printf("auto-compact: every %llds as a batch-class task\n",
                static_cast<long long>(compact_every));
  }
  server.run([&] {
    if (auto_compact && !trap.stop_requested()) {
      const std::int64_t now_us = util::Clock::steady().now_us();
      bool expected = false;
      if (now_us - last_compact_us >= compact_every * 1'000'000 &&
          compacting->compare_exchange_strong(expected, true)) {
        last_compact_us = now_us;
        // Cost estimate: a merge pass decodes at most the sealed
        // population once — price it like a scan of every sealed block.
        const std::uint64_t cost_us =
            20'000 + 1'000 * static_cast<std::uint64_t>(
                                 store.sealed_segments());
        server.service().submit_internal(
            qos::Class::kBatch, cost_us,
            [&store, compacting] {
              const auto report = store.compact({});
              std::printf("auto-compact: %zu rounds merged %zu inputs, "
                          "%zu dropped whole\n",
                          report.rounds, report.merged_inputs,
                          report.dropped_segments);
              compacting->store(false);
            },
            /*dropped=*/[compacting] { compacting->store(false); });
      }
    }
    return trap.stop_requested();
  });
  if (trap.stop_requested()) {
    std::printf("\nsignal %d: draining — no new connections, letting "
                "%llu in-flight request(s) finish...\n",
                trap.signal_number(),
                static_cast<unsigned long long>(
                    server.service().metrics().queue_depth));
  }
  server.drain();
  print_service_report(server.service());
  return 0;
}

int cmd_cluster(const util::Flags& flags) {
  const std::string shard_list = flags.get("shards");
  if (shard_list.empty()) {
    std::fprintf(stderr, "cluster: --shards P1,P2,... is required (start "
                         "each shard with `exawatt_sim serve --port P`)\n");
    return 2;
  }
  cluster::CoordinatorOptions copts;
  copts.shards = parse_endpoints(shard_list);
  cluster::Coordinator coordinator(std::move(copts));

  server::ServiceOptions sopts;
  sopts.queue_limit = static_cast<std::size_t>(flags.get_int("queue", 256));
  sopts.default_deadline_ms =
      static_cast<std::uint32_t>(flags.get_int("deadline", 0));
  server::QueryService service(coordinator.executor(), sopts);
  service.set_stats_augment([&](server::wire::ServerStatsWire& s) {
    coordinator.augment_stats(s);
  });

  server::ServerOptions options;
  options.port = static_cast<std::uint16_t>(flags.get_int("port", 4700));
  server::Server server(service, options);

  util::SignalTrap trap;
  std::printf("coordinating %zu shard(s) on 127.0.0.1:%u (queue %zu, "
              "default deadline %u ms) — Ctrl-C drains\n",
              coordinator.shards(), server.port(), sopts.queue_limit,
              sopts.default_deadline_ms);
  server.run([&] { return trap.stop_requested(); });
  if (trap.stop_requested()) {
    std::printf("\nsignal %d: draining — no new connections, letting "
                "%llu in-flight request(s) finish...\n",
                trap.signal_number(),
                static_cast<unsigned long long>(
                    service.metrics().queue_depth));
  }
  server.drain();
  print_service_report(service);
  std::printf("%s",
              cluster::format_shard_stats(coordinator.shard_stats()).c_str());
  return 0;
}

/// One ScenarioSpec from the intervention flags (--cap-mw,
/// --wet-bulb-offset, --force-chillers, --weather-seed).
scenario::ScenarioSpec spec_from(const util::Flags& flags) {
  scenario::ScenarioSpec spec;
  spec.name = flags.get("name", "scenario");
  spec.power_cap_w = flags.get_number("cap-mw", 0.0) * 1e6;
  spec.wet_bulb_offset_c = flags.get_number("wet-bulb-offset", 0.0);
  spec.force_chillers = flags.has("force-chillers");
  if (flags.has("weather-seed")) {
    spec.has_weather_seed = true;
    spec.weather_seed =
        static_cast<std::uint64_t>(flags.get_int("weather-seed", 7));
  }
  return spec;
}

void print_scenario_summaries(
    const std::vector<scenario::ScenarioSummary>& rows) {
  util::TextTable t({"scenario", "windows", "energy", "Δenergy", "mean PUE",
                     "ΔPUE", "peak", "max Δpower"});
  for (const scenario::ScenarioSummary& s : rows) {
    t.add_row({s.name, std::to_string(s.windows),
               util::fmt_si(s.energy_j, "J"),
               util::fmt_si(s.energy_j - s.baseline_energy_j, "J"),
               util::fmt_double(s.mean_pue, 4),
               util::fmt_double(s.mean_pue - s.baseline_mean_pue, 4),
               util::fmt_si(s.peak_power_w, "W").c_str(),
               util::fmt_si(s.max_power_delta_w, "W").c_str()});
  }
  std::printf("%s", t.str().c_str());
}

/// `scenario`: replay a counterfactual against a store (in-process) or a
/// live server (kScenario / kScenarioSweep over the wire). Both paths
/// build the same wire request, so the flags mean the same thing either
/// way; --sweep-caps MW1,MW2,... fans one variant per cap.
int cmd_scenario(const util::Flags& flags) {
  const std::string endpoint = flags.get("endpoint");
  const std::string dir = flags.get("store", "telemetry_store");

  std::vector<scenario::ScenarioSpec> specs;
  const std::string sweep_caps = flags.get("sweep-caps");
  if (!sweep_caps.empty()) {
    std::size_t begin = 0;
    while (begin <= sweep_caps.size()) {
      std::size_t end = sweep_caps.find(',', begin);
      if (end == std::string::npos) end = sweep_caps.size();
      const std::string part = sweep_caps.substr(begin, end - begin);
      begin = end + 1;
      if (part.empty()) continue;
      scenario::ScenarioSpec spec = spec_from(flags);
      spec.power_cap_w = std::strtod(part.c_str(), nullptr) * 1e6;
      spec.name = "cap-" + part + "MW";
      specs.push_back(std::move(spec));
    }
  } else {
    specs.push_back(spec_from(flags));
  }
  if (specs.empty() || specs.size() > server::wire::kMaxSweepVariants) {
    std::fprintf(stderr, "scenario: want 1..%zu variants, got %zu\n",
                 server::wire::kMaxSweepVariants, specs.size());
    return 2;
  }

  server::wire::Request req;
  req.method = specs.size() == 1 ? server::wire::Method::kScenario
                                 : server::wire::Method::kScenarioSweep;
  req.scenarios = specs;
  req.window = flags.get_int("window", 10);
  // An inverted default range clamps to the data hull server-side, the
  // same "everything" idiom kSubscribe uses.
  req.range = {flags.get_int("range-begin", 0),
               flags.get_int("range-end",
                             std::numeric_limits<util::TimeSec>::max())};
  req.subscribe_mask = 0;  // summaries, not per-window tick streaming

  server::wire::Response resp;
  if (!endpoint.empty()) {
    const cluster::Endpoint ep = parse_endpoint(endpoint);
    const auto n_nodes = flags.get_int("nodes", 32);
    for (std::int64_t i = 0; i < n_nodes; ++i) {
      req.nodes.push_back(static_cast<machine::NodeId>(i));
    }
    server::ClientOptions copts;
    copts.host = ep.host;
    copts.port = ep.port;
    copts.request_timeout_ms =
        static_cast<int>(flags.get_int("timeout", 30000));
    server::Client client(copts);
    resp = client.call(req);
  } else {
    store::Store store = store::Store::open(dir);
    req.nodes = server::power_nodes(store);
    if (req.nodes.empty()) {
      std::fprintf(stderr,
                   "scenario: store %s holds no input-power channels\n",
                   dir.c_str());
      return 1;
    }
    server::QueryService service(store);
    resp = service.execute(req);
  }

  if (resp.status != server::wire::Status::kOk) {
    std::fprintf(stderr, "scenario: %s (%s)\n",
                 server::wire::status_name(resp.status),
                 resp.message.c_str());
    return 1;
  }
  print_scenario_summaries(resp.scenarios);
  if (resp.method == server::wire::Method::kScenario &&
      !resp.series.values().empty()) {
    std::printf("baseline: %s\n",
                core::sparkline(resp.baseline_power, 72).c_str());
    std::printf("variant:  %s\n", core::sparkline(resp.series, 72).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  try {
    if (flags.command() == "simulate") return cmd_simulate(flags);
    if (flags.command() == "analyze") return cmd_analyze(flags);
    if (flags.command() == "report") return cmd_report(flags);
    if (flags.command() == "stream") return cmd_stream(flags);
    if (flags.command() == "compact") return cmd_compact(flags);
    if (flags.command() == "serve") return cmd_serve(flags);
    if (flags.command() == "cluster") return cmd_cluster(flags);
    if (flags.command() == "scenario") return cmd_scenario(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
