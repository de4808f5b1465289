// End-to-end gate suite: the bit-parity contract between the direct
// store and every serving path, plus the crash-recovery, lifecycle, QoS
// and scenario behaviours that only show end to end. Every case runs on
// the shared rig in e2e_rig.hpp over seeded twin feeds (seed 42; 12
// nodes x 6 min, 9 x 5 for the cluster, 6 x 4 for the crash sweeps).
// tests/CMakeLists.txt runs each gate's cases as one labelled ctest via
// a gtest filter; a new case must match one of those filters.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "cluster/merge.hpp"
#include "cluster/rebalance.hpp"
#include "e2e_rig.hpp"
#include "qos/scheduler.hpp"
#include "scenario/engine.hpp"
#include "telemetry/aggregator.hpp"
#include "unmapped_vfs.hpp"
#include "util/text_table.hpp"

namespace {

using namespace exawatt;
using namespace exawatt::e2e;
using server::wire::Method;
using server::wire::Request;
using server::wire::Response;
using server::wire::Status;
namespace fs = std::filesystem;

/// The first sealed segment file under `root`, or "" when there is none.
std::string first_segment(const std::string& root) {
  for (const std::string& name : util::Vfs::real().list(root)) {
    if (name.ends_with(".seg")) return name;
  }
  return {};
}

double peak(const ts::Series& series) {
  double p = 0.0;
  for (const double v : series.values()) p = std::max(p, v);
  return p;
}

Response server_stats(const server::ClientOptions& where) {
  server::Client client(where);
  Request req;
  req.method = Method::kServerStats;
  return client.call(req);
}

TEST(SeriesEqual, ASeriesOneWindowShortFails) {
  const ts::Series full(0, 10, {1.0, 2.0, 3.0});
  EXPECT_TRUE(series_equal(full, full));
  EXPECT_FALSE(series_equal(full, ts::Series(0, 10, {1.0, 2.0})));
  EXPECT_FALSE(series_equal(ts::Series(0, 10, {1.0, 2.0}), full));
  EXPECT_FALSE(series_equal(full, ts::Series(0, 10, {1.0, 2.0, 4.0})));
}

class TopologyParity : public testing::TestWithParam<Kind> {};

TEST_P(TopologyParity, MatchesTheDirectStore) {
  const Kind kind = GetParam();
  const Feed& f = kind == Kind::kCluster ? feed(9, 5) : feed(12, 6);
  const std::string dir =
      scratch_dir(std::string("e2e_parity_") + kind_name(kind));
  Topology topo(kind, f, dir);
  expect_parity(topo);
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologyParity,
                         testing::Values(Kind::kDirect, Kind::kLoopback,
                                         Kind::kCluster),
                         [](const testing::TestParamInfo<Kind>& info) {
                           return std::string(kind_name(info.param));
                         });

// ------------------------------------------------------------ store

TEST(StoreRoundTrip, ReopenedStoreMatchesTheArchiveOnEveryPath) {
  const Feed& f = feed(12, 6);
  const std::string dir = scratch_dir("e2e_store_roundtrip");
  fill_store(f, dir);
  const store::Store store = store::Store::open(dir, store_options());
  EXPECT_TRUE(store.recovery().clean())
      << "reopen of a cleanly flushed store needed repair";

  std::vector<store::MetricRun> disk;
  std::vector<store::MetricRun> mem;
  for (const telemetry::MetricId id : store.metrics()) {
    disk.push_back({id, store.query(id, f.window)});
    mem.push_back({id, f.archive().query(id, f.window)});
  }
  ASSERT_FALSE(disk.empty());
  EXPECT_TRUE(runs_equal(disk, mem)) << "per-metric scans";

  const auto batch_sum = telemetry::cluster_sum(f.archive(), f.nodes(),
                                                kPowerChannel, f.window);
  ASSERT_GT(batch_sum.size(), 0u);
  EXPECT_TRUE(series_equal(
      store::cluster_sum(store, f.nodes(), kPowerChannel, f.window),
      batch_sum));
  EXPECT_TRUE(series_equal(
      stream::replay_power_rollup(store, f.nodes(), replay_options(f)),
      batch_sum));
}

// ------------------------------------------------------------ faultcheck

TEST(IngestCrash, EveryWritePointRecoversASubsetOfTheFeed) {
  const Feed& f = feed(6, 4);
  const std::string dir = scratch_dir("e2e_ingest_crash");
  const std::string root = dir + "/store";
  const SweepStats stats = crash_sweep(
      [&] { fs::remove_all(root); },
      [&](util::Vfs& vfs) {
        store::StoreOptions options = store_options();
        options.vfs = &vfs;
        store::Store store = store::Store::open(root, options);
        for (const auto& batch : f.batches) store.append(batch);
        store.flush();
      },
      [&](std::optional<std::uint64_t>) {
        expect_survivors(store::Store::open(root, store_options()), f);
      });
  std::printf("ingest crash sweep: %llu write points, %llu crashes fired\n",
              static_cast<unsigned long long>(stats.write_points),
              static_cast<unsigned long long>(stats.fired));
  EXPECT_GT(stats.write_points, 0u);
  EXPECT_EQ(stats.fired, stats.write_points)
      << "a crash scheduled at a counted write point never fired";
}

TEST(IngestCrash, LostSegmentDegradesInsteadOfThrowing) {
  const Feed& f = feed(6, 4);
  const std::string dir = scratch_dir("e2e_ingest_degraded");
  fill_store(f, dir);
  // Buffered tier: a mapped segment outlives its unlink, so only an
  // unmapped reader can lose its file under a live store.
  UnmappedVfs buffered;
  store::StoreOptions options = store_options();
  options.vfs = &buffered;
  const store::Store store = store::Store::open(dir, options);
  const std::string victim = first_segment(dir);
  ASSERT_FALSE(victim.empty());
  ASSERT_GT(store.sealed_segments(), 0u);

  util::Vfs::real().remove(dir + "/" + victim);  // under the live store
  store::QueryStats stats;
  EXPECT_NO_THROW((void)store::cluster_sum(store, f.nodes(), kPowerChannel,
                                           f.window, 10, nullptr, nullptr,
                                           &stats));
  EXPECT_TRUE(stats.degraded());
}

// ------------------------------------------------------------ lifecycle

TEST(CompactionCrash, EveryWritePointKeepsEveryCommittedLiveEvent) {
  const Feed& f = feed(6, 4);
  // Retention cutoff one third into the window: rounds see expired events
  // to shed, straddling segments to force-rewrite, and a live tail that
  // must survive every crash.
  const util::TimeSec cut =
      f.window.begin + (f.window.end - f.window.begin) / 3;
  const util::TimeRange tail{cut, f.window.end};
  store::CompactionOptions copts;
  copts.retention.drop_before = cut;
  copts.small_segment_events = std::uint64_t{1} << 20;  // merge everything
  copts.min_merge_inputs = 2;

  // Every run starts from a byte-identical copy of one clean feed, so the
  // compaction pass is the only variable.
  const std::string dir = scratch_dir("e2e_compaction_crash");
  const std::string pristine = dir + "/pristine";
  const std::string root = dir + "/store";
  fill_store(f, pristine);

  const SweepStats stats = crash_sweep(
      [&] {
        fs::remove_all(root);
        fs::copy(pristine, root);
      },
      [&](util::Vfs& vfs) {
        store::StoreOptions options = store_options();
        options.vfs = &vfs;
        store::Store store = store::Store::open(root, options);
        (void)store.compact(copts);
      },
      [&](std::optional<std::uint64_t> crash_at) {
        // Reopening replays the journal. A crash may resurrect expired
        // data but never loses a committed live event; the fault-free
        // rehearsal keeps exactly the retained tail.
        const store::Store store = store::Store::open(root, store_options());
        expect_survivors(store, f);
        for (const telemetry::MetricId id : store.metrics()) {
          const auto disk = store.query(id, f.window);
          const auto live = f.archive().query(id, tail);
          EXPECT_TRUE(is_subset(live, disk))
              << "metric " << id << " lost committed live events";
          if (!crash_at) {
            EXPECT_EQ(disk.size(), live.size()) << "metric " << id;
          }
        }
        // Recovery is idempotent and leaves no lifecycle litter.
        const store::Store again = store::Store::open(root, store_options());
        EXPECT_EQ(again.recovery().compactions_finished, 0u);
        EXPECT_EQ(again.recovery().compactions_rolled_back, 0u);
        for (const std::string& name : util::Vfs::real().list(root)) {
          EXPECT_FALSE(name.ends_with(".compact") ||
                       name.ends_with(".incoming") ||
                       name.ends_with(".compact.tmp"))
              << "lifecycle litter survived recovery: " << name;
        }
      });
  std::printf("compaction crash sweep: %llu write points, %llu crashes "
              "fired\n",
              static_cast<unsigned long long>(stats.write_points),
              static_cast<unsigned long long>(stats.fired));
  EXPECT_GT(stats.fired, 0u);
}

// ------------------------------------------------------------ net

TEST(Serve, ChunkedRepliesAreStreamed) {
  const Feed& f = feed(12, 6);
  const std::string dir = scratch_dir("e2e_serve_chunked");
  Topology topo(Kind::kLoopback, f, dir);
  for (const Method method : {Method::kScan, Method::kPueRollup}) {
    Request req = feed_request(method, f);
    req.chunk_bytes = 4096;
    EXPECT_EQ(topo.call(req).status, Status::kOk);
  }
  const Response stats = server_stats(topo.client_options());
  ASSERT_EQ(stats.status, Status::kOk);
  EXPECT_GE(stats.server.get("stream.responses").value_or(0), 2.0);
  EXPECT_GE(stats.server.get("stream.chunks").value_or(0), 2.0);
}

TEST(Serve, SubscriptionTicksEqualTheOfflineReplay) {
  const Feed& f = feed(12, 6);
  const std::string dir = scratch_dir("e2e_serve_subscribe");
  Topology topo(Kind::kLoopback, f, dir);
  const auto offline = offline_replay(topo.reference(), f);
  ASSERT_GT(offline.windows, 0u);

  server::Subscription sub(topo.client_options(),
                           feed_request(Method::kSubscribe, f));
  std::size_t window_ticks = 0;
  while (const auto tick = sub.next(10000)) {
    if (tick->kind != server::wire::TickKind::kWindow) continue;
    ++window_ticks;
    ASSERT_LT(tick->index, offline.power.size());
    EXPECT_EQ(tick->power_w, offline.power[tick->index]) << tick->index;
    EXPECT_EQ(tick->pue, offline.pue[tick->index]) << tick->index;
  }
  EXPECT_EQ(window_ticks, offline.windows);
  ASSERT_TRUE(sub.result().has_value());
  EXPECT_EQ(sub.result()->status, Status::kOk);
}

TEST(Serve, LostSegmentIsReportedOverTheWire) {
  const Feed& f = feed(12, 6);
  const std::string dir = scratch_dir("e2e_serve_degraded");
  fill_store(f, dir);
  const std::string victim = first_segment(dir);
  ASSERT_FALSE(victim.empty());

  // Lose the segment under a live, cold-cached store: reopening after the
  // loss would let recovery repair the manifest and hide it. Buffered
  // tier, since only an unmapped reader loses its file to an unlink.
  UnmappedVfs buffered;
  store::StoreOptions options = store_options();
  options.vfs = &buffered;
  const store::Store store = store::Store::open(dir, options);
  util::Vfs::real().remove(dir + "/" + victim);
  LoopbackServer srv(store);
  const Request req = feed_request(Method::kScan, f);
  const Response resp = server::Client(srv.client_options()).call(req);
  store::QueryStats direct_stats;
  const auto direct =
      store.query_many(req.metrics, f.window, nullptr, &direct_stats);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_GT(resp.stats.lost_segments, 0u);
  EXPECT_EQ(resp.stats.lost_segments, direct_stats.lost_segments);
  EXPECT_TRUE(runs_equal(resp.runs, direct));
}

// ------------------------------------------------------------ cluster

TEST(Cluster, OutageIsChargedExactlyAndRestartAndRebalanceRestoreParity) {
  const Feed& f = feed(9, 5);
  const std::string dir = scratch_dir("e2e_cluster_phases");
  Topology topo(Kind::kCluster, f, dir);
  {
    SCOPED_TRACE("fresh");  // also caches every shard's directory
    expect_parity(topo);
  }

  // Kill shard 1's server; its store stays open, only the endpoint dies.
  // The coordinator keeps answering with the survivors' data and charges
  // exactly shard 1's overlapping segments as lost, on scans and roll-ups
  // alike.
  topo.stop_shard(1);
  {
    std::uint64_t overlap = 0;
    for (const store::SegmentMeta& seg : topo.shard(1).directory()) {
      if (seg.t_min < f.window.end && f.window.begin <= seg.t_max) ++overlap;
    }
    const Request req = feed_request(Method::kScan, f);
    const Response resp = topo.call(req);
    const auto r0 = topo.shard(0).query_many(req.metrics, f.window);
    const auto r2 = topo.shard(2).query_many(req.metrics, f.window);
    const std::vector<store::MetricRun>* parts[] = {&r0, &r2};
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.stats.lost_segments, std::max<std::uint64_t>(overlap, 1));
    EXPECT_TRUE(runs_equal(resp.runs, cluster::merge_runs(req.metrics, parts)));

    // The roll-up's node-means legs charge the same outage as the scan's
    // raw legs, and roll up exactly what the survivors hold.
    const Request roll = feed_request(Method::kClusterSum, f);
    const Response sum = topo.call(roll);
    ASSERT_EQ(sum.status, Status::kOk) << sum.message;
    EXPECT_EQ(sum.stats.lost_segments, resp.stats.lost_segments);
    std::vector<telemetry::MetricId> ids;
    for (const machine::NodeId n : roll.nodes) {
      ids.push_back(telemetry::metric_id(n, roll.channel));
    }
    const auto r0c = topo.shard(0).query_many(ids, f.window);
    const auto r2c = topo.shard(2).query_many(ids, f.window);
    const std::vector<store::MetricRun>* survivors[] = {&r0c, &r2c};
    std::vector<ts::StatSeries> per_node;
    for (const store::MetricRun& run : cluster::merge_runs(ids, survivors)) {
      per_node.push_back(ts::coarsen(run.samples, roll.window, roll.range));
    }
    std::vector<double> counts;
    EXPECT_TRUE(series_equal(
        sum.series, store::reduce_cluster_sum(per_node, roll.range,
                                              roll.window, &counts)));
    EXPECT_EQ(sum.counts, counts);
  }

  // Restart shard 1 on a fresh port: full parity comes back without
  // touching the client.
  topo.restart_shard(1);
  {
    SCOPED_TRACE("after restart");
    expect_parity(topo);
  }

  // Move shard 0's first sealed segment to shard 2 with everything
  // quiesced; recovery has nothing to replay and no event is lost.
  const std::vector<store::SegmentMeta> shard0 = topo.shard(0).directory();
  ASSERT_FALSE(shard0.empty()) << "shard 0 sealed no segments to rebalance";
  topo.cycle_shards([&] {
    const auto& roots = topo.shard_roots();
    const auto moved =
        cluster::rebalance_segment(roots[0], roots[2], shard0.front().file);
    EXPECT_EQ(moved.events, shard0.front().events);
    EXPECT_EQ(cluster::recover_migrations(roots), 0u);
  });
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < Topology::kShards; ++i) {
    EXPECT_TRUE(topo.shard(i).recovery().clean()) << "shard " << i;
    events += topo.shard(i).total_events();
  }
  EXPECT_EQ(events, topo.reference().total_events());
  {
    SCOPED_TRACE("after rebalance");
    expect_parity(topo);
  }
}

// ------------------------------------------------------------ qos

/// One QoS server over the 12 x 6 feed, deliberately starved — one worker
/// and a four-deep queue make overload reproducible at tiny request
/// counts.
class Qos : public testing::Test {
 protected:
  static server::ServerOptions starved() {
    server::ServerOptions options;
    options.service = fixed_workers(1, {.queue_limit = 4});
    return options;
  }

  const Feed& feed_ = feed(12, 6);
  const std::string dir_ = scratch_dir("e2e_qos");
  const store::Store store_ = [this] {
    fill_store(feed_, dir_);
    return store::Store::open(dir_, store_options());
  }();
  LoopbackServer server_{store_, starved()};
};

TEST_F(Qos, TaggedTenantsRoundTripTheirClassCounters) {
  // A class-less request through QoS answers exactly like the direct call.
  server::Client client(server_.client_options());
  const Request plain = feed_request(Method::kClusterSum, feed_);
  const Response wire = client.call(plain);
  EXPECT_EQ(wire.status, Status::kOk);
  EXPECT_TRUE(series_equal(wire.series,
                           server_.server().service().execute(plain).series));

  std::uint64_t sent_by_class[qos::kClassCount] = {0, 0, 0};
  for (std::uint32_t tenant = 1; tenant <= 4; ++tenant) {
    server::Client tagged(server_.client_options());
    for (std::size_t i = 0; i < 6; ++i) {
      Request req = feed_request(Method::kWindowSum, feed_);
      req.metric = telemetry::metric_id(
          feed_.nodes()[i % feed_.nodes().size()], kPowerChannel);
      req.window = 30;
      req.tenant = tenant;
      req.qos_class = static_cast<std::uint32_t>(i % qos::kClassCount);
      EXPECT_EQ(tagged.call(req).status, Status::kOk)
          << "tenant " << tenant << " class " << req.qos_class;
      ++sent_by_class[static_cast<std::size_t>(
          qos::class_from_wire(req.qos_class))];
    }
  }
  // A worker books a request once its answer is handed to the loop, so
  // the last call can still be unbooked when the stats call lands.
  const auto served = [](const Response& r, std::size_t c) {
    return r.server
        .get(std::string("qos.") +
             qos::class_name(static_cast<qos::Class>(c)) + ".served")
        .value_or(0);
  };
  const auto all_booked = [&](const Response& r) {
    for (std::size_t c = 0; c < qos::kClassCount; ++c) {
      if (served(r, c) < static_cast<double>(sent_by_class[c])) return false;
    }
    return true;
  };
  Response s = server_stats(server_.client_options());
  for (int spins = 0; spins < 500 && s.status == Status::kOk && !all_booked(s);
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    s = server_stats(server_.client_options());
  }
  ASSERT_EQ(s.status, Status::kOk);
  for (std::size_t c = 0; c < qos::kClassCount; ++c) {
    EXPECT_GE(served(s, c), static_cast<double>(sent_by_class[c]))
        << qos::class_name(static_cast<qos::Class>(c));
  }
  EXPECT_GT(s.server.get("qos.workers").value_or(0), 0.0);
}

TEST_F(Qos, OverloadNeverShedsInteractiveWork) {
  // Four batch tenants flood expensive roll-ups while one interactive
  // tenant keeps pinging. Victims are cheapest-to-refuse: the queue holds
  // only batch work, so an arriving ping always wins a slot.
  std::atomic<std::uint64_t> batch_ok{0};
  std::atomic<std::uint64_t> batch_shed{0};
  std::atomic<std::uint64_t> hintless_sheds{0};
  std::atomic<std::uint64_t> odd_status{0};
  std::vector<std::thread> flood;
  for (std::uint32_t tenant = 1; tenant <= 4; ++tenant) {
    flood.emplace_back([&, tenant] {
      server::Client client(server_.client_options());
      Request req = feed_request(Method::kPueRollup, feed_);
      req.tenant = tenant;
      req.qos_class = 2;  // batch
      for (int i = 0; i < 8; ++i) {
        const Response resp = client.call(req);
        if (resp.status == Status::kOk) {
          ++batch_ok;
        } else if (resp.status == Status::kResourceExhausted) {
          ++batch_shed;
          if (resp.shed_cost_hint_us == 0) ++hintless_sheds;
        } else {
          ++odd_status;
        }
      }
    });
  }
  std::uint64_t ping_shed = 0;
  {
    server::Client client(server_.client_options());
    Request req;
    req.method = Method::kPing;
    req.tenant = 9;
    req.qos_class = 0;  // interactive
    for (int i = 0; i < 40; ++i) {
      if (client.call(req).status == Status::kResourceExhausted) ++ping_shed;
    }
  }
  for (auto& th : flood) th.join();
  std::printf("overload: batch %llu ok / %llu shed, interactive %llu shed\n",
              static_cast<unsigned long long>(batch_ok.load()),
              static_cast<unsigned long long>(batch_shed.load()),
              static_cast<unsigned long long>(ping_shed));
  EXPECT_EQ(ping_shed, 0u) << "interactive work shed while batch sat queued";
  EXPECT_GT(batch_ok.load(), 0u) << "overload starved batch completely";
  EXPECT_EQ(hintless_sheds.load(), 0u) << "sheds lacked the cost hint";
  EXPECT_EQ(odd_status.load(), 0u) << "neither kOk nor kResourceExhausted";

  const Response s = server_stats(server_.client_options());
  ASSERT_EQ(s.status, Status::kOk);
  EXPECT_GE(s.server.get("qos.batch.shed").value_or(0),
            static_cast<double>(batch_shed.load()));
  EXPECT_EQ(s.server.get("qos.interactive.shed"), 0.0);
}

TEST(QosCluster, ScatterLegsInheritTheCallersClass) {
  const Feed& f = feed(12, 6);
  const std::string dir = scratch_dir("e2e_qos_scatter");
  Topology topo(Kind::kCluster, f, dir);
  Request req = feed_request(Method::kClusterSum, f);
  req.tenant = 7;
  req.qos_class = 2;  // batch
  EXPECT_EQ(topo.call(req).status, Status::kOk);

  // Drain before reading counters: a streamed leg hands the coordinator
  // its bytes before the shard worker books the request.
  for (std::size_t i = 0; i < Topology::kShards; ++i) {
    topo.shard_server(i).stop();
  }
  for (std::size_t i = 0; i < Topology::kShards; ++i) {
    const auto m = topo.shard_server(i).server().service().metrics();
    EXPECT_GT(m.class_served[2], 0u) << "shard " << i << " saw no batch work";
    EXPECT_EQ(m.class_served[0], 0u) << "shard " << i;
    EXPECT_EQ(m.class_shed[0], 0u) << "shard " << i;
  }
}

// ------------------------------------------------------------ scenario

TEST(Scenario, IdentityMatchesTheReplayStoreBacked) {
  const Feed& f = feed(12, 6);
  const std::string dir = scratch_dir("e2e_scenario_identity");
  fill_store(f, dir);
  const store::Store store = store::Store::open(dir, store_options());
  const auto offline = offline_replay(store, f);
  ASSERT_GT(offline.windows, 0u) << "replay closed no windows";

  scenario::ScenarioSpec identity;
  identity.name = "identity";
  const auto r =
      scenario::run_scenario(store, f.nodes(), replay_options(f), identity);
  EXPECT_FALSE(r.cancelled);
  EXPECT_TRUE(series_equal(r.power, offline.power));
  EXPECT_TRUE(series_equal(r.pue, offline.pue));
  EXPECT_TRUE(series_equal(r.baseline_power, offline.power));
  EXPECT_TRUE(series_equal(r.baseline_pue, offline.pue));
}

/// The scenario invariants over a loopback server, against the replay of
/// the un-intervened trace.
class ScenarioWire : public testing::Test {
 protected:
  Response run(scenario::ScenarioSpec spec) {
    Request req = feed_request(Method::kScenario, feed_);
    req.subscribe_mask = 0;
    req.scenarios = {std::move(spec)};
    return topo_.call(req);
  }

  const Feed& feed_ = feed(12, 6);
  const std::string dir_ = scratch_dir("e2e_scenario_wire");
  Topology topo_{Kind::kLoopback, feed_, dir_};
  const stream::RollupReplay offline_ =
      offline_replay(topo_.reference(), feed_);
  const double baseline_peak_ = peak(offline_.power);
};

TEST_F(ScenarioWire, CapNeverExceedsTheBaseline) {
  scenario::ScenarioSpec spec;
  spec.name = "cap";
  spec.power_cap_w = 0.6 * baseline_peak_;  // binds somewhere
  const Response resp = run(spec);
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_EQ(resp.series.size(), offline_.power.size());
  std::size_t clamped = 0;
  for (std::size_t i = 0; i < resp.series.size(); ++i) {
    EXPECT_LE(resp.series[i], offline_.power[i]) << "window " << i;
    if (resp.series[i] < offline_.power[i]) ++clamped;
  }
  EXPECT_GT(clamped, 0u);
}

TEST_F(ScenarioWire, ChillerOutageNeverBeatsTheBaselinePue) {
  scenario::ScenarioSpec spec;
  spec.name = "chiller-outage";
  spec.force_chillers = true;  // strictly worse facility overhead
  const Response resp = run(spec);
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_EQ(resp.pue.size(), offline_.pue.size());
  double delta = 0.0;
  for (std::size_t i = 0; i < resp.pue.size(); ++i) {
    EXPECT_GE(resp.pue[i], offline_.pue[i]) << "window " << i;
    delta += resp.pue[i] - offline_.pue[i];
  }
  EXPECT_GT(delta, 0.0);
}

TEST_F(ScenarioWire, SweepKeepsRequestOrderAndEnergyIsMonotoneInTheCap) {
  Request req = feed_request(Method::kScenarioSweep, feed_);
  req.subscribe_mask = 0;
  for (const double frac : {0.4, 0.6, 0.8, 1.2}) {
    scenario::ScenarioSpec spec;
    spec.name = "cap-" + util::fmt_double(frac, 1);
    spec.power_cap_w = frac * baseline_peak_;
    req.scenarios.push_back(std::move(spec));
  }
  const Response resp = topo_.call(req);
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_EQ(resp.scenarios.size(), req.scenarios.size());
  for (std::size_t i = 0; i < resp.scenarios.size(); ++i) {
    EXPECT_EQ(resp.scenarios[i].name, req.scenarios[i].name);
    if (i > 0) {
      EXPECT_GE(resp.scenarios[i].energy_j, resp.scenarios[i - 1].energy_j)
          << resp.scenarios[i].name;
    }
  }
}

TEST(Scenario, CancelledSweepFreesItsAdmissionSlot) {
  const Feed& f = feed(12, 6);
  const std::string dir = scratch_dir("e2e_scenario_cancel");
  fill_store(f, dir);
  const store::Store store = store::Store::open(dir, store_options());
  const auto offline = offline_replay(store, f);
  ASSERT_GT(offline.windows, 0u);

  // A service with one fixed worker pins sweep A on it; sweep B queues
  // behind it and its client vanishes while A streams. When the worker
  // reaches B its cancel token has long been tripped, so B resolves
  // kCancelled and its slot is returned.
  server::ServerOptions options;
  options.service = fixed_workers(1);
  LoopbackServer srv(store, options);
  const server::ClientOptions copts = srv.client_options();

  Request req = feed_request(Method::kScenarioSweep, f);
  req.subscribe_mask =
      static_cast<std::uint8_t>(server::wire::TickKind::kWindow);
  for (int i = 0; i < 8; ++i) {
    scenario::ScenarioSpec spec;
    spec.name = "sweep-" + std::to_string(i);
    spec.power_cap_w = (0.3 + 0.1 * i) * peak(offline.power);
    req.scenarios.push_back(std::move(spec));
  }
  server::Subscription running(copts, req);
  std::vector<std::size_t> per_variant(req.scenarios.size(), 0);
  try {
    const auto first = running.next(30000);
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->kind, server::wire::TickKind::kVariantWindow);
    ++per_variant.at(first->variant);

    req.subscribe_mask = 0;
    server::Subscription doomed(copts, req);  // queues behind A
    doomed.close();                           // ...and its peer vanishes

    while (const auto tick = running.next(30000)) {
      if (tick->kind == server::wire::TickKind::kVariantWindow) {
        ++per_variant.at(tick->variant);
      }
    }
  } catch (const net::NetError& e) {
    ADD_FAILURE() << "sweep stream broke: " << e.what();
  }
  ASSERT_TRUE(running.result().has_value());
  EXPECT_EQ(running.result()->status, Status::kOk);
  EXPECT_EQ(running.result()->scenarios.size(), req.scenarios.size());
  for (std::size_t v = 0; v < per_variant.size(); ++v) {
    EXPECT_EQ(per_variant[v], offline.windows) << "variant " << v;
  }

  // No queued ghost: the cancellation is counted and every admitted slot
  // accounted for. The stats probe occupies a slot while it snapshots
  // itself, so the conservation law is accepted == finished buckets +
  // whatever is still in flight.
  const auto count = [](const Response& r, const char* name) {
    return r.server.get(std::string("service.") + name).value_or(-1);
  };
  Response resp;
  bool freed = false;
  for (int attempt = 0; attempt < 100 && !freed; ++attempt) {
    resp = server_stats(copts);
    ASSERT_EQ(resp.status, Status::kOk);
    freed = count(resp, "queue_depth") <= 1 &&
            count(resp, "cancelled") >= 1 &&
            count(resp, "accepted") ==
                count(resp, "served") + count(resp, "shed") +
                    count(resp, "deadline_exceeded") +
                    count(resp, "cancelled") + count(resp, "failed") +
                    count(resp, "queue_depth");
    if (!freed) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(freed) << "slot leaked: depth " << count(resp, "queue_depth")
                     << ", cancelled " << count(resp, "cancelled")
                     << ", accepted " << count(resp, "accepted");
}

}  // namespace
