#include "e2e_rig.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <utility>

#include "cluster/shard_map.hpp"
#include "faultfs/fault.hpp"
#include "server/replay_source.hpp"
#include "telemetry/aggregator.hpp"

namespace exawatt::e2e {

namespace fs = std::filesystem;
using server::wire::Method;
using server::wire::Request;
using server::wire::Response;
using server::wire::Status;

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("exawatt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

testing::AssertionResult series_equal(const ts::Series& a,
                                      const ts::Series& b) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure()
           << "lengths differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return testing::AssertionFailure()
             << "window " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult runs_equal(const std::vector<store::MetricRun>& a,
                                    const std::vector<store::MetricRun>& b) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure()
           << "run counts differ: " << a.size() << " vs " << b.size();
  }
  const auto same = [](const ts::Sample& x, const ts::Sample& y) {
    return x.t == y.t && x.value == y.value;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        !std::equal(a[i].samples.begin(), a[i].samples.end(),
                    b[i].samples.begin(), b[i].samples.end(), same)) {
      return testing::AssertionFailure()
             << "run " << i << " (metric " << a[i].id << ") differs";
    }
  }
  return testing::AssertionSuccess();
}

bool is_subset(const std::vector<ts::Sample>& part,
               const std::vector<ts::Sample>& full) {
  std::size_t j = 0;
  for (const auto& s : part) {
    while (j < full.size() && full[j].t < s.t) ++j;
    if (j >= full.size() || full[j].t != s.t || full[j].value != s.value) {
      return false;
    }
    ++j;
  }
  return true;
}

Feed::Feed(int nodes, double minutes, std::uint64_t seed)
    : window{util::kHour,
             util::kHour + static_cast<util::TimeSec>(minutes * 60.0)},
      config([&] {
        core::SimulationConfig c;
        c.scale = machine::MachineScale::small(nodes);
        c.seed = seed;
        c.range = {0, window.end + util::kHour};
        return c;
      }()),
      sim(config),
      rig(sim, config, window, config.scale.nodes) {
  rig.pipeline.set_batch_sink(
      [this](const std::vector<telemetry::MetricEvent>& batch) {
        batches.push_back(batch);
      });
  rig.pipeline.run(window);
}

std::vector<telemetry::MetricId> Feed::power_ids() const {
  std::vector<telemetry::MetricId> ids;
  for (const machine::NodeId node : nodes()) {
    ids.push_back(telemetry::metric_id(node, kPowerChannel));
  }
  return ids;
}

const Feed& feed(int nodes, double minutes) {
  static std::mutex mu;
  static std::map<std::pair<int, double>, std::unique_ptr<Feed>> feeds;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = feeds[{nodes, minutes}];
  if (!slot) slot = std::make_unique<Feed>(nodes, minutes);
  return *slot;
}

store::StoreOptions store_options() {
  store::StoreOptions options;
  options.segment_events = 1 << 13;
  return options;
}

void fill_store(const Feed& feed, const std::string& root) {
  fs::remove_all(root);
  store::Store store = store::Store::open(root, store_options());
  for (const auto& batch : feed.batches) store.append(batch);
  store.flush();
}

Request feed_request(Method method, const Feed& feed) {
  Request req;
  req.method = method;
  req.range = feed.window;
  req.window = 10;
  if (method == Method::kScan) {
    req.metrics = feed.power_ids();
  } else if (method != Method::kWindowSum) {
    req.nodes = feed.nodes();
    req.channel = kPowerChannel;
  }
  return req;
}

stream::EngineOptions replay_options(const Feed& feed) {
  stream::EngineOptions options;
  options.range = feed.window;
  options.rollup.edge_node_count = static_cast<double>(feed.nodes().size());
  return options;
}

stream::RollupReplay offline_replay(const store::Store& store,
                                    const Feed& feed) {
  return stream::replay_rollup(store, feed.nodes(), replay_options(feed));
}

LoopbackServer::LoopbackServer(const store::Store& store,
                               server::ServerOptions options,
                               server::QueryService::SubscribeSource subscribe)
    : server_(std::make_unique<server::Server>(store, std::move(options))) {
  if (subscribe) server_->service().set_subscribe_source(std::move(subscribe));
  start();
}

LoopbackServer::LoopbackServer(server::QueryService& service)
    : server_(std::make_unique<server::Server>(service)) {
  start();
}

void LoopbackServer::start() {
  loop_ = std::thread([srv = server_.get()] { srv->run(); });
}

void LoopbackServer::stop() {
  if (!loop_.joinable()) return;
  server_->shutdown();
  loop_.join();
  server_->drain();
}

server::ClientOptions LoopbackServer::client_options() const {
  server::ClientOptions options;
  options.port = server_->port();
  return options;
}

server::ServiceOptions fixed_workers(std::size_t workers,
                                     server::ServiceOptions options) {
  qos::AutoScalerOptions& scale = options.qos.emplace().pool.autoscaler;
  scale.min_workers = workers;
  scale.max_workers = workers;
  return options;
}

const char* kind_name(Kind kind) {
  static constexpr const char* kNames[] = {"direct", "loopback", "cluster"};
  return kNames[static_cast<std::size_t>(kind)];
}

Topology::Topology(Kind kind, const Feed& feed, const std::string& root)
    : kind_(kind), feed_(feed) {
  fill_store(feed, root + "/ref");
  ref_.emplace(store::Store::open(root + "/ref", store_options()));
  switch (kind) {
    case Kind::kDirect:
      direct_ = std::make_unique<server::QueryService>(*ref_);
      return;
    case Kind::kLoopback:
      loopback_ = std::make_unique<LoopbackServer>(
          *ref_, server::ServerOptions{}, server::make_replay_source(*ref_));
      client_ = std::make_unique<server::Client>(loopback_->client_options());
      return;
    case Kind::kCluster:
      break;
  }

  // Hash-route the same batches the reference store ingested.
  const cluster::ShardMap map = cluster::ShardMap::uniform(kShards);
  {
    std::vector<store::Store> writers;
    for (std::size_t i = 0; i < kShards; ++i) {
      shard_roots_.push_back(root + "/shard" + std::to_string(i));
      writers.push_back(
          store::Store::open(shard_roots_.back(), store_options()));
    }
    for (const auto& batch : feed.batches) {
      const auto parts = map.split(batch);
      for (std::size_t i = 0; i < kShards; ++i) {
        if (!parts[i].empty()) writers[i].append(parts[i]);
      }
    }
    for (auto& w : writers) w.flush();
  }
  cycle_shards([] {});  // open the shard stores and serve them

  cluster::CoordinatorOptions copts;
  for (const auto& s : shard_servers_) {
    copts.shards.push_back({"127.0.0.1", s->server().port()});
  }
  // Every store is flushed before serving, so directory pruning is safe —
  // and this keeps the pruned planning path exercised.
  copts.prune = true;
  coordinator_ = std::make_unique<cluster::Coordinator>(std::move(copts));
  front_ = std::make_unique<server::QueryService>(coordinator_->executor());
  front_->set_stats_augment(
      [c = coordinator_.get()](server::wire::ServerStatsWire& s) {
        c->augment_stats(s);
      });
  front_server_ = std::make_unique<LoopbackServer>(*front_);
  client_ = std::make_unique<server::Client>(front_server_->client_options());
}

Response Topology::call(const Request& request) {
  return direct_ ? direct_->execute(request) : client_->call(request);
}

server::ClientOptions Topology::client_options() const {
  return loopback_ ? loopback_->client_options()
                   : front_server_->client_options();
}

void Topology::stop_shard(std::size_t i) { shard_servers_[i].reset(); }

void Topology::restart_shard(std::size_t i) {
  shard_servers_[i] = std::make_unique<LoopbackServer>(*shards_[i]);
  coordinator_->set_endpoint(i,
                             {"127.0.0.1", shard_servers_[i]->server().port()});
}

void Topology::cycle_shards(const std::function<void()>& while_down) {
  shard_servers_.clear();
  shards_.clear();  // release the stores before touching their roots
  while_down();
  // Open every store before serving any: servers hold references into
  // `shards_`, which must not reallocate under them.
  for (const std::string& root : shard_roots_) {
    shards_.emplace_back(store::Store::open(root, store_options()));
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_servers_.push_back(std::make_unique<LoopbackServer>(*shards_[i]));
    if (coordinator_) {
      coordinator_->set_endpoint(
          i, {"127.0.0.1", shard_servers_[i]->server().port()});
    }
  }
}

void expect_parity(Topology& topo) {
  SCOPED_TRACE(std::string("topology ") + kind_name(topo.kind()));
  const store::Store& ref = topo.reference();
  const Feed& feed = topo.feed();
  const util::TimeRange window = feed.window;

  Request req;
  req.method = Method::kPing;
  EXPECT_EQ(topo.call(req).status, Status::kOk) << "ping";

  req = feed_request(Method::kWindowSum, feed);
  for (const telemetry::MetricId id : feed.power_ids()) {
    req.metric = id;
    const Response resp = topo.call(req);
    const auto direct = ref.window_sum(id, window, 10);
    EXPECT_TRUE(resp.status == Status::kOk &&
                resp.window_sum.start == direct.start &&
                resp.window_sum.sum == direct.sum &&
                resp.window_sum.count == direct.count)
        << "window_sum of metric " << id;
  }

  req = feed_request(Method::kScan, feed);
  const auto direct_runs = ref.query_many(req.metrics, window);
  for (const std::uint32_t chunk_bytes : {0u, 4096u}) {
    SCOPED_TRACE("scan, chunk bytes " + std::to_string(chunk_bytes));
    req.chunk_bytes = chunk_bytes;
    const Response resp = topo.call(req);
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_FALSE(resp.stats.degraded());
    EXPECT_TRUE(runs_equal(resp.runs, direct_runs));
  }

  req = feed_request(Method::kClusterSum, feed);
  for (const int channel : {kPowerChannel, kGpuTempChannel}) {
    SCOPED_TRACE("cluster_sum, channel " + std::to_string(channel));
    req.channel = channel;
    const Response resp = topo.call(req);
    std::vector<double> counts;
    const auto direct =
        store::cluster_sum(ref, feed.nodes(), channel, window, 10, &counts);
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_TRUE(series_equal(resp.series, direct));
    EXPECT_EQ(resp.counts, counts);
  }

  const auto offline = offline_replay(ref, feed);
  ASSERT_GT(offline.windows, 0u);
  req = feed_request(Method::kPueRollup, feed);
  for (const std::uint32_t chunk_bytes : {0u, 4096u}) {
    SCOPED_TRACE("pue_rollup, chunk bytes " + std::to_string(chunk_bytes));
    req.chunk_bytes = chunk_bytes;
    const Response resp = topo.call(req);
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_TRUE(series_equal(resp.series, offline.power));
    EXPECT_TRUE(series_equal(resp.pue, offline.pue));
  }

  req = {};
  req.method = Method::kDirectory;
  {
    SCOPED_TRACE("directory");
    const Response resp = topo.call(req);
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.directory.total_events, ref.total_events());
    EXPECT_EQ(resp.directory.bounds.begin, ref.bounds().begin);
    EXPECT_EQ(resp.directory.bounds.end, ref.bounds().end);
  }

  // A default spec installs no hooks: every series of the identity
  // scenario is the plain roll-up.
  req = feed_request(Method::kScenario, feed);
  req.subscribe_mask = 0;
  req.scenarios.resize(1);
  req.scenarios.front().name = "identity";
  {
    SCOPED_TRACE("identity scenario");
    const Response resp = topo.call(req);
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_TRUE(series_equal(resp.series, offline.power));
    EXPECT_TRUE(series_equal(resp.pue, offline.pue));
    EXPECT_TRUE(series_equal(resp.baseline_power, offline.power));
    EXPECT_TRUE(series_equal(resp.baseline_pue, offline.pue));
    ASSERT_EQ(resp.scenarios.size(), 1u);
    EXPECT_EQ(resp.scenarios.front().windows, offline.windows);
  }
}

SweepStats crash_sweep(
    const std::function<void()>& reset,
    const std::function<void(util::Vfs&)>& run,
    const std::function<void(std::optional<std::uint64_t>)>& check) {
  SweepStats stats;
  reset();
  faultfs::FaultVfs counter(util::Vfs::real());
  try {
    run(counter);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "fault-free rehearsal threw: " << e.what();
    return stats;
  }
  stats.write_points = counter.stats().write_ops;
  {
    SCOPED_TRACE("rehearsal");
    check(std::nullopt);
  }
  for (std::uint64_t k = 0; k < stats.write_points; ++k) {
    SCOPED_TRACE("crash at write op " + std::to_string(k));
    reset();
    faultfs::FaultVfs chaos(util::Vfs::real(),
                            faultfs::FaultPlan().crash_at_write(k));
    try {
      run(chaos);
    } catch (const std::exception&) {
      ++stats.fired;  // simulated process death; check() reopens
    }
    check(k);
  }
  return stats;
}

void expect_survivors(const store::Store& store, const Feed& feed) {
  const util::TimeRange window = feed.window;
  std::map<std::int64_t, std::vector<telemetry::MetricEvent>> by_day;
  for (const telemetry::MetricId id : store.metrics()) {
    const auto disk = store.query(id, window);
    EXPECT_TRUE(is_subset(disk, feed.archive().query(id, window)))
        << "metric " << id << " has samples the feed never produced";
    for (const auto& s : disk) {
      by_day[s.t / util::kDay].push_back(
          {id, s.t, static_cast<std::int32_t>(s.value)});
    }
  }
  telemetry::Archive survivors;
  for (auto& [day, events] : by_day) survivors.append(std::move(events));
  EXPECT_TRUE(series_equal(
      store::cluster_sum(store, feed.nodes(), kPowerChannel, window),
      telemetry::cluster_sum(survivors, feed.nodes(), kPowerChannel, window)))
      << "cluster_sum diverges from the surviving events";
}

}  // namespace exawatt::e2e
