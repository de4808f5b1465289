// src/cluster suite: shard-map codec and routing, the fan_out scatter
// primitive, the merge algebra (window-sum grids, metric runs, query
// stats), partition-parity properties — any shard partition of a feed
// must answer bit-identically to one store holding the union, including
// with one shard dropped — the rebalance protocol, including a
// crash-at-every-write-point sweep that must never lose or duplicate a
// committed event, and the coordinator's node-means cluster_sum over
// served shards with its raw-leg fallbacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/merge.hpp"
#include "cluster/rebalance.hpp"
#include "cluster/shard_map.hpp"
#include "e2e_rig.hpp"
#include "net/fanout.hpp"
#include "server/service.hpp"
#include "store/store.hpp"
#include "telemetry/metric.hpp"
#include "ts/series.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace {

using namespace exawatt;
using e2e::runs_equal;
using e2e::scratch_dir;
namespace fs = std::filesystem;

const int kPowerChannel =
    telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);

/// Deterministic random feed on the input-power channel of `n_nodes`
/// nodes: out-of-order timestamps and duplicate instants included, since
/// the merge algebra must be a pure function of the sample multiset.
std::vector<telemetry::MetricEvent> make_events(
    std::uint64_t seed, int n_nodes, std::size_t count, util::TimeRange span,
    int channel = kPowerChannel) {
  util::Rng rng(seed);
  std::vector<telemetry::MetricEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto node =
        static_cast<machine::NodeId>(rng.uniform_index(
            static_cast<std::size_t>(n_nodes)));
    const auto t = span.begin + static_cast<util::TimeSec>(rng.uniform_index(
                                    static_cast<std::size_t>(span.duration())));
    events.push_back({telemetry::metric_id(node, channel), t,
                      static_cast<std::int32_t>(rng.uniform_index(50'000))});
  }
  return events;
}

store::StoreOptions small_segments(std::size_t events_per_segment = 512) {
  store::StoreOptions options;
  options.segment_events = events_per_segment;
  return options;
}

/// Append `events` in pipeline-sized batches and seal.
void fill_store(store::Store& store,
                const std::vector<telemetry::MetricEvent>& events) {
  std::vector<telemetry::MetricEvent> batch;
  for (const auto& ev : events) {
    batch.push_back(ev);
    if (batch.size() == 256) {
      store.append(std::move(batch));
      batch.clear();
    }
  }
  if (!batch.empty()) store.append(std::move(batch));
  store.flush();
}

// ------------------------------------------------------------ shard map

TEST(ShardMap, UniformCoversEveryShard) {
  const auto map = cluster::ShardMap::uniform(3);
  EXPECT_EQ(map.shards(), 3u);
  std::vector<std::size_t> owned(3, 0);
  for (int node = 0; node < 512; ++node) {
    const std::size_t shard =
        map.shard_of(telemetry::metric_id(node, kPowerChannel));
    ASSERT_LT(shard, 3u);
    ++owned[shard];
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(owned[s], 0u) << "shard " << s << " owns no traffic";
  }
}

TEST(ShardMap, RoutingIsDeterministic) {
  const auto a = cluster::ShardMap::uniform(4);
  const auto b = cluster::ShardMap::uniform(4);
  for (int node = 0; node < 64; ++node) {
    const auto id = telemetry::metric_id(node, kPowerChannel);
    EXPECT_EQ(a.shard_of(id), b.shard_of(id));
  }
}

TEST(ShardMap, RejectsDegenerateShardCounts) {
  EXPECT_THROW((void)cluster::ShardMap::uniform(0), util::CheckError);
  EXPECT_THROW(
      (void)cluster::ShardMap::uniform(cluster::ShardMap::kSlots + 1),
      util::CheckError);
}

TEST(ShardMap, AssignSlotMovesTrafficAndBumpsVersion) {
  auto map = cluster::ShardMap::uniform(2);
  const std::uint64_t v0 = map.version();
  for (std::size_t slot = 0; slot < cluster::ShardMap::kSlots; ++slot) {
    map.assign_slot(slot, 1);
  }
  EXPECT_EQ(map.version(), v0 + cluster::ShardMap::kSlots);
  for (int node = 0; node < 64; ++node) {
    EXPECT_EQ(map.shard_of(telemetry::metric_id(node, kPowerChannel)), 1u);
  }
}

TEST(ShardMap, RoundTripsThroughDisk) {
  const std::string dir = scratch_dir("shardmap_roundtrip");
  auto map = cluster::ShardMap::uniform(5);
  map.assign_slot(7, 2);
  map.save(dir + "/SHARDMAP");
  cluster::ShardMap loaded;
  ASSERT_TRUE(cluster::ShardMap::load(dir + "/SHARDMAP", loaded));
  EXPECT_EQ(loaded.encode(), map.encode());
  EXPECT_EQ(loaded.shards(), 5u);
  EXPECT_EQ(loaded.version(), map.version());
}

TEST(ShardMap, LoadMissingReturnsFalse) {
  const std::string dir = scratch_dir("shardmap_missing");
  cluster::ShardMap out;
  EXPECT_FALSE(cluster::ShardMap::load(dir + "/SHARDMAP", out));
}

TEST(ShardMap, CorruptionIsDetected) {
  const std::string dir = scratch_dir("shardmap_corrupt");
  const std::string path = dir + "/SHARDMAP";
  cluster::ShardMap::uniform(3).save(path);
  auto bytes = util::Vfs::real().read_all(path);
  bytes[bytes.size() / 2] ^= 0x01;
  auto out = util::Vfs::real().create(path);
  out->write(bytes);
  out->close();
  cluster::ShardMap loaded;
  EXPECT_THROW((void)cluster::ShardMap::load(path, loaded),
               store::StoreError);
}

TEST(ShardMap, SplitRoutesEveryEventToItsShard) {
  const auto map = cluster::ShardMap::uniform(3);
  const auto events = make_events(0x51u, 12, 2'000, {0, 600});
  const auto parts = map.split(events);
  ASSERT_EQ(parts.size(), 3u);
  std::size_t routed = 0;
  for (std::size_t shard = 0; shard < parts.size(); ++shard) {
    routed += parts[shard].size();
    for (const auto& ev : parts[shard]) {
      EXPECT_EQ(map.shard_of(ev.id), shard);
    }
  }
  EXPECT_EQ(routed, events.size());
  // Replaying the input through the routing must walk each shard's part
  // in order — split is a pure, order-preserving partition (the store's
  // append contract is order-sensitive for day-partition assignment).
  std::vector<std::size_t> cursor(parts.size(), 0);
  for (const auto& ev : events) {
    const std::size_t shard = map.shard_of(ev.id);
    const auto& got = parts[shard][cursor[shard]++];
    ASSERT_EQ(got.id, ev.id);
    ASSERT_EQ(got.t, ev.t);
    ASSERT_EQ(got.value, ev.value);
  }
}

// -------------------------------------------------------------- fan_out

TEST(FanOut, CollectsEveryResultInOrder) {
  const auto results =
      net::fan_out(8, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok);
    EXPECT_EQ(results[i].value, i * i);
  }
}

TEST(FanOut, CapturesExceptionsPerTask) {
  const auto results = net::fan_out(6, [](std::size_t i) -> int {
    if (i % 2 == 1) throw std::runtime_error("boom " + std::to_string(i));
    return static_cast<int>(i);
  });
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % 2 == 1) {
      EXPECT_FALSE(results[i].ok);
      EXPECT_EQ(results[i].error, "boom " + std::to_string(i));
    } else {
      EXPECT_TRUE(results[i].ok);
      EXPECT_EQ(results[i].value, static_cast<int>(i));
    }
  }
}

TEST(FanOut, ZeroTasksIsEmpty) {
  EXPECT_TRUE(net::fan_out(0, [](std::size_t) { return 0; }).empty());
}

// ---------------------------------------------------------------- merge

TEST(Merge, WindowSumEmptyTargetAdoptsSource) {
  store::WindowSum from;
  from.start = 100;
  from.window = 10;
  from.sum = {1.0, 2.0};
  from.count = {1, 2};
  store::WindowSum into;
  cluster::merge_window_sum(into, from);
  EXPECT_EQ(into.start, 100);
  EXPECT_EQ(into.sum, from.sum);
  EXPECT_EQ(into.count, from.count);
}

TEST(Merge, WindowSumAddsElementwise) {
  store::WindowSum a;
  a.start = 0;
  a.window = 10;
  a.sum = {1.0, 0.0, 4.0};
  a.count = {1, 0, 2};
  store::WindowSum b = a;
  b.sum = {2.0, 8.0, 0.0};
  b.count = {3, 4, 0};
  cluster::merge_window_sum(a, b);
  EXPECT_EQ(a.sum, (std::vector<double>{3.0, 8.0, 4.0}));
  EXPECT_EQ(a.count, (std::vector<std::uint64_t>{4, 4, 2}));
}

TEST(Merge, WindowSumRejectsMismatchedGrids) {
  store::WindowSum a;
  a.start = 0;
  a.window = 10;
  a.sum = {1.0};
  a.count = {1};
  store::WindowSum b = a;
  b.window = 20;
  EXPECT_THROW(cluster::merge_window_sum(a, b), util::CheckError);
}

TEST(Merge, DuplicateIdsEachGetTheFullRun) {
  // Store::query_many answers every duplicate requested id with the full
  // run; the clustered merge must match, not starve later duplicates.
  const std::string dir = scratch_dir("merge_duplicates");
  const auto events = make_events(0xF6, 4, 1'500, {0, 300});
  store::Store full = store::Store::open(dir + "/full", small_segments());
  fill_store(full, events);
  const auto map = cluster::ShardMap::uniform(2);
  std::vector<std::optional<store::Store>> shards;
  {
    const auto parts = map.split(events);
    for (std::size_t s = 0; s < 2; ++s) {
      shards.emplace_back(store::Store::open(
          dir + "/shard" + std::to_string(s), small_segments()));
      fill_store(*shards.back(), parts[s]);
    }
  }
  std::vector<telemetry::MetricId> ids = full.metrics();
  ASSERT_GE(ids.size(), 2u);
  ids.push_back(ids[0]);  // duplicate the first and last requested ids
  ids.push_back(ids[ids.size() - 2]);
  const util::TimeRange range{0, 300};
  std::vector<std::vector<store::MetricRun>> shard_runs;
  for (const auto& shard : shards) {
    shard_runs.push_back(shard->query_many(ids, range));
  }
  std::vector<const std::vector<store::MetricRun>*> parts;
  for (const auto& r : shard_runs) parts.push_back(&r);
  EXPECT_TRUE(runs_equal(cluster::merge_runs(ids, parts),
                         full.query_many(ids, range)));
}

TEST(Merge, QueryStatsMergeIsAdditive) {
  store::QueryStats a;
  a.lost_segments = 2;
  a.lost_blocks = 1;
  a.cache_hits = 10;
  a.cache_misses = 3;
  store::QueryStats b;
  b.lost_segments = 1;
  b.cache_misses = 4;
  a.merge(b);
  EXPECT_EQ(a.lost_segments, 3u);
  EXPECT_EQ(a.lost_blocks, 1u);
  EXPECT_EQ(a.cache_hits, 10u);
  EXPECT_EQ(a.cache_misses, 7u);
  EXPECT_TRUE(a.degraded());
}

// ----------------------------------------------- partition parity props

/// Any partition of a feed across `n_shards` stores must answer every
/// query shape bit-identically to one store holding the union.
void check_partition_parity(std::uint64_t seed, std::size_t n_shards) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", shards " +
               std::to_string(n_shards));
  const std::string dir = scratch_dir(
      "partition_" + std::to_string(seed) + "_" + std::to_string(n_shards));
  const int n_nodes = 10;
  const util::TimeRange span{0, 900};
  const auto events = make_events(seed, n_nodes, 6'000, span);
  const auto map = cluster::ShardMap::uniform(n_shards);

  store::Store full = store::Store::open(dir + "/full", small_segments());
  fill_store(full, events);
  std::vector<std::optional<store::Store>> shards;
  {
    const auto parts = map.split(events);
    for (std::size_t s = 0; s < n_shards; ++s) {
      shards.emplace_back(
          store::Store::open(dir + "/shard" + std::to_string(s),
                             small_segments()));
      fill_store(*shards.back(), parts[s]);
    }
  }

  const std::vector<telemetry::MetricId> ids = full.metrics();
  ASSERT_FALSE(ids.empty());
  const util::TimeRange range{100, 800};
  const util::TimeSec window = 10;

  // Scan: per-shard runs reassemble into the unsharded answer.
  std::vector<std::vector<store::MetricRun>> shard_runs;
  shard_runs.reserve(n_shards);
  for (const auto& shard : shards) {
    shard_runs.push_back(shard->query_many(ids, range));
  }
  std::vector<const std::vector<store::MetricRun>*> parts;
  for (const auto& r : shard_runs) parts.push_back(&r);
  EXPECT_TRUE(
      runs_equal(cluster::merge_runs(ids, parts), full.query_many(ids, range)));

  // Window-sum grids: elementwise sums are exact, so shard grouping must
  // not perturb a single bit.
  for (const telemetry::MetricId id : ids) {
    const store::WindowSum direct = full.window_sum(id, range, window);
    store::WindowSum merged;
    for (const auto& shard : shards) {
      cluster::merge_window_sum(merged, shard->window_sum(id, range, window));
    }
    EXPECT_EQ(merged.start, direct.start);
    EXPECT_EQ(merged.window, direct.window);
    EXPECT_EQ(merged.sum, direct.sum);
    EXPECT_EQ(merged.count, direct.count);
  }

  // Cluster roll-up via the coordinator's reduction path: raw scans,
  // merge, coarsen per node, reduce in node order.
  std::vector<machine::NodeId> nodes;
  for (const telemetry::MetricId id : ids) {
    nodes.push_back(telemetry::metric_node(id));
  }
  std::vector<double> want_counts;
  const ts::Series want = store::cluster_sum(full, nodes, kPowerChannel,
                                             range, window, &want_counts);
  const auto merged_runs = cluster::merge_runs(ids, parts);
  std::vector<ts::StatSeries> per_node;
  per_node.reserve(merged_runs.size());
  for (const auto& run : merged_runs) {
    per_node.push_back(ts::coarsen(run.samples, window, range));
  }
  std::vector<double> got_counts;
  const ts::Series got =
      store::reduce_cluster_sum(per_node, range, window, &got_counts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(got[w], want[w]) << "window " << w;
  }
  EXPECT_EQ(got_counts, want_counts);
}

TEST(PartitionParity, TwoShards) { check_partition_parity(0xA1, 2); }
TEST(PartitionParity, ThreeShards) { check_partition_parity(0xB2, 3); }
TEST(PartitionParity, FiveShards) { check_partition_parity(0xC3, 5); }
TEST(PartitionParity, SingleShardDegenerate) {
  check_partition_parity(0xD4, 1);
}

TEST(PartitionParity, OneShardDownIsPartialNeverWrong) {
  // Drop shard 1 from a 3-way partition: the merge over the survivors
  // must bit-match a store built from exactly the surviving events —
  // degraded reads lose data, they never invent it.
  const std::string dir = scratch_dir("partition_degraded");
  const auto events = make_events(0xE5, 9, 5'000, {0, 600});
  const auto map = cluster::ShardMap::uniform(3);
  const auto parts = map.split(events);

  std::vector<telemetry::MetricEvent> survivors_feed;
  for (const auto& ev : parts[0]) survivors_feed.push_back(ev);
  for (const auto& ev : parts[2]) survivors_feed.push_back(ev);

  store::Store survivors =
      store::Store::open(dir + "/survivors", small_segments());
  fill_store(survivors, survivors_feed);
  store::Store shard0 = store::Store::open(dir + "/shard0", small_segments());
  fill_store(shard0, parts[0]);
  store::Store shard2 = store::Store::open(dir + "/shard2", small_segments());
  fill_store(shard2, parts[2]);

  const std::vector<telemetry::MetricId> ids = survivors.metrics();
  const util::TimeRange range{0, 600};
  const auto r0 = shard0.query_many(ids, range);
  const auto r2 = shard2.query_many(ids, range);
  const std::vector<const std::vector<store::MetricRun>*> two = {&r0, &r2};
  EXPECT_TRUE(runs_equal(cluster::merge_runs(ids, two),
                         survivors.query_many(ids, range)));

  for (const telemetry::MetricId id : ids) {
    const store::WindowSum direct = survivors.window_sum(id, range, 10);
    store::WindowSum merged;
    cluster::merge_window_sum(merged, shard0.window_sum(id, range, 10));
    cluster::merge_window_sum(merged, shard2.window_sum(id, range, 10));
    EXPECT_EQ(merged.sum, direct.sum);
    EXPECT_EQ(merged.count, direct.count);
  }
}

// ------------------------------------------------------------ rebalance

struct RebalanceRig {
  std::string dir;
  std::string root_a;
  std::string root_b;
  std::vector<telemetry::MetricEvent> feed_a;
  std::vector<telemetry::MetricEvent> feed_b;
  std::vector<store::MetricRun> reference;
  std::vector<telemetry::MetricId> ids;
  util::TimeRange range{0, 600};
};

/// Two populated stores plus the unsharded reference answer over their
/// union — what every post-rebalance layout must still produce.
RebalanceRig make_rebalance_rig(const std::string& name) {
  RebalanceRig rig;
  rig.dir = scratch_dir(name);
  rig.root_a = rig.dir + "/a";
  rig.root_b = rig.dir + "/b";
  rig.feed_a = make_events(0xAA, 6, 2'000, rig.range);
  rig.feed_b = make_events(0xBB, 6, 1'000, rig.range);
  {
    store::Store a = store::Store::open(rig.root_a, small_segments());
    fill_store(a, rig.feed_a);
    store::Store b = store::Store::open(rig.root_b, small_segments());
    fill_store(b, rig.feed_b);
  }
  std::vector<telemetry::MetricEvent> all = rig.feed_a;
  all.insert(all.end(), rig.feed_b.begin(), rig.feed_b.end());
  store::Store full = store::Store::open(rig.dir + "/full", small_segments());
  fill_store(full, all);
  rig.ids = full.metrics();
  rig.reference = full.query_many(rig.ids, rig.range);
  return rig;
}

/// Reopen both roots and require the union to bit-match the reference.
void expect_union_parity(const RebalanceRig& rig) {
  store::Store a = store::Store::open(rig.root_a, small_segments());
  store::Store b = store::Store::open(rig.root_b, small_segments());
  EXPECT_TRUE(a.recovery().clean());
  EXPECT_TRUE(b.recovery().clean());
  const auto ra = a.query_many(rig.ids, rig.range);
  const auto rb = b.query_many(rig.ids, rig.range);
  const std::vector<const std::vector<store::MetricRun>*> parts = {&ra, &rb};
  EXPECT_TRUE(runs_equal(cluster::merge_runs(rig.ids, parts), rig.reference));
}

TEST(Rebalance, MovesASegmentPreservingUnionParity) {
  auto rig = make_rebalance_rig("rebalance_move");
  std::vector<store::SegmentMeta> dir_a;
  std::uint64_t before_a = 0;
  std::uint64_t before_b = 0;
  {
    store::Store a = store::Store::open(rig.root_a, small_segments());
    store::Store b = store::Store::open(rig.root_b, small_segments());
    dir_a = a.directory();
    before_a = a.total_events();
    before_b = b.total_events();
  }
  ASSERT_GE(dir_a.size(), 2u) << "need sealed segments to move";

  const auto report =
      cluster::rebalance_segment(rig.root_a, rig.root_b, dir_a[0].file);
  EXPECT_EQ(report.events, dir_a[0].events);
  EXPECT_EQ(cluster::recover_migrations({rig.root_a, rig.root_b}), 0u);

  store::Store a = store::Store::open(rig.root_a, small_segments());
  store::Store b = store::Store::open(rig.root_b, small_segments());
  EXPECT_EQ(a.total_events(), before_a - dir_a[0].events);
  EXPECT_EQ(b.total_events(), before_b + dir_a[0].events);
  expect_union_parity(rig);
}

TEST(Rebalance, ResolvesSegmentNameCollisions) {
  auto rig = make_rebalance_rig("rebalance_collision");
  std::string victim;
  {
    store::Store a = store::Store::open(rig.root_a, small_segments());
    store::Store b = store::Store::open(rig.root_b, small_segments());
    // Both stores start numbering at seg0; the first segment names clash.
    for (const auto& seg_a : a.directory()) {
      for (const auto& seg_b : b.directory()) {
        if (seg_a.file == seg_b.file) victim = seg_a.file;
      }
    }
  }
  ASSERT_FALSE(victim.empty()) << "fixture should produce a name clash";
  const auto report =
      cluster::rebalance_segment(rig.root_a, rig.root_b, victim);
  EXPECT_NE(report.to_file, report.from_file);
  EXPECT_EQ(report.to_file, "m" + report.from_file);
  expect_union_parity(rig);
}

TEST(Rebalance, RefusesSegmentsTheSourceDoesNotOwn) {
  const auto rig = make_rebalance_rig("rebalance_unknown");
  EXPECT_THROW((void)cluster::rebalance_segment(rig.root_a, rig.root_b,
                                                "no_such.seg"),
               store::StoreError);
}

TEST(Rebalance, RefusesToStartOverAPendingJournal) {
  const auto rig = make_rebalance_rig("rebalance_pending");
  std::string victim;
  {
    store::Store a = store::Store::open(rig.root_a, small_segments());
    victim = a.directory().front().file;
  }
  cluster::MigrationJournal j;
  j.from_root = rig.root_a;
  j.to_root = rig.root_b;
  j.to_file = "stale.seg";
  j.meta.file = "stale.seg";
  j.save(util::Vfs::real());
  EXPECT_THROW(
      (void)cluster::rebalance_segment(rig.root_a, rig.root_b, victim),
      store::StoreError);
  // recover_migrations clears the copying-state journal; the move then
  // proceeds.
  EXPECT_EQ(cluster::recover_migrations({rig.root_a, rig.root_b}), 1u);
  (void)cluster::rebalance_segment(rig.root_a, rig.root_b, victim);
  expect_union_parity(rig);
}

TEST(MigrationJournal, RoundTripsAndRejectsCorruption) {
  cluster::MigrationJournal j;
  j.from_root = "/data/shard 0";  // spaces in roots must survive
  j.to_root = "/data/shard 2";
  j.to_file = "mseg00000003_day00001.seg";
  j.meta = {"seg00000003_day00001.seg", 1, 4096, 12345, 86400, 90000};
  j.state = cluster::MigrationJournal::State::kFlipped;
  const auto decoded = cluster::MigrationJournal::decode(j.encode());
  EXPECT_EQ(decoded.encode(), j.encode());
  EXPECT_EQ(decoded.from_root, j.from_root);
  EXPECT_EQ(decoded.to_file, j.to_file);
  EXPECT_EQ(decoded.meta.events, 4096u);
  EXPECT_TRUE(decoded.state == cluster::MigrationJournal::State::kFlipped);

  std::string text = j.encode();
  text[text.size() / 3] ^= 0x01;
  EXPECT_THROW((void)cluster::MigrationJournal::decode(text),
               store::StoreError);
}

TEST(Rebalance, CrashAtEveryWritePointNeverLosesACommittedEvent) {
  // Crash a full move at every write point in turn. After
  // recover_migrations (the "next process start") no journal is left and
  // the union of both stores bit-matches the reference — the move either
  // rolled back or completed, and no event was lost or duplicated.
  std::optional<RebalanceRig> rig;
  std::string victim;
  const e2e::SweepStats stats = e2e::crash_sweep(
      [&] {
        rig.emplace(make_rebalance_rig("rebalance_crash"));
        store::Store a = store::Store::open(rig->root_a, small_segments());
        victim = a.directory().front().file;
      },
      [&](util::Vfs& vfs) {
        (void)cluster::rebalance_segment(rig->root_a, rig->root_b, victim,
                                         &vfs);
      },
      [&](std::optional<std::uint64_t>) {
        (void)cluster::recover_migrations({rig->root_a, rig->root_b});
        EXPECT_FALSE(
            util::Vfs::real().exists(cluster::journal_path(rig->root_a)));
        EXPECT_FALSE(
            util::Vfs::real().exists(cluster::journal_path(rig->root_b)));
        expect_union_parity(*rig);
      });
  EXPECT_GT(stats.write_points, 0u);
  EXPECT_EQ(stats.fired, stats.write_points);
}

// ------------------------------------------- clustered node-means roll-up

using server::wire::Method;
using server::wire::Request;
using server::wire::Response;
using server::wire::Status;

/// A shard that does not serve node-means legs: it answers them
/// UNIMPLEMENTED, as a coordinator serving as a shard does.
server::QueryService::Executor pre_node_means(const store::Store& store) {
  return [inner = server::make_store_executor(store)](
             const Request& request, const server::CancelToken& cancel,
             std::int64_t deadline_us,
             const server::QueryService::Emit& emit,
             server::ChunkWriter* stream) {
    if (request.method != Method::kNodeMeans) {
      return inner(request, cancel, deadline_us, emit, stream);
    }
    Response resp;
    resp.method = request.method;
    resp.status = Status::kUnimplemented;
    resp.message = "node_means is not served here";
    return resp;
  };
}

/// Scatter legs each shard of `coordinator` was sent by `request` (its
/// directory fetch on first contact included).
std::vector<std::uint64_t> legs_of(cluster::Coordinator& coordinator,
                                   const Request& request, Response* resp) {
  const auto before = coordinator.shard_stats();
  *resp = coordinator.execute(request, nullptr, 0);
  const auto after = coordinator.shard_stats();
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < after.size(); ++i) {
    out.push_back(after[i].calls - before[i].calls);
  }
  return out;
}

/// Loopback servers over `stores` (as `serve` runs them) and a
/// coordinator fronting them. The shards listed in `without_means` serve
/// through `pre_node_means`.
class ServedShards {
 public:
  explicit ServedShards(const std::vector<const store::Store*>& stores,
                        const std::vector<std::size_t>& without_means = {}) {
    cluster::CoordinatorOptions options;
    for (std::size_t i = 0; i < stores.size(); ++i) {
      if (std::find(without_means.begin(), without_means.end(), i) !=
          without_means.end()) {
        services_.push_back(std::make_unique<server::QueryService>(
            pre_node_means(*stores[i])));
        servers_.push_back(
            std::make_unique<e2e::LoopbackServer>(*services_.back()));
      } else {
        servers_.push_back(std::make_unique<e2e::LoopbackServer>(*stores[i]));
      }
      options.shards.push_back(
          {"127.0.0.1", servers_.back()->server().port()});
    }
    coordinator_ = std::make_unique<cluster::Coordinator>(options);
  }

  [[nodiscard]] cluster::Coordinator& coordinator() { return *coordinator_; }
  /// Take shard `shard`'s endpoint away; its store stays open.
  void stop(std::size_t shard) { servers_[shard].reset(); }

  [[nodiscard]] std::vector<std::uint64_t> legs(const Request& request,
                                                Response* resp) {
    return legs_of(*coordinator_, request, resp);
  }

 private:
  // Declared so teardown runs coordinator, servers, services.
  std::vector<std::unique_ptr<server::QueryService>> services_;
  std::vector<std::unique_ptr<e2e::LoopbackServer>> servers_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
};

Request roll_up(std::vector<machine::NodeId> nodes, int channel,
                util::TimeRange range, util::TimeSec window) {
  Request req;
  req.method = Method::kClusterSum;
  req.nodes = std::move(nodes);
  req.channel = channel;
  req.range = range;
  req.window = window;
  return req;
}

/// `resp` is OK and bit-matches store::cluster_sum of `req` on `full`.
void expect_roll_up(const Response& resp, const store::Store& full,
                    const Request& req) {
  ASSERT_EQ(resp.status, Status::kOk) << resp.message;
  std::vector<double> counts;
  const ts::Series want = store::cluster_sum(
      full, req.nodes, req.channel, req.range, req.window, &counts);
  EXPECT_TRUE(e2e::series_equal(resp.series, want));
  EXPECT_EQ(resp.counts, counts);
}

/// A power and a GPU-temperature feed partitioned over `n_shards` served
/// stores: the coordinator's node-means roll-up must bit-match
/// store::cluster_sum on one store holding the union, on both channels,
/// on a window that does not divide the range, with requested nodes no
/// shard holds — and every shard answers with a single means leg.
void check_node_means_parity(std::uint64_t seed, std::size_t n_shards) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", shards " +
               std::to_string(n_shards));
  const std::string dir = scratch_dir(
      "node_means_" + std::to_string(seed) + "_" + std::to_string(n_shards));
  const int n_nodes = 10;
  const util::TimeRange span{0, 900};
  auto events = make_events(seed, n_nodes, 6'000, span);
  const auto gpu = make_events(seed + 1, n_nodes, 3'000, span,
                               e2e::kGpuTempChannel);
  events.insert(events.end(), gpu.begin(), gpu.end());

  store::Store full = store::Store::open(dir + "/full", small_segments());
  fill_store(full, events);
  std::vector<store::Store> shards;
  const auto parts = cluster::ShardMap::uniform(n_shards).split(events);
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards.push_back(store::Store::open(dir + "/shard" + std::to_string(s),
                                        small_segments()));
    fill_store(shards.back(), parts[s]);
  }
  std::vector<const store::Store*> stores;
  for (const store::Store& shard : shards) stores.push_back(&shard);
  ServedShards served(stores);

  std::vector<machine::NodeId> nodes;
  for (int n = 0; n < n_nodes; ++n) nodes.push_back(n);
  nodes.push_back(n_nodes + 7);  // held by no shard
  nodes.push_back(3);            // a duplicate counts twice, as unsharded
  for (const int channel : {kPowerChannel, e2e::kGpuTempChannel}) {
    for (const util::TimeSec window : {util::TimeSec{10}, util::TimeSec{13}}) {
      SCOPED_TRACE("channel " + std::to_string(channel) + ", window " +
                   std::to_string(window));
      const Request req = roll_up(nodes, channel, {100, 800}, window);
      Response resp;
      (void)served.legs(req, &resp);  // first contact fetches directories
      expect_roll_up(resp, full, req);
      EXPECT_EQ(resp.stats.lost_segments, 0u);
      EXPECT_EQ(served.legs(req, &resp),
                std::vector<std::uint64_t>(n_shards, 1));
      expect_roll_up(resp, full, req);
    }
  }
}

TEST(NodeMeans, OneShard) { check_node_means_parity(0x1A, 1); }
TEST(NodeMeans, TwoShards) { check_node_means_parity(0x2B, 2); }
TEST(NodeMeans, ThreeShards) { check_node_means_parity(0x3C, 3); }
TEST(NodeMeans, FiveShards) { check_node_means_parity(0x5E, 5); }

TEST(NodeMeans, IdsSplitAcrossShardsFallBackToRawLegs) {
  // RebalanceRig's two stores share ids, as two shards do mid-rebalance:
  // neither shard's mean is the union's, so the coordinator re-runs the
  // roll-up on raw legs and still answers like the unsharded store.
  const RebalanceRig rig = make_rebalance_rig("node_means_split");
  const store::Store a = store::Store::open(rig.root_a, small_segments());
  const store::Store b = store::Store::open(rig.root_b, small_segments());
  const store::Store full =
      store::Store::open(rig.dir + "/full", small_segments());
  ServedShards served({&a, &b});
  const Request req =
      roll_up({0, 1, 2, 3, 4, 5}, kPowerChannel, rig.range, 10);
  Response resp;
  (void)served.legs(req, &resp);
  expect_roll_up(resp, full, req);
  EXPECT_EQ(resp.stats.lost_segments, 0u);
  EXPECT_EQ(served.legs(req, &resp), (std::vector<std::uint64_t>{2, 2}));
  expect_roll_up(resp, full, req);
}

/// A 3-way power feed partition, the union store and the shard stores.
struct Partition {
  explicit Partition(const std::string& name, int n_nodes = 9,
                     std::size_t count = 5'000, util::TimeRange span = {0, 600})
      : dir(scratch_dir(name)),
        full(store::Store::open(dir + "/full", small_segments())) {
    const auto events = make_events(0xF6, n_nodes, count, span);
    fill_store(full, events);
    const auto parts = cluster::ShardMap::uniform(3).split(events);
    for (std::size_t s = 0; s < 3; ++s) {
      shards.push_back(store::Store::open(
          dir + "/shard" + std::to_string(s), small_segments()));
      fill_store(shards.back(), parts[s]);
    }
  }
  [[nodiscard]] std::vector<const store::Store*> stores() const {
    return {&shards[0], &shards[1], &shards[2]};
  }

  std::string dir;
  store::Store full;
  std::vector<store::Store> shards;
};

TEST(NodeMeans, StackedCoordinatorGetsARawLegAndTheAnswerIsUnchanged) {
  Partition p("node_means_stacked");
  e2e::LoopbackServer store0(p.shards[0]);
  e2e::LoopbackServer store1(p.shards[1]);
  e2e::LoopbackServer store2(p.shards[2]);
  // Shard 1 of the outer coordinator is an inner coordinator fronting
  // the served store 1.
  cluster::CoordinatorOptions inner_options;
  inner_options.shards.push_back({"127.0.0.1", store1.server().port()});
  cluster::Coordinator inner(inner_options);
  server::QueryService inner_service(inner.executor());
  e2e::LoopbackServer inner_server(inner_service);
  cluster::CoordinatorOptions options;
  for (e2e::LoopbackServer* s : {&store0, &inner_server, &store2}) {
    options.shards.push_back({"127.0.0.1", s->server().port()});
  }
  cluster::Coordinator outer(options);

  const Request req =
      roll_up({0, 1, 2, 3, 4, 5, 6, 7, 8}, kPowerChannel, {0, 600}, 10);
  Response resp;
  (void)legs_of(outer, req, &resp);  // first contact fetches directories
  expect_roll_up(resp, p.full, req);
  EXPECT_EQ(resp.stats.lost_segments, 0u);
  // Shard 1 is asked for means, answers UNIMPLEMENTED, then gets a raw
  // scan leg.
  EXPECT_EQ(legs_of(outer, req, &resp),
            (std::vector<std::uint64_t>{1, 2, 1}));
  expect_roll_up(resp, p.full, req);
  EXPECT_EQ(resp.stats.lost_segments, 0u);
}

TEST(NodeMeans, ShardDownIsChargedLikeARawScan) {
  Partition p("node_means_shard_down");
  ServedShards served(p.stores());
  std::vector<machine::NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  const Request req = roll_up(nodes, kPowerChannel, {0, 600}, 10);
  Response resp;
  (void)served.legs(req, &resp);  // caches every shard's directory
  expect_roll_up(resp, p.full, req);

  served.stop(1);
  resp = served.coordinator().execute(req, nullptr, 0);
  ASSERT_EQ(resp.status, Status::kOk) << resp.message;
  // The raw path's charge for the same outage: a scan of the same ids.
  Request scan;
  scan.method = Method::kScan;
  scan.range = req.range;
  for (const machine::NodeId n : nodes) {
    scan.metrics.push_back(telemetry::metric_id(n, kPowerChannel));
  }
  const Response raw = served.coordinator().execute(scan, nullptr, 0);
  ASSERT_EQ(raw.status, Status::kOk);
  EXPECT_GT(raw.stats.lost_segments, 0u);
  EXPECT_EQ(resp.stats.lost_segments, raw.stats.lost_segments);
  // The survivors' roll-up, coarsened from exactly what they hold.
  std::vector<ts::StatSeries> per_node;
  for (const store::MetricRun& run : raw.runs) {
    per_node.push_back(ts::coarsen(run.samples, req.window, req.range));
  }
  std::vector<double> counts;
  EXPECT_TRUE(e2e::series_equal(
      resp.series,
      store::reduce_cluster_sum(per_node, req.range, req.window, &counts)));
  EXPECT_EQ(resp.counts, counts);
}

TEST(NodeMeans, WholeMachineRollUpIsNotCappedAtTheScanLimit) {
  // Summit's 4,626 nodes, 60 s: more ids than a raw scan leg may carry.
  const int n_nodes = 4626;
  Partition p("node_means_machine", n_nodes, 20'000, {0, 60});
  std::vector<machine::NodeId> nodes;
  for (int n = 0; n < n_nodes; ++n) nodes.push_back(n);
  const Request req = roll_up(nodes, kPowerChannel, {0, 60}, 10);
  {
    ServedShards served(p.stores());
    expect_roll_up(served.coordinator().execute(req, nullptr, 0), p.full,
                   req);
  }
  // A shard without node means needs raw legs, which keep the cap.
  ServedShards mixed(p.stores(), {2});
  const Response resp = mixed.coordinator().execute(req, nullptr, 0);
  EXPECT_EQ(resp.status, Status::kInvalidArgument);
  EXPECT_EQ(resp.stats.lost_segments, 0u);
}

TEST(ShardStats, FormatPrintsOneRowPerShard) {
  cluster::ShardStats s;
  s.endpoint = "10.0.0.7:4627";
  s.up = false;
  s.calls = 6;
  s.ok = 2;
  s.shed = 1;
  s.deadline_exceeded = 1;
  s.other_errors = 1;
  s.transport_errors = 1;
  s.reconnect_attempts = 3;
  s.reconnect_successes = 2;
  s.latency_us_total = 7'500;  // over 5 completed legs
  s.latency_us_max = 4'250;
  const std::string expected =
      "shard  endpoint       up    calls  ok  shed  deadline  errors  "
      "transport  reconnects  mean ms  max ms\n" +
      std::string(101, '-') +
      "\n"
      "0      10.0.0.7:4627  DOWN  6      2   1     1         1       "
      "1          3/2         1.500    4.250 \n";
  EXPECT_EQ(cluster::format_shard_stats({s}), expected);
}

}  // namespace
