// Fault-matrix suite for the store's graceful-degradation contract: for
// every injectable fault class, recovery loses at most the unsealed tail,
// surviving samples are a subset of the reference feed (never a wrong
// value), and `cluster_sum` over the survivors bit-matches a reference
// archive rebuilt from exactly the surviving events.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "e2e_rig.hpp"
#include "faultfs/fault.hpp"
#include "store/store.hpp"
#include "stream/alerts.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/archive.hpp"
#include "unmapped_vfs.hpp"
#include "util/rng.hpp"

namespace {

using namespace exawatt;
using e2e::is_subset;
using e2e::scratch_dir;
using e2e::UnmappedVfs;
namespace fs = std::filesystem;

// Every read-fault case names the tier it covers. A store reads through
// mapped views by default: opening claims one read op per segment (the
// map) and queries claim none, so faults armed after open never reach
// it. Cases about per-block read faults or unlink-as-loss therefore run
// on the buffered tier — a FaultVfs stacked on UnmappedVfs, whose map()
// refuses — and the mapped tier gets its own cases where it differs.

// ------------------------------------------------------------- fixtures

constexpr int kChannel = 3;
const std::vector<machine::NodeId> kNodes{0, 1, 2, 3};
constexpr util::TimeRange kWindow{0, 600};

/// Deterministic per-second feed for a small node set, chunked into
/// batches the way the pipeline hands them to the store.
std::vector<std::vector<telemetry::MetricEvent>> make_batches() {
  util::Rng rng(0xFA017ULL);
  std::vector<std::vector<telemetry::MetricEvent>> batches;
  std::vector<telemetry::MetricEvent> batch;
  for (util::TimeSec t = kWindow.begin; t < kWindow.end; ++t) {
    for (const machine::NodeId node : kNodes) {
      batch.push_back({telemetry::metric_id(node, kChannel), t,
                       static_cast<std::int32_t>(rng.uniform_index(40'000))});
      if (batch.size() == 256) {
        batches.push_back(std::move(batch));
        batch.clear();
      }
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

/// The in-memory truth the store must never contradict.
telemetry::Archive make_reference(
    const std::vector<std::vector<telemetry::MetricEvent>>& batches) {
  telemetry::Archive archive;
  for (const auto& b : batches) archive.append(b);
  return archive;
}

store::StoreOptions small_segments() {
  store::StoreOptions options;
  options.segment_events = 1 << 10;  // several seals from a 2400-event feed
  return options;
}

/// Replay the batches into `dir` through `vfs`; false when an injected
/// fault killed the run before the final flush (the Store destructor's
/// best-effort salvage has already run by the time this returns).
bool feed(const std::string& dir,
          const std::vector<std::vector<telemetry::MetricEvent>>& batches,
          util::Vfs* vfs = nullptr, util::Clock* clock = nullptr) {
  fs::remove_all(dir);
  store::StoreOptions options = small_segments();
  options.vfs = vfs;
  options.clock = clock;
  try {
    store::Store store = store::Store::open(dir, options);
    for (const auto& batch : batches) store.append(batch);
    store.flush();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// The recovery invariant, checked after any fault schedule: reopen on
/// the real filesystem, require survivors ⊆ reference, and require the
/// store roll-up to bit-match an archive rebuilt from the survivors.
/// Returns the surviving event count (reference total = 2400).
std::uint64_t verify_recovery(const std::string& dir,
                              const telemetry::Archive& reference) {
  store::Store store = store::Store::open(dir, small_segments());
  telemetry::Archive survivors;
  std::vector<telemetry::MetricEvent> events;
  std::uint64_t total = 0;
  for (const telemetry::MetricId id : store.metrics()) {
    const auto disk = store.query(id, kWindow);
    EXPECT_TRUE(is_subset(disk, reference.query(id, kWindow)))
        << "metric " << id << " holds samples the feed never produced";
    total += disk.size();
    for (const auto& s : disk) {
      events.push_back({id, s.t, static_cast<std::int32_t>(s.value)});
    }
  }
  if (!events.empty()) survivors.append(std::move(events));

  const auto disk_sum =
      store::cluster_sum(store, kNodes, kChannel, kWindow);
  const auto ref_sum =
      telemetry::cluster_sum(survivors, kNodes, kChannel, kWindow);
  EXPECT_EQ(disk_sum.size(), ref_sum.size()) << dir;
  for (std::size_t w = 0; w < disk_sum.size() && w < ref_sum.size(); ++w) {
    EXPECT_EQ(disk_sum[w], ref_sum[w])
        << "cluster_sum diverges from surviving events at window " << w;
    if (disk_sum[w] != ref_sum[w]) break;
  }
  return total;
}

/// Index of the write-side op whose journal line starts with `kind` and
/// mentions `needle`, from a fault-free rehearsal — how a schedule aims
/// at "the manifest rename" or "a segment body write" without hard-coding
/// op numbers. `last` picks the final match instead of the first.
std::uint64_t find_op(const std::vector<std::string>& journal,
                      const std::string& kind, const std::string& needle,
                      bool last = false) {
  std::uint64_t found = 0;
  bool any = false;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    if (journal[i].rfind(kind, 0) == 0 &&
        journal[i].find(needle) != std::string::npos) {
      found = static_cast<std::uint64_t>(i);
      any = true;
      if (!last) break;
    }
  }
  if (!any) ADD_FAILURE() << "no journalled op matches: " << kind << needle;
  return found;
}

std::uint64_t total_events(const telemetry::Archive& a) {
  return a.total_events();
}

// ---------------------------------------------------------- fault matrix

TEST(FaultMatrix, ShortWriteTearsSegmentRecoveryDropsOnlyTail) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_short_write");

  // Rehearsal numbers the write points; aim a torn write at a segment
  // body write. The crash one op later is a guard: if a future seal path
  // retries past the tear, it dies instead of quietly repairing the
  // damage before we look at the disk.
  faultfs::FaultVfs rehearsal(util::Vfs::real());
  ASSERT_TRUE(feed(dir, batches, &rehearsal));
  const auto journal = rehearsal.write_journal();
  const std::uint64_t seg_write = find_op(journal, "write ", ".seg");

  faultfs::FaultVfs chaos(util::Vfs::real(),
                          faultfs::FaultPlan()
                              .short_write(seg_write, 7)
                              .crash_at_write(seg_write + 1));
  ASSERT_FALSE(feed(dir, batches, &chaos));
  ASSERT_GE(chaos.stats().injected, 1u);

  store::Store reopened = store::Store::open(dir, small_segments());
  EXPECT_FALSE(reopened.recovery().clean());
  const auto survived = verify_recovery(dir, reference);
  EXPECT_LT(survived, total_events(reference));
}

TEST(FaultMatrix, EnospcSurfacesAsStoreErrorNotCorruption) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_enospc");

  faultfs::FaultVfs rehearsal(util::Vfs::real());
  ASSERT_TRUE(feed(dir, batches, &rehearsal));
  const std::uint64_t seg_write =
      find_op(rehearsal.write_journal(), "write ", ".seg");

  fs::remove_all(dir);
  store::StoreOptions options = small_segments();
  faultfs::FaultVfs chaos(util::Vfs::real(),
                          faultfs::FaultPlan().enospc_at(seg_write));
  options.vfs = &chaos;
  bool threw = false;
  {
    store::Store store = store::Store::open(dir, options);
    try {
      for (const auto& batch : batches) store.append(batch);
      store.flush();
    } catch (const store::StoreError& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("no space"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(threw);
  verify_recovery(dir, reference);
}

TEST(FaultMatrix, TransientOutageIsRetriedAndLosesNothing) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_transient");

  faultfs::FaultVfs rehearsal(util::Vfs::real());
  ASSERT_TRUE(feed(dir, batches, &rehearsal));
  const std::uint64_t seg_write =
      find_op(rehearsal.write_journal(), "write ", ".seg");

  // One transient blip mid-seal: the store's backoff policy must absorb
  // it — on the injected clock, so the test itself never sleeps.
  util::ManualClock clock;
  faultfs::FaultVfs chaos(
      util::Vfs::real(),
      faultfs::FaultPlan().fail_write(seg_write, /*transient=*/true), &clock);
  ASSERT_TRUE(feed(dir, batches, &chaos, &clock));
  EXPECT_EQ(chaos.stats().injected, 1u);
  ASSERT_FALSE(clock.sleeps().empty());
  EXPECT_GT(clock.sleeps().front(), 0);

  EXPECT_EQ(verify_recovery(dir, reference), total_events(reference));
  store::Store reopened = store::Store::open(dir, small_segments());
  EXPECT_TRUE(reopened.recovery().clean());
}

TEST(FaultMatrix, CrashBetweenSealAndManifestRenameAdoptsOrphan) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_orphan");

  faultfs::FaultVfs rehearsal(util::Vfs::real());
  ASSERT_TRUE(feed(dir, batches, &rehearsal));
  // The last MANIFEST.tmp create is the replace that would have listed
  // the final sealed segment: dying right there leaves a sealed orphan.
  const std::uint64_t manifest_create = find_op(
      rehearsal.write_journal(), "create ", "MANIFEST.tmp", /*last=*/true);

  faultfs::FaultVfs chaos(
      util::Vfs::real(),
      faultfs::FaultPlan().crash_at_write(manifest_create));
  ASSERT_FALSE(feed(dir, batches, &chaos));

  store::Store reopened = store::Store::open(dir, small_segments());
  EXPECT_GE(reopened.recovery().adopted_orphans, 1u);
  // The orphan was fully sealed, so adoption recovers the entire feed.
  EXPECT_EQ(verify_recovery(dir, reference), total_events(reference));
}

TEST(FaultMatrix, DelayedManifestReplaceOnlyStallsTheInjectedClock) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_slow_manifest");

  faultfs::FaultVfs rehearsal(util::Vfs::real());
  ASSERT_TRUE(feed(dir, batches, &rehearsal));
  const std::uint64_t manifest_rename = find_op(
      rehearsal.write_journal(), "rename ", "MANIFEST", /*last=*/true);

  constexpr std::int64_t kStallUs = 30'000'000;  // 30 s — never for real
  util::ManualClock clock;
  faultfs::FaultVfs chaos(
      util::Vfs::real(),
      faultfs::FaultPlan().delay_write(manifest_rename, kStallUs), &clock);
  ASSERT_TRUE(feed(dir, batches, &chaos, &clock));
  ASSERT_EQ(clock.sleeps().size(), 1u);
  EXPECT_EQ(clock.sleeps().front(), kStallUs);
  EXPECT_EQ(verify_recovery(dir, reference), total_events(reference));
}

TEST(FaultMatrix, BitFlipOnReadDegradesThenHealsWhenFaultClears) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_bitflip");
  ASSERT_TRUE(feed(dir, batches));

  // Buffered tier. Open clean, then arm a flip on every later read: the
  // block CRCs must convert silent corruption into counted, skipped blocks.
  UnmappedVfs buffered;
  faultfs::FaultVfs flippy(buffered);
  store::StoreOptions options = small_segments();
  options.vfs = &flippy;
  store::Store store = store::Store::open(dir, options);
  ASSERT_TRUE(store.recovery().clean());
  flippy.set_plan(faultfs::FaultPlan().flip_bits_on_reads_from(
      flippy.stats().read_ops, 11));

  std::uint64_t returned = 0;
  bool degraded = false;
  for (const telemetry::MetricId id : store.metrics()) {
    store::QueryStats stats;
    const auto disk = store.query(id, kWindow, &stats);
    EXPECT_TRUE(is_subset(disk, reference.query(id, kWindow)));
    returned += disk.size();
    degraded = degraded || stats.degraded();
  }
  EXPECT_GE(flippy.stats().injected, 1u);
  EXPECT_TRUE(degraded);
  EXPECT_LT(returned, total_events(reference));

  // Clear the schedule: the data on disk was never touched, so the same
  // store object reads everything back intact.
  flippy.set_plan({});
  std::uint64_t healed = 0;
  for (const telemetry::MetricId id : store.metrics()) {
    store::QueryStats stats;
    healed += store.query(id, kWindow, &stats).size();
    EXPECT_FALSE(stats.degraded());
  }
  EXPECT_EQ(healed, total_events(reference));
}

TEST(FaultMatrix, WarmBlockCacheServesQueriesThroughReadFaults) {
  const auto batches = make_batches();
  const std::string dir = scratch_dir("faults_warm_cache");
  ASSERT_TRUE(feed(dir, batches));

  // Buffered tier: the cold contrast store must hit per-block reads.
  UnmappedVfs buffered;
  faultfs::FaultVfs flippy(buffered);
  store::StoreOptions cached_options = small_segments();
  cached_options.vfs = &flippy;
  store::StoreOptions cold_options = cached_options;
  cold_options.cache_bytes = 0;  // contrast store: every scan hits disk
  store::Store warm = store::Store::open(dir, cached_options);
  store::Store cold = store::Store::open(dir, cold_options);
  ASSERT_TRUE(warm.recovery().clean());

  // Warm the decoded-block cache, then poison every later disk read.
  std::map<telemetry::MetricId, std::vector<ts::Sample>> clean;
  for (const telemetry::MetricId id : warm.metrics()) {
    clean[id] = warm.query(id, kWindow);
  }
  const auto clean_sum = warm.window_sum(
      telemetry::metric_id(kNodes.front(), kChannel), kWindow, 10);
  flippy.set_plan(faultfs::FaultPlan().flip_bits_on_reads_from(
      flippy.stats().read_ops, 7));

  // The warm store never touches the faulted disk: full results, zero
  // degradation, every block a cache hit.
  for (const auto& [id, reference] : clean) {
    store::QueryStats stats;
    const auto got = warm.query(id, kWindow, &stats);
    EXPECT_FALSE(stats.degraded());
    EXPECT_GT(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, 0u);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t, reference[i].t);
      EXPECT_EQ(got[i].value, reference[i].value);
    }
  }
  store::QueryStats sum_stats;
  const auto warm_sum =
      warm.window_sum(telemetry::metric_id(kNodes.front(), kChannel),
                      kWindow, 10, nullptr, &sum_stats);
  EXPECT_FALSE(sum_stats.degraded());
  EXPECT_EQ(warm_sum.sum, clean_sum.sum);
  EXPECT_EQ(warm_sum.count, clean_sum.count);

  // The cold store sees the same faults and must degrade loudly.
  bool degraded = false;
  for (const auto& [id, reference] : clean) {
    store::QueryStats stats;
    const auto got = cold.query(id, kWindow, &stats);
    EXPECT_TRUE(is_subset(got, reference));
    degraded = degraded || stats.degraded();
  }
  EXPECT_GE(flippy.stats().injected, 1u);
  EXPECT_TRUE(degraded);
}

TEST(DegradedQueries, WindowSumRollsBackDamagedBlocksWhole) {
  const auto batches = make_batches();
  const std::string dir = scratch_dir("faults_window_sum");
  ASSERT_TRUE(feed(dir, batches));

  // Buffered tier: every block of the scan is a faultable read_range.
  UnmappedVfs buffered;
  faultfs::FaultVfs flippy(buffered);
  store::StoreOptions options = small_segments();
  options.vfs = &flippy;
  options.cache_bytes = 0;
  store::Store store = store::Store::open(dir, options);
  const telemetry::MetricId id = telemetry::metric_id(kNodes[1], kChannel);
  const auto clean = store.window_sum(id, kWindow, 10);

  flippy.set_plan(faultfs::FaultPlan().flip_bits_on_reads_from(
      flippy.stats().read_ops, 3));
  store::QueryStats stats;
  const auto damaged = store.window_sum(id, kWindow, 10, nullptr, &stats);
  EXPECT_GE(flippy.stats().injected, 1u);
  EXPECT_TRUE(stats.degraded());
  // Partial sums never leak: every window's contribution is either the
  // full clean value or absent — here every block fails, so the grid is
  // all zero (and strictly below the clean totals).
  for (std::size_t w = 0; w < damaged.size(); ++w) {
    EXPECT_LE(damaged.count[w], clean.count[w]);
    if (damaged.count[w] == clean.count[w]) {
      EXPECT_EQ(damaged.sum[w], clean.sum[w]);
    } else {
      EXPECT_LE(std::abs(damaged.sum[w]), std::abs(clean.sum[w]));
    }
  }

  // Like query(), window_sum degrades rather than throws even without a
  // stats out-param — stats only adds attribution.
  const auto silent = store.window_sum(id, kWindow, 10);
  EXPECT_EQ(silent.sum, damaged.sum);
  EXPECT_EQ(silent.count, damaged.count);
}

// ------------------------------------------------------- degraded queries

TEST(DegradedQueries, LostSegmentShrinksResultsInsteadOfThrowing) {
  const auto batches = make_batches();
  const std::string dir = scratch_dir("faults_lost_segment");
  ASSERT_TRUE(feed(dir, batches));

  // Buffered tier: only an unmapped reader loses its file to an unlink.
  UnmappedVfs buffered;
  store::StoreOptions options = small_segments();
  options.vfs = &buffered;
  store::Store store = store::Store::open(dir, options);
  ASSERT_GE(store.sealed_segments(), 2u);
  const auto ids = store.metrics();

  // Delete every sealed segment behind the live store's back.
  for (const std::string& name : util::Vfs::real().list(dir)) {
    if (name.ends_with(".seg")) util::Vfs::real().remove(dir + "/" + name);
  }

  store::QueryStats stats;
  const auto run = store.query(ids.front(), kWindow, &stats);
  EXPECT_TRUE(run.empty());
  EXPECT_TRUE(stats.degraded());
  EXPECT_GE(stats.lost_segments, 1u);

  store::QueryStats many_stats;
  const auto runs = store.query_many(ids, kWindow, nullptr, &many_stats);
  ASSERT_EQ(runs.size(), ids.size());
  for (const auto& r : runs) EXPECT_TRUE(r.samples.empty());
  EXPECT_TRUE(many_stats.degraded());

  store::QueryStats sum_stats;
  const auto sum = store::cluster_sum(store, kNodes, kChannel, kWindow, 10,
                                      nullptr, nullptr, &sum_stats);
  EXPECT_TRUE(sum_stats.degraded());
  for (std::size_t w = 0; w < sum.size(); ++w) EXPECT_EQ(sum[w], 0.0);
}

// The mapped twin: a view outlives the unlink of its path (how compaction
// retires inputs under live queries), so the same deletion costs nothing.
TEST(DegradedQueries, UnlinkUnderMappedStoreIsNotALoss) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_unlink_mapped");
  ASSERT_TRUE(feed(dir, batches));

  store::Store store = store::Store::open(dir, small_segments());
  ASSERT_GE(store.sealed_segments(), 2u);
  const auto ids = store.metrics();
  for (const std::string& name : util::Vfs::real().list(dir)) {
    if (name.ends_with(".seg")) util::Vfs::real().remove(dir + "/" + name);
  }

  std::uint64_t returned = 0;
  for (const telemetry::MetricId id : ids) {
    store::QueryStats stats;
    const auto run = store.query(id, kWindow, &stats);
    const auto ref = reference.query(id, kWindow);
    EXPECT_EQ(run.size(), ref.size()) << "metric " << id;
    EXPECT_TRUE(is_subset(run, ref)) << "metric " << id;
    EXPECT_FALSE(stats.degraded());
    EXPECT_EQ(stats.lost_segments, 0u);
    EXPECT_EQ(stats.cold_blocks, 0u);
    returned += run.size();
  }
  EXPECT_EQ(returned, total_events(reference));

  store::QueryStats sum_stats;
  const auto sum = store::cluster_sum(store, kNodes, kChannel, kWindow, 10,
                                      nullptr, nullptr, &sum_stats);
  EXPECT_EQ(sum_stats.lost_segments, 0u);
  EXPECT_FALSE(sum_stats.degraded());
  EXPECT_TRUE(e2e::series_equal(
      sum, telemetry::cluster_sum(reference, kNodes, kChannel, kWindow, 10)));
}

// ---------------------------------------------------------- property test

// Under ANY seeded read-side fault schedule, queries may return fewer
// samples (flagged degraded) but never a sample the feed did not produce.
// On failure the seed and the full schedule print for replay. Buffered
// tier: the faults land on the per-block reads of the queries.
TEST(FaultProperty, RandomReadFaultsNeverCorruptQueries) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_property");
  ASSERT_TRUE(feed(dir, batches));

  UnmappedVfs buffered;
  std::uint64_t injected = 0;
  bool degraded = false;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::ManualClock clock;  // delay faults must not really sleep
    faultfs::FaultVfs chaos(buffered, {}, &clock);
    store::StoreOptions options = small_segments();
    options.vfs = &chaos;
    options.clock = &clock;
    store::Store store = store::Store::open(dir, options);
    ASSERT_TRUE(store.recovery().clean()) << "seed " << seed;

    const auto plan = faultfs::FaultPlan::random_reads(
        seed, 8, chaos.stats().read_ops + 64);
    SCOPED_TRACE("seed " + std::to_string(seed) + " plan:\n" +
                 plan.describe());
    chaos.set_plan(plan);

    for (const telemetry::MetricId id : store.metrics()) {
      store::QueryStats stats;
      std::vector<ts::Sample> disk;
      ASSERT_NO_THROW(disk = store.query(id, kWindow, &stats));
      const auto ref = reference.query(id, kWindow);
      ASSERT_TRUE(is_subset(disk, ref)) << "metric " << id;
      if (disk.size() != ref.size()) {
        EXPECT_TRUE(stats.degraded()) << "metric " << id;
      }
      degraded = degraded || stats.degraded();
    }
    injected += chaos.stats().injected;
  }
  EXPECT_GE(injected, 1u);
  EXPECT_TRUE(degraded);
}

// The mapped twin: faults armed before open land on the manifest read and
// on each segment's map. A failed map falls back to buffered reads (which
// later faults may hit); a flipped map hands out a damaged view. Either
// way no query may return a sample the feed did not produce, and every
// missing sample is accounted — dropped at open by recovery, or counted
// by the query. Each seed opens a fresh copy, since recovery sets
// damaged segments aside on disk.
TEST(FaultProperty, RandomMapFaultsAtOpenNeverCorruptQueries) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_property_mapped");
  const std::string pristine = dir + "/pristine";
  const std::string root = dir + "/store";
  ASSERT_TRUE(feed(pristine, batches));

  // A clean open claims one read op for the manifest and one map per
  // segment, and no header/trailer/footer reads.
  std::uint64_t open_ops = 0;
  {
    faultfs::FaultVfs counting(util::Vfs::real());
    store::StoreOptions options = small_segments();
    options.vfs = &counting;
    const store::Store store = store::Store::open(pristine, options);
    open_ops = counting.stats().read_ops;
    ASSERT_EQ(open_ops, 1 + store.sealed_segments());
  }

  std::uint64_t injected = 0;
  bool lost = false;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    fs::remove_all(root);
    fs::copy(pristine, root);
    const auto plan = faultfs::FaultPlan::random_reads(seed, 8, open_ops);
    SCOPED_TRACE("seed " + std::to_string(seed) + " plan:\n" +
                 plan.describe());
    util::ManualClock clock;
    faultfs::FaultVfs chaos(util::Vfs::real(), plan, &clock);
    store::StoreOptions options = small_segments();
    options.vfs = &chaos;
    options.clock = &clock;
    std::optional<store::Store> store;
    ASSERT_NO_THROW(store.emplace(store::Store::open(root, options)));
    const bool dropped = store->recovery().dropped_corrupt > 0;

    for (const telemetry::MetricId id : store->metrics()) {
      store::QueryStats stats;
      std::vector<ts::Sample> disk;
      ASSERT_NO_THROW(disk = store->query(id, kWindow, &stats));
      const auto ref = reference.query(id, kWindow);
      ASSERT_TRUE(is_subset(disk, ref)) << "metric " << id;
      if (disk.size() != ref.size()) {
        EXPECT_TRUE(stats.degraded() || dropped) << "metric " << id;
        lost = true;
      }
    }
    injected += chaos.stats().injected;
  }
  EXPECT_GE(injected, 1u);
  EXPECT_TRUE(lost);
}

// --------------------------------------------------------- alert surface

TEST(IngestDropAlert, RaisesOnFirstSheddingAndClearsWhenStable) {
  stream::AlertEngine engine;
  engine.on_ingest_drops(10, 0);  // quiet baseline
  EXPECT_EQ(engine.raised(stream::AlertKind::kIngestDrops), 0u);

  engine.on_ingest_drops(11, 5);  // first shed: raise with the delta
  EXPECT_EQ(engine.raised(stream::AlertKind::kIngestDrops), 1u);
  EXPECT_EQ(engine.active(stream::AlertKind::kIngestDrops), 1u);
  ASSERT_FALSE(engine.log().empty());
  EXPECT_EQ(engine.log().back().kind, stream::AlertKind::kIngestDrops);
  EXPECT_TRUE(engine.log().back().raised);
  EXPECT_EQ(engine.log().back().value, 5.0);
  EXPECT_NE(engine.log().back().describe().find("ingest"),
            std::string::npos);

  engine.on_ingest_drops(12, 9);  // still shedding: latched, no re-raise
  EXPECT_EQ(engine.raised(stream::AlertKind::kIngestDrops), 1u);
  EXPECT_EQ(engine.active(stream::AlertKind::kIngestDrops), 1u);

  engine.on_ingest_drops(13, 9);  // stable counter: clear
  EXPECT_EQ(engine.raised(stream::AlertKind::kIngestDrops), 1u);
  EXPECT_EQ(engine.active(stream::AlertKind::kIngestDrops), 0u);
  EXPECT_FALSE(engine.log().back().raised);

  engine.on_ingest_drops(14, 12);  // shedding resumes: a second raise
  EXPECT_EQ(engine.raised(stream::AlertKind::kIngestDrops), 2u);
  EXPECT_EQ(engine.log().back().value, 3.0);
}

// ------------------------------------------------------- warm-tier faults

// SegmentReader ctor read-side op numbering: the map attempt (0); only if
// it fails do the buffered header (1), trailer (2) and footer (3) follow.
constexpr std::uint64_t kMapOp = 0;

TEST(WarmTierFaults, MapFailureFallsBackToBufferedReads) {
  const auto batches = make_batches();
  const std::string dir = scratch_dir("faults_map_fail");
  ASSERT_TRUE(feed(dir, batches));
  std::string seg;
  {
    store::Store st = store::Store::open(dir, small_segments());
    ASSERT_FALSE(st.directory().empty());
    seg = dir + "/" + st.directory().front().file;
  }
  store::SegmentReader clean(seg);
  ASSERT_TRUE(clean.mapped());

  faultfs::FaultVfs vfs(util::Vfs::real(),
                        faultfs::FaultPlan().fail_read(kMapOp));
  store::SegmentReader reader(seg, &vfs);
  EXPECT_FALSE(reader.mapped());  // the tier refused, the open did not
  EXPECT_EQ(vfs.stats().injected, 1u);
  EXPECT_EQ(vfs.stats().read_ops, 4u);  // map + header, trailer, footer
  for (const auto& b : reader.blocks()) {
    // Buffered fallback serves the identical events the mapping would.
    const auto got = reader.read_block(b);
    const auto want = clean.read_block(b);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].t, want[i].t);
      EXPECT_EQ(got[i].value, want[i].value);
    }
  }
}

TEST(WarmTierFaults, BitFlipOnMappedViewIsCaughtByBlockCrc) {
  const auto batches = make_batches();
  const std::string dir = scratch_dir("faults_map_flip");
  ASSERT_TRUE(feed(dir, batches));
  std::string seg;
  {
    store::Store st = store::Store::open(dir, small_segments());
    ASSERT_FALSE(st.directory().empty());
    seg = dir + "/" + st.directory().front().file;
  }
  store::SegmentReader probe(seg);  // clean, to aim the flip
  ASSERT_FALSE(probe.blocks().empty());
  const store::BlockMeta target = probe.blocks().front();

  // Flip the first bit of the first block inside the mapped copy: the
  // mapping succeeds, but every read of that block must fail its CRC.
  faultfs::FaultVfs vfs(
      util::Vfs::real(),
      faultfs::FaultPlan().flip_bit_on_read(kMapOp, target.offset * 8));
  store::SegmentReader reader(seg, &vfs);
  ASSERT_TRUE(reader.mapped());
  EXPECT_EQ(vfs.stats().injected, 1u);
  EXPECT_THROW((void)reader.read_block(target), store::StoreError);

  // The degraded path skips the damaged block, counts it, and still
  // attributes the read to the warm tier.
  store::QueryStats stats;
  std::vector<ts::Sample> out;
  reader.scan(target.id, reader.bounds(), out, &stats);
  EXPECT_GE(stats.lost_blocks, 1u);
  EXPECT_GE(stats.warm_blocks, 1u);
  EXPECT_EQ(stats.cold_blocks, 0u);
  std::vector<ts::Sample> full;
  probe.scan(target.id, probe.bounds(), full);
  EXPECT_TRUE(is_subset(out, full));
  EXPECT_LT(out.size(), full.size());  // the damaged block is missing

  // The flip lived only in the mapping's private copy — the base file is
  // intact and a fresh reader serves the block clean.
  store::SegmentReader fresh(seg);
  EXPECT_EQ(fresh.read_block(target).size(), target.events);
}

// ------------------------------------------------------ compaction faults

TEST(CompactionFaults, CrashEitherSideOfTheFlipLosesNoCommittedEvent) {
  const auto batches = make_batches();
  const auto reference = make_reference(batches);
  const std::string dir = scratch_dir("faults_compact_crash");

  auto compact_through = [&](util::Vfs* vfs) {
    store::StoreOptions options = small_segments();
    options.vfs = vfs;
    store::Store st = store::Store::open(dir, options);
    store::CompactionOptions copts;
    copts.small_segment_events = 1 << 20;  // merge everything
    return st.compact(copts);
  };

  // Rehearsal numbers the compaction's write points on a clean copy.
  ASSERT_TRUE(feed(dir, batches));
  faultfs::FaultVfs rehearsal(util::Vfs::real());
  const auto clean_report = compact_through(&rehearsal);
  ASSERT_GE(clean_report.rounds, 1u);
  const auto journal = rehearsal.write_journal();
  const auto incoming_write = find_op(journal, "write ", ".incoming");
  const auto flip_rename = find_op(journal, "rename ", ".incoming",
                                   /*last=*/true);

  // Crash mid-copy (before the flip): the journal is still `copying`,
  // recovery rolls back, and every event is where it was.
  ASSERT_TRUE(feed(dir, batches));
  faultfs::FaultVfs chaos_copy(
      util::Vfs::real(),
      faultfs::FaultPlan().crash_at_write(incoming_write));
  EXPECT_THROW((void)compact_through(&chaos_copy), store::StoreError);
  {
    store::Store st = store::Store::open(dir, small_segments());
    EXPECT_EQ(st.recovery().compactions_rolled_back, 1u);
    EXPECT_EQ(st.recovery().compactions_finished, 0u);
  }
  EXPECT_EQ(verify_recovery(dir, reference), 2400u);

  // Crash at the incoming→final rename (just past the flip): the journal
  // committed, recovery rolls forward to the merged output.
  ASSERT_TRUE(feed(dir, batches));
  faultfs::FaultVfs chaos_flip(
      util::Vfs::real(), faultfs::FaultPlan().crash_at_write(flip_rename));
  EXPECT_THROW((void)compact_through(&chaos_flip), store::StoreError);
  {
    store::Store st = store::Store::open(dir, small_segments());
    EXPECT_EQ(st.recovery().compactions_finished, 1u);
    EXPECT_EQ(st.recovery().compactions_rolled_back, 0u);
  }
  EXPECT_EQ(verify_recovery(dir, reference), 2400u);
}

}  // namespace
