#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "e2e_rig.hpp"
#include "faultfs/fault.hpp"
#include "store/manifest.hpp"
#include "store/segment.hpp"
#include "store/store.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/archive.hpp"
#include "telemetry/codec.hpp"
#include "unmapped_vfs.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace exawatt;
using e2e::scratch_dir;
using e2e::UnmappedVfs;
namespace fs = std::filesystem;

// ------------------------------------------------------------- fixtures

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

/// Seeded synthetic batch: out-of-order times, a handful of metrics, value
/// collisions on purpose (equal t across metrics is the normal case).
std::vector<telemetry::MetricEvent> random_batch(util::Rng& rng,
                                                 util::TimeRange range,
                                                 std::size_t events,
                                                 std::uint32_t metrics) {
  std::vector<telemetry::MetricEvent> batch(events);
  for (auto& ev : batch) {
    ev.id = static_cast<telemetry::MetricId>(rng.uniform_index(metrics));
    ev.t = range.begin + static_cast<util::TimeSec>(rng.uniform_index(
                             static_cast<std::uint64_t>(range.duration())));
    ev.value = static_cast<std::int32_t>(rng.uniform_index(1000)) - 500;
  }
  return batch;
}

/// The two read tiers a segment can be opened on: the default mapped view
/// (nullptr = the real filesystem) and the buffered fallback a failed map
/// takes. Damage checks must hold on both.
struct Tier {
  const char* name;
  util::Vfs* vfs;
};

std::vector<Tier> read_tiers() {
  static UnmappedVfs buffered;
  return {{"mapped", nullptr}, {"buffered", &buffered}};
}

bool sample_less(const ts::Sample& a, const ts::Sample& b) {
  return a.t < b.t || (a.t == b.t && a.value < b.value);
}

bool sample_eq(const ts::Sample& a, const ts::Sample& b) {
  return a.t == b.t && a.value == b.value;
}

/// Equality up to same-timestamp ordering: the archive and the store both
/// return time-sorted samples but make no promise about tie order.
void expect_same_samples(std::vector<ts::Sample> a, std::vector<ts::Sample> b,
                         const std::string& what) {
  std::sort(a.begin(), a.end(), sample_less);
  std::sort(b.begin(), b.end(), sample_less);
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(sample_eq(a[i], b[i]))
        << what << " diverges at sample " << i << ": (" << a[i].t << ", "
        << a[i].value << ") vs (" << b[i].t << ", " << b[i].value << ")";
  }
}

// ----------------------------------------------------------------- crc32

TEST(Crc32, KnownAnswer) {
  // The CRC-32/IEEE check value for "123456789".
  EXPECT_EQ(util::crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(util::crc32(std::string_view("")), 0u);
}

TEST(Crc32, Incremental) {
  const std::string s = "exawatt telemetry store";
  const auto whole = util::crc32(std::string_view(s));
  const auto head = util::crc32(std::string_view(s).substr(0, 7));
  EXPECT_EQ(util::crc32(std::string_view(s).substr(7), head), whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(128, 0x5A);
  const auto before = util::crc32(data);
  data[64] ^= 0x01;
  EXPECT_NE(util::crc32(data), before);
}

// ---------------------------------------------------------------- footer

TEST(Format, FooterRoundTrip) {
  std::vector<store::BlockMeta> blocks;
  for (std::uint32_t i = 0; i < 17; ++i) {
    store::BlockMeta b;
    b.id = 100 * i + 3;
    b.offset = 16 + 1000 * i;
    b.size = 900 + i;
    b.events = 4096;
    b.t_min = -5 + static_cast<util::TimeSec>(i) * util::kHour;
    b.t_max = b.t_min + util::kHour - 1;
    b.crc = 0xDEAD0000u + i;
    blocks.push_back(b);
  }
  const auto payload = store::encode_footer(blocks);
  const auto parsed = store::parse_footer(payload);
  ASSERT_EQ(parsed.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(parsed[i].id, blocks[i].id);
    EXPECT_EQ(parsed[i].offset, blocks[i].offset);
    EXPECT_EQ(parsed[i].size, blocks[i].size);
    EXPECT_EQ(parsed[i].events, blocks[i].events);
    EXPECT_EQ(parsed[i].t_min, blocks[i].t_min);
    EXPECT_EQ(parsed[i].t_max, blocks[i].t_max);
    EXPECT_EQ(parsed[i].crc, blocks[i].crc);
  }
}

TEST(Format, FooterRejectsTruncationAtEveryLength) {
  std::vector<store::BlockMeta> blocks(3);
  blocks[0] = {7, 16, 100, 50, 0, 99, 0x1111};
  blocks[1] = {7, 116, 100, 50, 100, 199, 0x2222};
  blocks[2] = {9, 216, 100, 50, 0, 199, 0x3333};
  const auto payload = store::encode_footer(blocks);
  for (std::size_t len = 1; len < payload.size(); ++len) {
    EXPECT_THROW(
        (void)store::parse_footer(
            std::span<const std::uint8_t>(payload.data(), len)),
        store::StoreError)
        << "truncated to " << len << " of " << payload.size();
  }
  EXPECT_THROW((void)store::parse_footer(std::span<const std::uint8_t>()),
               store::StoreError);
}

// --------------------------------------------------------------- segment

TEST(Segment, RoundTripOutOfOrderEvents) {
  const auto dir = scratch_dir("seg_roundtrip");
  const std::string path = dir + "/seg.seg";
  util::Rng rng(1);
  const auto batch = random_batch(rng, {0, util::kHour}, 5000, 8);

  store::SegmentWriter writer(path, 0, /*block_events=*/256);
  writer.add(batch);
  const auto meta = writer.seal();
  EXPECT_EQ(meta.events, batch.size());
  EXPECT_GT(meta.bytes, 0u);

  store::SegmentReader reader(path);
  EXPECT_EQ(reader.events(), batch.size());
  // With 5000 events over 8 metrics at block_events=256, every metric
  // spans multiple blocks — the multi-block path is exercised.
  EXPECT_GT(reader.blocks().size(), 8u);

  std::map<telemetry::MetricId, std::vector<ts::Sample>> expect;
  for (const auto& ev : batch) {
    expect[ev.id].push_back({ev.t, static_cast<double>(ev.value)});
  }
  for (auto& [id, samples] : expect) {
    std::vector<ts::Sample> got;
    reader.scan(id, {0, util::kHour}, got);
    expect_same_samples(samples, got, "metric " + std::to_string(id));
    // Store contract: scans come back time-sorted.
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                               [](const ts::Sample& a, const ts::Sample& b) {
                                 return a.t < b.t;
                               }));
  }
}

TEST(Segment, PredicatePushdownMatchesFullScanFilter) {
  const auto dir = scratch_dir("seg_pushdown");
  const std::string path = dir + "/seg.seg";
  util::Rng rng(2);
  const auto batch = random_batch(rng, {0, 4 * util::kHour}, 8000, 4);
  store::SegmentWriter writer(path, 0, 128);
  writer.add(batch);
  (void)writer.seal();
  store::SegmentReader reader(path);

  const util::TimeRange sub{util::kHour + 17, 3 * util::kHour - 5};
  for (telemetry::MetricId id = 0; id < 4; ++id) {
    std::vector<ts::Sample> expect;
    for (const auto& ev : batch) {
      if (ev.id == id && sub.contains(ev.t)) {
        expect.push_back({ev.t, static_cast<double>(ev.value)});
      }
    }
    std::vector<ts::Sample> got;
    reader.scan(id, sub, got);
    expect_same_samples(expect, got, "pushdown metric " + std::to_string(id));
  }
}

TEST(Segment, ScanSetMatchesPerMetricScans) {
  const auto dir = scratch_dir("seg_scanset");
  const std::string path = dir + "/seg.seg";
  util::Rng rng(3);
  const auto batch = random_batch(rng, {0, util::kHour}, 3000, 6);
  store::SegmentWriter writer(path, 0, 200);
  writer.add(batch);
  (void)writer.seal();
  store::SegmentReader reader(path);

  const std::unordered_set<telemetry::MetricId> ids{0, 2, 5};
  std::map<telemetry::MetricId, std::vector<ts::Sample>> got;
  reader.scan_set(ids, {0, util::kHour}, got);
  for (const auto id : ids) {
    std::vector<ts::Sample> single;
    reader.scan(id, {0, util::kHour}, single);
    expect_same_samples(single, got[id], "scan_set " + std::to_string(id));
  }
  EXPECT_FALSE(got.count(1));  // not requested, not returned
}

TEST(Segment, SealTwiceAndEmptyAreErrors) {
  const auto dir = scratch_dir("seg_misuse");
  {
    store::SegmentWriter empty(dir + "/empty.seg", 0);
    EXPECT_THROW((void)empty.seal(), store::StoreError);
  }
  store::SegmentWriter writer(dir + "/seg.seg", 0);
  writer.add({{1, 10, 100}});
  (void)writer.seal();
  EXPECT_THROW((void)writer.seal(), store::StoreError);
}

// ------------------------------------------------------------ corruption

/// Crash-safety at the file level: a segment cut off at ANY byte length
/// must be rejected by the reader's open-time validation — never a crash,
/// never silently-short data — whether it validates a mapped view or
/// buffered reads.
TEST(Corruption, TruncationAtEveryLengthIsDetected) {
  const auto dir = scratch_dir("trunc");
  const std::string path = dir + "/seg.seg";
  util::Rng rng(4);
  store::SegmentWriter writer(path, 0, 64);
  writer.add(random_batch(rng, {0, util::kHour}, 600, 3));
  (void)writer.seal();
  const auto whole = read_file(path);
  ASSERT_GT(whole.size(), store::kHeaderBytes + store::kTrailerBytes);

  const std::string cut = dir + "/cut.seg";
  for (const Tier& tier : read_tiers()) {
    SCOPED_TRACE(tier.name);
    for (std::size_t len = 0; len < whole.size(); ++len) {
      write_file(cut,
                 {whole.begin(), whole.begin() + static_cast<long>(len)});
      EXPECT_THROW(store::SegmentReader reader(cut, tier.vfs),
                   store::StoreError)
          << "truncated to " << len << " of " << whole.size() << " bytes";
    }
    // Sanity: the untruncated file still opens, on the tier under test.
    write_file(cut, whole);
    const store::SegmentReader reader(cut, tier.vfs);
    EXPECT_EQ(reader.mapped(), tier.vfs == nullptr);
  }
}

/// A flipped byte in a block payload passes open-time validation (the
/// footer is intact) but must surface as a StoreError when that block is
/// actually read — the per-block CRC contract.
TEST(Corruption, BlockBitFlipCaughtByCrcOnScan) {
  const auto dir = scratch_dir("bitflip");
  const std::string path = dir + "/seg.seg";
  util::Rng rng(5);
  store::SegmentWriter writer(path, 0, 64);
  writer.add(random_batch(rng, {0, util::kHour}, 600, 3));
  (void)writer.seal();

  const store::BlockMeta first = store::SegmentReader(path).blocks().front();
  auto bytes = read_file(path);
  bytes[first.offset + first.size / 2] ^= 0x40;
  write_file(path, bytes);

  for (const Tier& tier : read_tiers()) {
    SCOPED_TRACE(tier.name);
    // Footer intact: open succeeds.
    const store::SegmentReader flipped(path, tier.vfs);
    EXPECT_EQ(flipped.mapped(), tier.vfs == nullptr);
    std::vector<ts::Sample> out;
    EXPECT_THROW(flipped.scan(first.id, {0, util::kHour}, out),
                 store::StoreError);
  }
}

/// A flipped byte in the footer directory is caught at open time.
TEST(Corruption, FooterBitFlipCaughtAtOpen) {
  const auto dir = scratch_dir("footflip");
  const std::string path = dir + "/seg.seg";
  util::Rng rng(6);
  store::SegmentWriter writer(path, 0, 64);
  writer.add(random_batch(rng, {0, util::kHour}, 600, 3));
  (void)writer.seal();

  auto bytes = read_file(path);
  bytes[bytes.size() - store::kTrailerBytes - 4] ^= 0x01;
  write_file(path, bytes);
  for (const Tier& tier : read_tiers()) {
    SCOPED_TRACE(tier.name);
    EXPECT_THROW(store::SegmentReader reader(path, tier.vfs),
                 store::StoreError);
  }
}

// -------------------------------------------------------------- manifest

TEST(Manifest, RoundTripAndTamperDetection) {
  store::Manifest m;
  m.segments.push_back({"seg00000000_day00000.seg", 0, 1000, 4096, 0, 86399});
  m.segments.push_back(
      {"seg00000001_day00001.seg", 1, 2000, 8192, 86400, 172799});
  const auto text = m.encode();
  const auto back = store::Manifest::decode(text);
  ASSERT_EQ(back.segments.size(), 2u);
  EXPECT_EQ(back.segments[0].file, m.segments[0].file);
  EXPECT_EQ(back.segments[1].events, 2000u);
  EXPECT_EQ(back.segments[1].t_max, 172799);

  auto tampered = text;
  tampered.replace(tampered.find("2000"), 4, "2001");
  EXPECT_THROW((void)store::Manifest::decode(tampered), store::StoreError);
  EXPECT_THROW((void)store::Manifest::decode("not a manifest\n"),
               store::StoreError);
}

TEST(Manifest, SaveIsAtomicReplaceAndLoadReportsAbsence) {
  const auto dir = scratch_dir("manifest");
  store::Manifest m;
  EXPECT_FALSE(store::Manifest::load(dir, m));

  m.segments.push_back({"a.seg", 0, 10, 100, 0, 9});
  m.save(dir);
  m.segments.push_back({"b.seg", 0, 20, 200, 10, 19});
  m.save(dir);  // replaces, no stale tmp left behind
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST.tmp"));

  store::Manifest loaded;
  ASSERT_TRUE(store::Manifest::load(dir, loaded));
  EXPECT_EQ(loaded.segments.size(), 2u);
}

// ----------------------------------------------------------------- store

TEST(Store, MemtableSealedAndReopenedQueriesAgree) {
  const auto dir = scratch_dir("store_basic");
  util::Rng rng(7);
  store::StoreOptions options;
  options.segment_events = 1000;
  options.block_events = 128;

  std::vector<std::vector<telemetry::MetricEvent>> batches;
  for (int i = 0; i < 7; ++i) {  // odd count: the last batch stays buffered
    batches.push_back(random_batch(rng, {0, 2 * util::kHour}, 700, 10));
  }

  telemetry::Archive archive;
  std::vector<telemetry::MetricId> ids;
  {
    auto st = store::Store::open(dir, options);
    for (const auto& b : batches) {
      st.append(b);
      archive.append(b);
    }
    // Memtable + sealed mix: some batches are still buffered here.
    EXPECT_GT(st.buffered_events(), 0u);
    EXPECT_GT(st.sealed_segments(), 0u);
    ids = st.metrics();
    for (const auto id : ids) {
      expect_same_samples(archive.query(id, {0, 2 * util::kHour}),
                          st.query(id, {0, 2 * util::kHour}),
                          "pre-flush metric " + std::to_string(id));
    }
    st.flush();
    EXPECT_EQ(st.buffered_events(), 0u);
  }

  auto reopened = store::Store::open(dir, options);
  EXPECT_TRUE(reopened.recovery().clean());
  EXPECT_EQ(reopened.total_events(), 7u * 700u);
  EXPECT_GT(reopened.compression_ratio(), 1.0);
  EXPECT_EQ(reopened.metrics(), ids);
  for (const auto id : ids) {
    expect_same_samples(archive.query(id, {0, 2 * util::kHour}),
                        reopened.query(id, {0, 2 * util::kHour}),
                        "reopened metric " + std::to_string(id));
  }
}

TEST(Store, DestructorFlushesTail) {
  const auto dir = scratch_dir("store_dtor");
  util::Rng rng(8);
  const auto batch = random_batch(rng, {0, util::kHour}, 500, 4);
  {
    auto st = store::Store::open(dir);
    st.append(batch);  // far below segment_events: memtable only
  }                    // destructor must seal it
  auto st = store::Store::open(dir);
  EXPECT_EQ(st.total_events(), batch.size());
}

TEST(Store, DayPartitionsFollowTheArchiveRule) {
  const auto dir = scratch_dir("store_days");
  auto st = store::Store::open(dir);
  // Partition = first event's day, exactly as Archive::append does it.
  st.append({{1, util::kDay - 2, 5}, {1, util::kDay + 2, 6}});
  st.append({{1, util::kDay + 10, 7}});
  st.flush();
  EXPECT_EQ(st.day_partitions(), 2u);
  EXPECT_EQ(st.sealed_segments(), 2u);
  const auto got = st.query(1, {0, 2 * util::kDay});
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), sample_less));
}

// ---------------------------------------------------- crash-safety gates

/// The acceptance crash test: a writer dies mid-segment (simulated by
/// truncating the youngest segment file). Reopen must drop exactly that
/// tail and nothing else; the surviving scan equals an in-memory archive
/// that saw only the surviving batches — bit for bit.
TEST(CrashSafety, TruncatedTailDroppedSurvivorsBitIdentical) {
  const auto dir = scratch_dir("crash_tail");
  util::Rng rng(9);
  store::StoreOptions options;
  options.segment_events = 500;  // each 500-event batch seals one segment
  options.block_events = 64;

  telemetry::Archive survivors;
  std::vector<telemetry::MetricId> ids;
  {
    auto st = store::Store::open(dir, options);
    for (int i = 0; i < 5; ++i) {
      const auto batch = random_batch(rng, {0, util::kHour}, 500, 6);
      st.append(batch);
      if (i < 4) survivors.append(batch);
    }
    st.flush();
    EXPECT_EQ(st.sealed_segments(), 5u);
    ids = st.metrics();
  }

  // "Kill the writer" mid-write of the youngest segment (sequence numbers
  // are zero-padded, so lexicographic max is the last one sealed).
  fs::path youngest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg" &&
        (youngest.empty() ||
         entry.path().filename() > youngest.filename())) {
      youngest = entry.path();
    }
  }
  ASSERT_FALSE(youngest.empty());
  const auto bytes = read_file(youngest.string());
  write_file(youngest.string(),
             {bytes.begin(), bytes.begin() + static_cast<long>(
                                                 bytes.size() / 2)});

  auto st = store::Store::open(dir, options);
  EXPECT_EQ(st.recovery().dropped_corrupt, 1u);
  EXPECT_EQ(st.recovery().adopted_orphans, 0u);
  EXPECT_EQ(st.sealed_segments(), 4u);
  EXPECT_EQ(st.total_events(), 4u * 500u);
  // The damaged file was set aside, not deleted — forensics stay possible.
  EXPECT_TRUE(fs::exists(youngest.string() + ".bad"));

  for (const auto id : ids) {
    expect_same_samples(survivors.query(id, {0, util::kHour}),
                        st.query(id, {0, util::kHour}),
                        "survivor metric " + std::to_string(id));
  }

  // Recovery persisted the repair: the next open is clean.
  auto again = store::Store::open(dir, options);
  EXPECT_TRUE(again.recovery().clean());
}

/// Crash after a segment sealed but before the manifest rename: the valid
/// orphan is adopted on reopen, losing nothing.
TEST(CrashSafety, SealedOrphanIsAdopted) {
  const auto dir = scratch_dir("crash_orphan");
  util::Rng rng(10);
  store::StoreOptions options;
  options.segment_events = 500;
  {
    auto st = store::Store::open(dir, options);
    st.append(random_batch(rng, {0, util::kHour}, 500, 4));
    st.flush();
  }
  // A sealed segment the manifest never heard of (manifest rename "lost").
  const auto orphan_batch = random_batch(rng, {0, util::kHour}, 300, 4);
  {
    store::SegmentWriter writer(dir + "/seg00000099_day00000.seg", 0, 64);
    writer.add(orphan_batch);
    (void)writer.seal();
  }

  auto st = store::Store::open(dir, options);
  EXPECT_EQ(st.recovery().adopted_orphans, 1u);
  EXPECT_EQ(st.total_events(), 800u);
  const auto got = st.query(orphan_batch.front().id, {0, util::kHour});
  EXPECT_FALSE(got.empty());
}

/// Stale manifest pointing at a deleted segment: the entry is dropped with
/// a report, the rest of the store stays queryable.
TEST(CrashSafety, StaleManifestEntryDropped) {
  const auto dir = scratch_dir("crash_stale");
  util::Rng rng(11);
  store::StoreOptions options;
  options.segment_events = 500;
  std::string first_file;
  {
    auto st = store::Store::open(dir, options);
    st.append(random_batch(rng, {0, util::kHour}, 500, 4));
    st.append(random_batch(rng, {0, util::kHour}, 500, 4));
    st.flush();
    EXPECT_EQ(st.sealed_segments(), 2u);
  }
  store::Manifest m;
  ASSERT_TRUE(store::Manifest::load(dir, m));
  ASSERT_EQ(m.segments.size(), 2u);
  fs::remove(dir + "/" + m.segments[0].file);

  auto st = store::Store::open(dir, options);
  EXPECT_EQ(st.recovery().dropped_missing, 1u);
  EXPECT_EQ(st.sealed_segments(), 1u);
  EXPECT_EQ(st.total_events(), 500u);
}

/// A corrupt manifest is rebuilt from the segment files themselves.
TEST(CrashSafety, CorruptManifestRebuiltFromSegments) {
  const auto dir = scratch_dir("crash_manifest");
  util::Rng rng(12);
  store::StoreOptions options;
  options.segment_events = 500;
  telemetry::Archive archive;
  {
    auto st = store::Store::open(dir, options);
    for (int i = 0; i < 3; ++i) {
      const auto batch = random_batch(rng, {0, util::kHour}, 500, 4);
      st.append(batch);
      archive.append(batch);
    }
    st.flush();
  }
  {
    std::ofstream out(store::manifest_path(dir), std::ios::trunc);
    out << "garbage that is definitely not a manifest\n";
  }

  auto st = store::Store::open(dir, options);
  EXPECT_TRUE(st.recovery().manifest_rebuilt);
  EXPECT_EQ(st.sealed_segments(), 3u);
  for (const auto id : st.metrics()) {
    expect_same_samples(archive.query(id, {0, util::kHour}),
                        st.query(id, {0, util::kHour}),
                        "rebuilt metric " + std::to_string(id));
  }
  // And the rebuild was persisted.
  EXPECT_TRUE(store::Store::open(dir, options).recovery().clean());
}

// ----------------------------------------------- archive/store contract

/// The shared query contract, property-tested: whatever seeded batch
/// stream is appended to both, every query over every probed range must
/// return the same multiset of samples. Batches are out-of-order inside
/// and across one another and straddle midnight.
class StoreContract : public testing::TestWithParam<int> {};

TEST_P(StoreContract, ArchiveAndStoreAgreeOnSeededStreams) {
  const int seed = GetParam();
  const auto dir = scratch_dir("contract_" + std::to_string(seed));
  util::Rng rng(static_cast<std::uint64_t>(seed));
  store::StoreOptions options;
  options.segment_events = 600;  // force several seals per run
  options.block_events = 96;

  telemetry::Archive archive;
  auto st = store::Store::open(dir, options);
  // Two days of data; several batches deliberately start just before
  // midnight so their partition (chosen by the FIRST event, the shared
  // rule) differs from where most of their events land.
  for (int b = 0; b < 12; ++b) {
    const util::TimeSec mid = util::kDay;
    const util::TimeRange span =
        b % 3 == 2 ? util::TimeRange{mid - util::kMinute, mid + util::kMinute}
                   : util::TimeRange{0, 2 * util::kDay};
    auto batch = random_batch(rng, span, 400, 12);
    archive.append(batch);
    st.append(std::move(batch));
  }
  st.flush();

  const util::TimeRange probes[] = {
      {0, 2 * util::kDay},                            // everything
      {util::kDay - 30, util::kDay + 30},             // straddles midnight
      {util::kHour, util::kHour + 1},                 // single-second
      {3 * util::kHour, 3 * util::kHour},             // empty
      {2 * util::kDay, 3 * util::kDay},               // past the data
  };
  for (const auto id : st.metrics()) {
    for (const auto& range : probes) {
      expect_same_samples(archive.query(id, range), st.query(id, range),
                          "seed " + std::to_string(seed) + " metric " +
                              std::to_string(id) + " range [" +
                              std::to_string(range.begin) + "," +
                              std::to_string(range.end) + ")");
    }
  }

  // Same contract through the reopened (pure on-disk) store.
  st.flush();
  auto reopened = store::Store::open(dir, options);
  for (const auto id : reopened.metrics()) {
    expect_same_samples(archive.query(id, {0, 2 * util::kDay}),
                        reopened.query(id, {0, 2 * util::kDay}),
                        "reopened seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreContract, testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------- parallel query

TEST(QueryMany, ParallelMatchesSerialAndPerMetricQueries) {
  const auto dir = scratch_dir("query_many");
  util::Rng rng(13);
  store::StoreOptions options;
  options.segment_events = 400;
  options.block_events = 64;
  auto st = store::Store::open(dir, options);
  for (int b = 0; b < 10; ++b) {
    st.append(random_batch(rng, {0, util::kDay}, 400, 16));
  }
  st.flush();

  std::vector<telemetry::MetricId> ids{0, 3, 7, 11, 15, 2};
  const util::TimeRange range{util::kHour, 20 * util::kHour};

  util::ThreadPool serial(1);
  util::ThreadPool wide(4);
  const auto one = st.query_many(ids, range, &serial);
  const auto many = st.query_many(ids, range, &wide);
  const auto global = st.query_many(ids, range);  // default pool

  ASSERT_EQ(one.size(), ids.size());
  ASSERT_EQ(many.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(one[i].id, ids[i]);  // output preserves request order
    expect_same_samples(st.query(ids[i], range), one[i].samples,
                        "serial id " + std::to_string(ids[i]));
    // Parallel merge must be deterministic, not just equivalent.
    ASSERT_EQ(one[i].samples.size(), many[i].samples.size());
    for (std::size_t j = 0; j < one[i].samples.size(); ++j) {
      EXPECT_TRUE(sample_eq(one[i].samples[j], many[i].samples[j]));
      EXPECT_TRUE(sample_eq(one[i].samples[j], global[i].samples[j]));
    }
  }
}

TEST(QueryMany, ClusterSumMatchesArchiveAggregator) {
  const auto dir = scratch_dir("cluster_sum");
  util::Rng rng(14);
  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  const std::vector<machine::NodeId> nodes{0, 1, 2, 3, 4};

  telemetry::Archive archive;
  store::StoreOptions options;
  options.segment_events = 300;
  auto st = store::Store::open(dir, options);
  // Timestamps are unique per metric (a BMC emits at most one sample per
  // channel per second) — with duplicate t the float accumulation order
  // inside a coarsen window would be unspecified and bit-parity undefined.
  for (int b = 0; b < 6; ++b) {
    std::vector<telemetry::MetricEvent> batch;
    for (const auto n : nodes) {
      for (int k = 0; k < 50; ++k) {
        batch.push_back(
            {telemetry::metric_id(n, channel),
             static_cast<util::TimeSec>(b * 600 + k * 12),
             static_cast<std::int32_t>(100 + rng.uniform_index(801))});
      }
    }
    std::shuffle(batch.begin(), batch.end(), rng);  // out-of-order feed
    archive.append(batch);
    st.append(std::move(batch));
  }
  st.flush();

  const util::TimeRange range{0, util::kHour};
  std::vector<double> mem_counts;
  std::vector<double> disk_counts;
  const auto mem =
      telemetry::cluster_sum(archive, nodes, channel, range, 10, &mem_counts);
  const auto disk =
      store::cluster_sum(st, nodes, channel, range, 10, &disk_counts);
  ASSERT_EQ(mem.size(), disk.size());
  ASSERT_EQ(mem_counts.size(), disk_counts.size());
  for (std::size_t i = 0; i < mem.size(); ++i) {
    EXPECT_EQ(mem[i], disk[i]) << "window " << i;  // bit-identical
    EXPECT_EQ(mem_counts[i], disk_counts[i]);
  }
}

// ------------------------------------------------------- block cache

namespace {

store::BlockCache::Columns make_columns(std::size_t events) {
  auto cols = std::make_shared<telemetry::DecodeScratch>();
  cols->ids.assign(events, 1);
  cols->times.assign(events, 0);
  cols->values.assign(events, 0);
  return cols;
}

}  // namespace

TEST(BlockCache, HitMissAndLruEviction) {
  const auto entry = store::BlockCache::entry_bytes(*make_columns(64));
  // One shard, room for exactly two entries.
  store::BlockCache cache(entry * 2, 1);
  const store::BlockCache::Key a{1, 0, 10};
  const store::BlockCache::Key b{1, 1, 11};
  const store::BlockCache::Key c{1, 2, 12};

  EXPECT_EQ(cache.find(a), nullptr);
  cache.insert(a, make_columns(64));
  cache.insert(b, make_columns(64));
  EXPECT_NE(cache.find(a), nullptr);  // refreshes a's recency
  cache.insert(c, make_columns(64));  // evicts b (LRU), not a
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_EQ(cache.find(b), nullptr);
  EXPECT_NE(cache.find(c), nullptr);

  const auto counters = cache.counters();
  EXPECT_EQ(counters.entries, 2u);
  EXPECT_LE(counters.bytes, cache.byte_budget());
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.insertions, 3u);
  EXPECT_EQ(counters.hits, 3u);
  EXPECT_EQ(counters.misses, 2u);
}

TEST(BlockCache, CrcIsPartOfTheKey) {
  // Same (segment, block) with a different directory CRC is a different
  // entry — stale decoded columns can never be served for rewritten
  // bytes; the old entry just ages out.
  store::BlockCache cache(1 << 20, 1);
  cache.insert({7, 3, 0xAAAA}, make_columns(8));
  EXPECT_EQ(cache.find({7, 3, 0xBBBB}), nullptr);
  EXPECT_NE(cache.find({7, 3, 0xAAAA}), nullptr);
}

TEST(BlockCache, OversizedEntryIsNotCached) {
  store::BlockCache cache(256, 1);
  cache.insert({1, 0, 1}, make_columns(4096));
  EXPECT_EQ(cache.find({1, 0, 1}), nullptr);
  EXPECT_EQ(cache.counters().insertions, 0u);
  EXPECT_EQ(cache.counters().entries, 0u);
}

TEST(BlockCache, EvictionKeepsSharedColumnsAlive) {
  const auto entry = store::BlockCache::entry_bytes(*make_columns(16));
  store::BlockCache cache(entry, 1);  // room for one entry
  cache.insert({1, 0, 1}, make_columns(16));
  const auto held = cache.find({1, 0, 1});
  ASSERT_NE(held, nullptr);
  cache.insert({1, 1, 2}, make_columns(16));  // evicts the first entry
  EXPECT_EQ(cache.find({1, 0, 1}), nullptr);
  // The shared_ptr we took before the eviction still reads fine.
  EXPECT_EQ(held->size(), 16u);
}

TEST(StoreCache, RepeatedQueryIsServedFromCacheBitIdentically) {
  const auto dir = scratch_dir("store_cache");
  util::Rng rng(21);
  store::StoreOptions options;
  options.segment_events = 500;
  options.block_events = 64;
  auto st = store::Store::open(dir, options);
  for (int b = 0; b < 6; ++b) {
    st.append(random_batch(rng, {0, util::kDay}, 500, 8));
  }
  st.flush();
  ASSERT_NE(st.block_cache(), nullptr);

  const util::TimeRange range{0, util::kDay};
  store::QueryStats cold;
  const auto first = st.query(3, range, &cold);
  EXPECT_GT(cold.cache_misses, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);

  store::QueryStats warm;
  const auto second = st.query(3, range, &warm);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(sample_eq(first[i], second[i])) << "sample " << i;
  }
  EXPECT_GT(st.block_cache()->counters().hits, 0u);
}

TEST(StoreCache, DisabledCacheMatchesEnabledCache) {
  const auto dir = scratch_dir("store_cache_off");
  util::Rng rng(22);
  store::StoreOptions options;
  options.segment_events = 400;
  options.block_events = 64;
  {
    auto st = store::Store::open(dir, options);
    for (int b = 0; b < 5; ++b) {
      st.append(random_batch(rng, {0, util::kDay}, 400, 8));
    }
  }  // destructor flushes

  store::StoreOptions no_cache = options;
  no_cache.cache_bytes = 0;
  auto cached = store::Store::open(dir, options);
  auto uncached = store::Store::open(dir, no_cache);
  EXPECT_EQ(uncached.block_cache(), nullptr);

  const util::TimeRange range{0, util::kDay};
  for (const telemetry::MetricId id : cached.metrics()) {
    // Query the cached store twice so the second pass runs on hits.
    (void)cached.query(id, range);
    store::QueryStats warm;
    store::QueryStats off;
    const auto a = cached.query(id, range, &warm);
    const auto b = uncached.query(id, range, &off);
    EXPECT_GT(warm.cache_hits, 0u) << "metric " << id;
    EXPECT_EQ(off.cache_hits + off.cache_misses, 0u);
    ASSERT_EQ(a.size(), b.size()) << "metric " << id;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(sample_eq(a[i], b[i])) << "metric " << id;
    }
  }
}

TEST(StoreCache, TinyBudgetEvictsInsteadOfGrowing) {
  const auto dir = scratch_dir("store_cache_tiny");
  util::Rng rng(23);
  store::StoreOptions options;
  options.segment_events = 512;
  options.block_events = 32;
  // A few KB: single-digit entries across 8 shards — most inserts evict.
  options.cache_bytes = 8 << 10;
  auto st = store::Store::open(dir, options);
  for (int b = 0; b < 8; ++b) {
    st.append(random_batch(rng, {0, util::kDay}, 512, 4));
  }
  st.flush();
  const util::TimeRange range{0, util::kDay};
  for (int pass = 0; pass < 3; ++pass) {
    for (const telemetry::MetricId id : st.metrics()) {
      (void)st.query(id, range);
    }
  }
  const auto counters = st.block_cache()->counters();
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LE(counters.bytes, st.block_cache()->byte_budget());
}

// ----------------------------------------------------------- window sum

TEST(WindowSum, MatchesQueryThenBucketReference) {
  const auto dir = scratch_dir("window_sum");
  util::Rng rng(24);
  store::StoreOptions options;
  options.segment_events = 300;
  options.block_events = 64;
  auto st = store::Store::open(dir, options);
  for (int b = 0; b < 7; ++b) {
    st.append(random_batch(rng, {0, util::kDay}, 300, 6));
  }
  // Leave the last batch unsealed so the mem_ tail path is covered too.
  st.append(random_batch(rng, {0, util::kDay}, 100, 6));

  const util::TimeRange range{util::kHour, 10 * util::kHour};
  const util::TimeSec window = 600;
  util::ThreadPool serial(1);
  util::ThreadPool wide(4);
  for (const telemetry::MetricId id : st.metrics()) {
    const auto ws = st.window_sum(id, range, window, &wide);
    const auto ws_serial = st.window_sum(id, range, window, &serial);
    const auto samples = st.query(id, range);
    ASSERT_EQ(ws.size(),
              static_cast<std::size_t>((range.duration() + window - 1) /
                                       window));
    std::vector<double> ref_sum(ws.size(), 0.0);
    std::vector<std::uint64_t> ref_count(ws.size(), 0);
    for (const auto& s : samples) {
      const auto w = static_cast<std::size_t>((s.t - range.begin) / window);
      ref_sum[w] += s.value;
      ++ref_count[w];
    }
    for (std::size_t w = 0; w < ws.size(); ++w) {
      // Bit-equality: sums are exact integers, so thread schedule and
      // segment grouping must not matter.
      EXPECT_EQ(ws.sum[w], ref_sum[w]) << "id " << id << " window " << w;
      EXPECT_EQ(ws.count[w], ref_count[w]);
      EXPECT_EQ(ws_serial.sum[w], ws.sum[w]);
      EXPECT_EQ(ws_serial.count[w], ws.count[w]);
      if (ws.count[w] > 0) {
        EXPECT_DOUBLE_EQ(ws.mean(w), ref_sum[w] / static_cast<double>(
                                                      ref_count[w]));
      }
    }
  }
}

TEST(WindowSum, RejectsNonPositiveWindow) {
  const auto dir = scratch_dir("window_sum_bad");
  auto st = store::Store::open(dir);
  EXPECT_THROW((void)st.window_sum(1, {0, 100}, 0), store::StoreError);
}

// -------------------------------------------------------- accounting

TEST(Accounting, RawEventBytesIsTheStructSize) {
  EXPECT_EQ(telemetry::kRawEventBytes, sizeof(telemetry::MetricEvent));
  // The compression denominator everywhere — codec, archive, store.
  telemetry::Archive archive;
  std::vector<telemetry::MetricEvent> batch;
  for (int i = 0; i < 1000; ++i) batch.push_back({1, i, 7});
  archive.append(batch);
  EXPECT_DOUBLE_EQ(archive.compression_ratio(),
                   static_cast<double>(1000 * telemetry::kRawEventBytes) /
                       static_cast<double>(archive.compressed_bytes()));
}

// ------------------------------------------------------------ warm tier

TEST(WarmTier, MmapParityWithBufferedReadsOnEveryMetric) {
  const auto dir = scratch_dir("warm_parity");
  util::Rng rng(71);
  store::StoreOptions options;
  options.segment_events = 700;
  options.block_events = 96;
  options.cache_bytes = 0;  // every block read hits the tier under test
  {
    auto st = store::Store::open(dir, options);
    for (int b = 0; b < 9; ++b) {
      st.append(random_batch(rng, {0, 2 * util::kDay}, 700, 5));
    }
    st.flush();
  }

  // Buffered tier: the same files over a Vfs that refuses to map.
  UnmappedVfs buffered;
  store::StoreOptions cold_options = options;
  cold_options.vfs = &buffered;
  auto cold = store::Store::open(dir, cold_options);
  auto warm = store::Store::open(dir, options);

  const util::TimeRange range{0, 2 * util::kDay};
  store::QueryStats cold_stats, warm_stats;
  for (const telemetry::MetricId id : cold.metrics()) {
    // Bit-identical, order included: both tiers feed the same merge.
    const auto w = warm.query(id, range, &warm_stats);
    const auto c = cold.query(id, range, &cold_stats);
    ASSERT_EQ(w.size(), c.size()) << "metric " << id;
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_TRUE(sample_eq(w[i], c[i]))
          << "metric " << id << " diverges at sample " << i;
    }
  }
  // Tier attribution: the default store reads every block zero-copy, the
  // buffered one never maps. Both read the same number of blocks.
  EXPECT_FALSE(warm_stats.degraded());
  EXPECT_FALSE(cold_stats.degraded());
  EXPECT_GT(warm_stats.warm_blocks, 0u);
  EXPECT_EQ(warm_stats.cold_blocks, 0u);
  EXPECT_EQ(cold_stats.warm_blocks, 0u);
  EXPECT_GT(cold_stats.cold_blocks, 0u);
  EXPECT_EQ(warm_stats.warm_blocks, cold_stats.cold_blocks);
}

TEST(WarmTier, MappedReaderSurvivesUnlink) {
  const auto dir = scratch_dir("warm_unlink");
  util::Rng rng(72);
  store::StoreOptions options;
  options.segment_events = 400;
  options.block_events = 64;
  auto st = store::Store::open(dir, options);
  st.append(random_batch(rng, {0, util::kDay}, 400, 3));
  st.flush();
  const auto directory = st.directory();
  ASSERT_FALSE(directory.empty());
  const std::string seg_path = dir + "/" + directory.front().file;

  store::SegmentReader reader(seg_path);
  ASSERT_TRUE(reader.mapped());
  std::uint64_t before = 0;
  for (const auto& b : reader.blocks()) before += reader.read_block(b).size();

  // The compactor's retirement shape: the file vanishes under a reader
  // that is still serving queries. The mapping keeps the bytes alive.
  fs::remove(seg_path);
  std::uint64_t after = 0;
  for (const auto& b : reader.blocks()) after += reader.read_block(b).size();
  EXPECT_EQ(after, before);
  EXPECT_EQ(after, reader.events());
}

/// The warm tier is the default: a store opened with no options at all
/// serves every block read from mapped views.
TEST(WarmTier, DefaultStoreServesScansFromTheMap) {
  const auto dir = scratch_dir("warm_default");
  util::Rng rng(73);
  {
    store::StoreOptions options;
    options.segment_events = 500;
    auto st = store::Store::open(dir, options);
    for (int b = 0; b < 4; ++b) {
      st.append(random_batch(rng, {0, util::kDay}, 500, 4));
    }
    st.flush();
  }
  const auto st = store::Store::open(dir);
  ASSERT_GE(st.sealed_segments(), 2u);
  store::QueryStats stats;
  std::size_t samples = 0;
  for (const telemetry::MetricId id : st.metrics()) {
    samples += st.query(id, {0, util::kDay}, &stats).size();
  }
  EXPECT_EQ(samples, 2000u);
  EXPECT_GT(stats.warm_blocks, 0u);
  EXPECT_EQ(stats.cold_blocks, 0u);
}

/// Opening a mapped segment costs its map and nothing else: the header,
/// trailer and footer validate from the view, with no read_range. The
/// buffered fallback pays three reads per segment on top.
TEST(WarmTier, OpenClaimsOneMapPerSegmentAndNoHeaderReads) {
  const auto dir = scratch_dir("warm_open_ops");
  util::Rng rng(74);
  store::StoreOptions options;
  options.segment_events = 300;
  {
    auto st = store::Store::open(dir, options);
    for (int b = 0; b < 5; ++b) {
      st.append(random_batch(rng, {0, util::kDay}, 300, 3));
    }
    st.flush();
  }

  faultfs::FaultVfs mapped_count(util::Vfs::real());
  store::StoreOptions mapped_options = options;
  mapped_options.vfs = &mapped_count;
  const auto mapped = store::Store::open(dir, mapped_options);
  ASSERT_TRUE(mapped.recovery().clean());
  const std::uint64_t segments = mapped.sealed_segments();
  ASSERT_EQ(segments, 5u);
  // One read_all of the manifest, then one map per sealed segment.
  EXPECT_EQ(mapped_count.stats().read_ops, 1 + segments);

  UnmappedVfs buffered;
  faultfs::FaultVfs buffered_count(buffered);
  store::StoreOptions buffered_options = options;
  buffered_options.vfs = &buffered_count;
  const auto cold = store::Store::open(dir, buffered_options);
  ASSERT_TRUE(cold.recovery().clean());
  EXPECT_EQ(buffered_count.stats().read_ops, 1 + 4 * segments);
}

// ----------------------------------------------------------- compaction

TEST(Compaction, PlanMergesSmallsDropsAgedAndForcesStraddlers) {
  auto meta = [](const char* file, std::int64_t day, std::uint64_t events,
                 util::TimeSec t_min, util::TimeSec t_max) {
    store::SegmentMeta m;
    m.file = file;
    m.day = day;
    m.events = events;
    m.t_min = t_min;
    m.t_max = t_max;
    return m;
  };
  const std::vector<store::SegmentMeta> directory{
      meta("aged.seg", 0, 5000, 0, 999),          // wholly expired
      meta("small_a.seg", 1, 100, 90000, 90500),  // merge pair...
      meta("small_b.seg", 1, 120, 90200, 90900),  // ...same day
      meta("lone.seg", 2, 80, 180000, 180500),    // lone small: untouched
      meta("big.seg", 3, 9000, 259300, 260000),   // big: untouched
      meta("straddle.seg", 0, 9000, 500, 2000),   // big but crosses cutoff
  };
  store::CompactionOptions opts;
  opts.retention.drop_before = 1000;
  opts.small_segment_events = 1000;
  opts.min_merge_inputs = 2;

  const auto plan = store::plan_compaction(directory, opts);
  ASSERT_EQ(plan.drop.size(), 1u);
  EXPECT_EQ(plan.drop[0], "aged.seg");
  ASSERT_EQ(plan.rounds.size(), 2u);  // day 0 (forced) and day 1 (pair)
  EXPECT_EQ(plan.rounds[0].day, 0);
  EXPECT_EQ(plan.rounds[0].inputs, std::vector<std::string>{"straddle.seg"});
  EXPECT_EQ(plan.rounds[1].day, 1);
  EXPECT_EQ(plan.rounds[1].inputs,
            (std::vector<std::string>{"small_a.seg", "small_b.seg"}));

  // Without retention pressure the straddler is just a big segment and
  // the lone small still is not worth a rewrite.
  store::CompactionOptions keep_all = opts;
  keep_all.retention.drop_before = 0;
  const auto plan2 = store::plan_compaction(directory, keep_all);
  EXPECT_TRUE(plan2.drop.empty());
  ASSERT_EQ(plan2.rounds.size(), 1u);
  EXPECT_EQ(plan2.rounds[0].day, 1);
}

TEST(Compaction, MergeIsLosslessAndIdempotent) {
  const auto dir = scratch_dir("compact_merge");
  util::Rng rng(73);
  store::StoreOptions options;
  options.segment_events = 250;
  options.block_events = 64;
  auto st = store::Store::open(dir, options);
  for (int b = 0; b < 12; ++b) {
    st.append(random_batch(rng, {0, util::kDay}, 250, 4));
  }
  st.flush();
  const auto before_segments = st.sealed_segments();
  ASSERT_GE(before_segments, 4u);
  const util::TimeRange range{0, util::kDay};
  std::map<telemetry::MetricId, std::vector<ts::Sample>> reference;
  for (const telemetry::MetricId id : st.metrics()) {
    reference[id] = st.query(id, range);
  }

  store::CompactionOptions copts;
  copts.small_segment_events = 1 << 20;  // everything is "small"
  const auto report = st.compact(copts);
  EXPECT_EQ(report.rounds, 1u);
  EXPECT_EQ(report.merged_inputs, before_segments);
  EXPECT_EQ(report.events_in, report.events_out);
  EXPECT_EQ(report.events_expired, 0u);
  EXPECT_EQ(st.sealed_segments(), 1u);
  EXPECT_EQ(st.graveyard_size(), 0u);  // no reader pinned the victims
  for (const auto& [id, samples] : reference) {
    expect_same_samples(st.query(id, range), samples,
                        "post-compaction, metric " + std::to_string(id));
  }

  // A second pass finds one big segment and nothing to do.
  const auto again = st.compact(copts);
  EXPECT_EQ(again.rounds, 0u);
  EXPECT_EQ(again.dropped_segments, 0u);
  EXPECT_EQ(st.sealed_segments(), 1u);

  // And the merged store reopens clean, with identical answers.
  auto reopened = store::Store::open(dir, options);
  EXPECT_TRUE(reopened.recovery().clean());
  for (const auto& [id, samples] : reference) {
    expect_same_samples(reopened.query(id, range), samples,
                        "reopen post-compaction, metric " +
                            std::to_string(id));
  }
}

TEST(Compaction, RetentionDropsWholeSegmentsAndFiltersStraddlers) {
  const auto dir = scratch_dir("compact_retention");
  util::Rng rng(74);
  store::StoreOptions options;
  options.segment_events = 300;
  options.block_events = 64;
  auto st = store::Store::open(dir, options);
  // Two day-partitions: day 0 ages out entirely, day 1 straddles.
  for (int b = 0; b < 4; ++b) {
    st.append(random_batch(rng, {0, util::kDay}, 300, 4));
    st.append(random_batch(rng, {util::kDay, 2 * util::kDay}, 300, 4));
  }
  st.flush();
  const util::TimeRange all{0, 2 * util::kDay};
  const util::TimeSec cutoff = util::kDay + util::kHour;
  std::map<telemetry::MetricId, std::vector<ts::Sample>> survivors;
  const std::uint64_t total_before = st.total_events();
  for (const telemetry::MetricId id : st.metrics()) {
    auto samples = st.query(id, all);
    std::erase_if(samples,
                  [&](const ts::Sample& s) { return s.t < cutoff; });
    survivors[id] = std::move(samples);
  }

  store::CompactionOptions copts;
  copts.retention.drop_before = cutoff;
  copts.small_segment_events = 1 << 20;
  const auto report = st.compact(copts);
  EXPECT_GT(report.dropped_segments, 0u);  // the day-0 population
  EXPECT_EQ(report.rounds, 1u);            // day 1 rewrote
  EXPECT_GT(report.events_expired, 0u);
  EXPECT_EQ(report.events_out, report.events_in - report.events_expired);

  std::uint64_t total_after = 0;
  for (const auto& [id, keep] : survivors) {
    expect_same_samples(st.query(id, all), keep,
                        "retention survivor, metric " + std::to_string(id));
    total_after += keep.size();
  }
  EXPECT_EQ(st.total_events(), total_after);
  EXPECT_LT(total_after, total_before);
  EXPECT_GE(st.bounds().begin, cutoff);
}

TEST(Compaction, ConcurrentQueryKeepsItsSnapshotWhileSegmentsRetire) {
  const auto dir = scratch_dir("compact_concurrent");
  util::Rng rng(75);
  store::StoreOptions options;
  options.segment_events = 200;
  options.block_events = 64;
  auto st = store::Store::open(dir, options);
  for (int b = 0; b < 10; ++b) {
    st.append(random_batch(rng, {0, util::kDay}, 200, 3));
  }
  st.flush();
  ASSERT_GE(st.sealed_segments(), 4u);
  const util::TimeRange range{0, util::kDay};
  const auto ids = st.metrics();
  std::map<telemetry::MetricId, std::vector<ts::Sample>> reference;
  for (const telemetry::MetricId id : ids) reference[id] = st.query(id, range);

  // Compact from inside a running scan: the scan's snapshot pins the
  // retired inputs (graveyard holds them), and its results must still be
  // the full pre-compaction answer.
  store::CompactionOptions copts;
  copts.small_segment_events = 1 << 20;
  bool compacted = false;
  std::size_t graveyard_during = 0;
  std::map<telemetry::MetricId, std::vector<ts::Sample>> scanned;
  const bool completed = st.scan(
      ids, range,
      [&](store::MetricRun&& run) {
        if (!compacted) {
          compacted = true;
          const auto report = st.compact(copts);
          EXPECT_EQ(report.rounds, 1u);
          graveyard_during = st.graveyard_size();
        }
        scanned[run.id] = std::move(run.samples);
        return true;
      });
  ASSERT_TRUE(completed);
  EXPECT_GT(graveyard_during, 0u);  // victims pinned by the live scan
  for (const auto& [id, samples] : reference) {
    expect_same_samples(scanned[id], samples,
                        "scan across compaction, metric " +
                            std::to_string(id));
  }
  // The scan is done; its snapshot died with it, so the reap drains.
  EXPECT_GT(st.reap(), 0u);
  EXPECT_EQ(st.graveyard_size(), 0u);
  for (const auto& [id, samples] : reference) {
    expect_same_samples(st.query(id, range), samples,
                        "post-reap, metric " + std::to_string(id));
  }
}

// -------------------------------------------------- compaction recovery

TEST(CompactionJournal, EncodeDecodeRoundTripAndCrcTamper) {
  store::CompactionJournal j;
  j.state = store::CompactionJournal::State::kFlipped;
  j.day = 17;
  j.output = "seg00000042_day00017.seg";
  j.drop_before = 12345;
  j.inputs = {"seg00000001_day00017.seg", "seg00000002_day00017.seg"};

  const std::string text = j.encode();
  const auto back = store::CompactionJournal::decode(text);
  EXPECT_EQ(back.state, j.state);
  EXPECT_EQ(back.day, j.day);
  EXPECT_EQ(back.output, j.output);
  EXPECT_EQ(back.drop_before, j.drop_before);
  EXPECT_EQ(back.inputs, j.inputs);

  std::string tampered = text;
  tampered[tampered.find("flipped")] = 'F';
  EXPECT_THROW((void)store::CompactionJournal::decode(tampered),
               store::StoreError);
  EXPECT_THROW((void)store::CompactionJournal::decode("not a journal"),
               store::StoreError);

  EXPECT_EQ(store::CompactionJournal::path_for("/r", j.output),
            "/r/" + j.output + ".compact");
}

TEST(CompactionRecovery, CopyingJournalRollsBackWithoutDataLoss) {
  const auto dir = scratch_dir("compact_rollback");
  util::Rng rng(76);
  store::StoreOptions options;
  options.segment_events = 300;
  options.block_events = 64;
  std::map<telemetry::MetricId, std::vector<ts::Sample>> reference;
  std::vector<std::string> inputs;
  {
    auto st = store::Store::open(dir, options);
    for (int b = 0; b < 4; ++b) {
      st.append(random_batch(rng, {0, util::kDay}, 300, 4));
    }
    st.flush();
    for (const telemetry::MetricId id : st.metrics()) {
      reference[id] = st.query(id, {0, util::kDay});
    }
    for (const auto& m : st.directory()) inputs.push_back(m.file);
  }

  // A pass that died mid-copy: a copying journal plus a torn .incoming.
  store::CompactionJournal j;
  j.state = store::CompactionJournal::State::kCopying;
  j.day = 0;
  j.output = "seg00000099_day00000.seg";
  j.inputs = inputs;
  {
    const std::string text = j.encode();
    std::ofstream out(store::CompactionJournal::path_for(dir, j.output),
                      std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  write_file(dir + "/" + j.output + ".incoming", {0xDE, 0xAD, 0xBE, 0xEF});
  // Plus a torn journal save that never got renamed in.
  write_file(dir + "/" + j.output + ".compact.tmp", {0x00});

  auto st = store::Store::open(dir, options);
  EXPECT_EQ(st.recovery().compactions_rolled_back, 1u);
  EXPECT_EQ(st.recovery().compactions_finished, 0u);
  EXPECT_TRUE(st.recovery().clean());  // the inputs were untouched
  for (const auto& [id, samples] : reference) {
    expect_same_samples(st.query(id, {0, util::kDay}), samples,
                        "post-rollback, metric " + std::to_string(id));
  }
  EXPECT_FALSE(fs::exists(dir + "/" + j.output + ".incoming"));
  EXPECT_FALSE(fs::exists(dir + "/" + j.output + ".compact"));
  EXPECT_FALSE(fs::exists(dir + "/" + j.output + ".compact.tmp"));
}

TEST(CompactionRecovery, FlippedJournalRollsForwardToTheOutput) {
  const auto dir = scratch_dir("compact_forward");
  util::Rng rng(77);
  store::StoreOptions options;
  options.segment_events = 300;
  options.block_events = 64;
  std::map<telemetry::MetricId, std::vector<ts::Sample>> reference;
  std::vector<std::string> inputs;
  std::vector<telemetry::MetricEvent> merged;
  {
    auto st = store::Store::open(dir, options);
    for (int b = 0; b < 4; ++b) {
      st.append(random_batch(rng, {0, util::kDay}, 300, 4));
    }
    st.flush();
    for (const telemetry::MetricId id : st.metrics()) {
      reference[id] = st.query(id, {0, util::kDay});
    }
    for (const auto& m : st.directory()) {
      inputs.push_back(m.file);
      store::SegmentReader r(dir + "/" + m.file);
      for (const auto& b : r.blocks()) {
        const auto evs = r.read_block(b);
        merged.insert(merged.end(), evs.begin(), evs.end());
      }
    }
  }

  // Reconstruct the exact pre-crash state one op past the commit point:
  // a validated .incoming and a flipped journal, rename not yet done.
  const std::string output = "seg00000099_day00000.seg";
  {
    store::SegmentWriter writer(dir + "/" + output + ".incoming", 0, 64);
    writer.add(merged);
    (void)writer.seal();
  }
  store::CompactionJournal j;
  j.state = store::CompactionJournal::State::kFlipped;
  j.day = 0;
  j.output = output;
  j.inputs = inputs;
  {
    const std::string text = j.encode();
    std::ofstream out(store::CompactionJournal::path_for(dir, output),
                      std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }

  auto st = store::Store::open(dir, options);
  EXPECT_EQ(st.recovery().compactions_finished, 1u);
  EXPECT_EQ(st.recovery().compactions_rolled_back, 0u);
  // Roll-forward replaced the listed inputs with the unlisted output, so
  // the manifest sweep adopts the orphan and drops the missing entries.
  EXPECT_EQ(st.recovery().adopted_orphans, 1u);
  EXPECT_EQ(st.recovery().dropped_missing, inputs.size());
  EXPECT_EQ(st.sealed_segments(), 1u);
  for (const auto& in : inputs) {
    EXPECT_FALSE(fs::exists(dir + "/" + in)) << in;
  }
  EXPECT_FALSE(fs::exists(dir + "/" + output + ".compact"));
  EXPECT_TRUE(fs::exists(dir + "/" + output));
  for (const auto& [id, samples] : reference) {
    expect_same_samples(st.query(id, {0, util::kDay}), samples,
                        "post-roll-forward, metric " + std::to_string(id));
  }

  // A second open has nothing left to replay.
  auto again = store::Store::open(dir, options);
  EXPECT_EQ(again.recovery().compactions_finished, 0u);
  EXPECT_EQ(again.recovery().compactions_rolled_back, 0u);
  EXPECT_TRUE(again.recovery().clean());
}

}  // namespace
