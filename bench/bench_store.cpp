// S2 — On-disk telemetry store (src/store, DESIGN.md §2): the durable
// counterpart of the in-memory archive. The paper's out-of-band feed is
// 100 metrics/node/s from 4,626 nodes — 462,600 events/s — and the store
// must (a) ingest at least that fast, i.e. persist faster than the
// machine produces, and (b) answer range scans faster in parallel than
// serially, since analysis reads a day of segments at a time.
// Reports write throughput vs the sim-real-time target, reopen/recovery
// latency, and cold+warm fan-out scan times vs thread-pool size, then
// google-benchmark timings of the primitives.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "faultfs/fault.hpp"
#include "server/chunk.hpp"
#include "server/wire.hpp"
#include "store/store.hpp"
#include "telemetry/archive.hpp"
#include "unmapped_vfs.hpp"
#include "util/rng.hpp"
#include "util/text_table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace exawatt;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string bench_store_dir(const char* leaf) {
  return (fs::temp_directory_path() / "exawatt_bench_store" / leaf).string();
}

/// A BMC-shaped feed: `metrics` channels at 1 Hz for `seconds`, values a
/// small random walk (the delta codec's favorable, realistic case), one
/// batch per emitted second like the pipeline's sink sees it.
std::vector<std::vector<telemetry::MetricEvent>> synth_feed(
    std::uint32_t metrics, util::TimeSec seconds) {
  util::Rng rng(2020);
  std::vector<std::int32_t> walk(metrics);
  for (auto& v : walk) {
    v = static_cast<std::int32_t>(500 + rng.uniform_index(1500));
  }
  std::vector<std::vector<telemetry::MetricEvent>> batches;
  batches.reserve(static_cast<std::size_t>(seconds));
  for (util::TimeSec t = 0; t < seconds; ++t) {
    std::vector<telemetry::MetricEvent> batch;
    batch.reserve(metrics);
    for (std::uint32_t m = 0; m < metrics; ++m) {
      walk[m] += static_cast<std::int32_t>(rng.uniform_index(7)) - 3;
      batch.push_back({m, t, walk[m]});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void print_artifact() {
  bench::print_header(
      "S2  On-disk telemetry store (src/store)",
      "Dataset A lands as one tar of parquet files per day; our segment "
      "store must persist the 462,600 events/s out-of-band feed faster "
      "than real time and scan it back in parallel");

  // 3,200 metrics (32 nodes) for 15 simulated minutes = 2.88M events by
  // default; full scale quadruples the span.
  const std::uint32_t metrics = 3'200;
  const util::TimeSec span = bench::full_scale_requested() ? 3'600 : 900;
  const double target = 462'600.0;
  const auto batches = synth_feed(metrics, span);
  std::uint64_t total = 0;
  for (const auto& b : batches) total += b.size();

  const std::string dir = bench_store_dir("write");
  fs::remove_all(dir);
  store::StoreOptions options;
  options.segment_events = 1 << 18;
  // Cache off for the write + scan-scaling sections: the scaling table
  // measures the decode fan-out, and repeated passes must not quietly
  // turn into cache hits. The cache gets its own section below.
  options.cache_bytes = 0;

  double write_s = 0.0;
  {
    auto st = store::Store::open(dir, options);
    const auto t0 = Clock::now();
    for (const auto& b : batches) st.append(b);
    st.flush();
    write_s = seconds_since(t0);
    std::printf("wrote %llu events in %.2f s -> %s (%zu segments, %.1fx "
                "compression, %.2f MB)\n",
                static_cast<unsigned long long>(total), write_s,
                util::fmt_si(static_cast<double>(total) / write_s,
                             "events/s", 2)
                    .c_str(),
                st.sealed_segments(), st.compression_ratio(),
                static_cast<double>(st.stored_bytes()) / 1e6);
  }
  const double rate = static_cast<double>(total) / write_s;
  std::printf("store write: %s (%.2fx the 462,600 events/s feed)\n",
              rate >= target ? "MET" : "NOT MET", rate / target);

  // Reopen = recovery path: directory listing, manifest CRC, footer
  // validation of every listed segment.
  const auto t0 = Clock::now();
  auto st = store::Store::open(dir, options);
  std::printf("reopen+recovery: %.1f ms (%zu segments, clean=%d)\n\n",
              1e3 * seconds_since(t0), st.sealed_segments(),
              st.recovery().clean() ? 1 : 0);

  // Fan-out scan: all metrics over the full span, vs thread-pool width.
  // The first pass at each width is repeated so cold-cache noise (first
  // touch of the segment files) does not decide the speedup.
  std::vector<telemetry::MetricId> ids(metrics);
  for (std::uint32_t m = 0; m < metrics; ++m) ids[m] = m;
  const util::TimeRange range{0, span};
  const auto timed_scan = [&](util::ThreadPool& pool, std::uint64_t* got) {
    const auto s0 = Clock::now();
    const auto runs = st.query_many(ids, range, &pool);
    const double elapsed = seconds_since(s0);
    *got = 0;
    for (const auto& run : runs) *got += run.samples.size();
    benchmark::DoNotOptimize(*got);
    return elapsed;
  };

  util::TextTable t({"threads", "scan time", "events/s", "speedup"});
  double serial_best = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    double best = 1e30;
    std::uint64_t got = 0;
    for (int rep = 0; rep < 3; ++rep) {
      best = std::min(best, timed_scan(pool, &got));
    }
    if (threads == 1) serial_best = best;
    t.add_row({std::to_string(threads), util::fmt_double(1e3 * best, 1) + " ms",
               util::fmt_si(static_cast<double>(got) / best, "events/s", 2),
               util::fmt_double(serial_best / best, 2) + "x"});
  }
  std::printf("%s\n", t.str().c_str());
  // The gate's verdict is the median of serial/2-thread ratios over
  // back-to-back pairs whose order alternates, so neither which side runs
  // warmer nor one noisy pair decides it (single best-of-3 pairs read
  // anywhere from 0.85x to 1.80x on one 4-vCPU host).
  constexpr int kScanPairs = 7;
  std::vector<double> scan_ratios;
  std::vector<double> serial_times;
  std::vector<double> two_thread_times;
  {
    util::ThreadPool serial_pool(1);
    util::ThreadPool two_pool(2);
    std::uint64_t got = 0;
    for (int pair = 0; pair < kScanPairs; ++pair) {
      double serial = 0.0;
      double two = 0.0;
      if (pair % 2 == 0) {
        serial = timed_scan(serial_pool, &got);
        two = timed_scan(two_pool, &got);
      } else {
        two = timed_scan(two_pool, &got);
        serial = timed_scan(serial_pool, &got);
      }
      serial_times.push_back(serial);
      two_thread_times.push_back(two);
      scan_ratios.push_back(serial / two);
    }
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double scan_speedup = median(scan_ratios);
  const double serial_s = median(serial_times);
  const double two_thread_s = median(two_thread_times);
  std::printf("serial/2-thread ratios over %d alternating pairs:", kScanPairs);
  for (const double r : scan_ratios) std::printf(" %.2f", r);
  std::printf("\n");
  // The decode-bound scan can only beat serial with real cores to fan
  // out to; on a 1-thread host the comparison is noise, not a verdict,
  // and the gate records that it was skipped rather than passed.
  const bool multi_core = std::thread::hardware_concurrency() >= 2;
  const bool gate_scan_parallel = multi_core && scan_speedup >= 1.5;
  if (multi_core) {
    std::printf("parallel scan (2 threads) vs serial, median of %d pairs: "
                "%.2fx -- %s (target >= 1.5x)\n\n",
                kScanPairs, scan_speedup,
                gate_scan_parallel ? "MET" : "NOT MET");
  } else {
    std::printf("parallel scan (2 threads) vs serial, median of %d pairs: "
                "%.2fx (single hardware thread -- speedup not "
                "measurable)\n\n",
                kScanPairs, scan_speedup);
  }

  // Decoded-block cache: a dashboard re-rendering the same roll-up (the
  // paper's 10 s power means, here 60 s buckets over the full span) pays
  // disk + CRC + varint decode once, then every refresh accumulates
  // straight from the cached columns.
  store::StoreOptions cached_options = options;
  cached_options.cache_bytes = std::size_t{256} << 20;
  auto cached = store::Store::open(dir, cached_options);
  const auto rollup = [&](std::uint32_t m) {
    const auto grid = cached.window_sum(m, range, 60);
    std::uint64_t got = 0;
    for (const auto c : grid.count) got += c;
    return got;
  };
  const auto cold0 = Clock::now();
  std::uint64_t cold_got = 0;
  for (std::uint32_t m = 0; m < 64; ++m) cold_got += rollup(m);
  const double cold_s = seconds_since(cold0);
  double warm_s = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const auto w0 = Clock::now();
    std::uint64_t warm_got = 0;
    for (std::uint32_t m = 0; m < 64; ++m) warm_got += rollup(m);
    warm_s = std::min(warm_s, seconds_since(w0));
    benchmark::DoNotOptimize(warm_got);
  }
  const auto cache_counters = cached.block_cache()->counters();
  const double cache_speedup = cold_s / warm_s;
  std::printf("decoded-block cache: cold %.1f ms, warm %.1f ms over %llu "
              "samples (%llu hits / %llu misses, %.1f MB resident)\n",
              1e3 * cold_s, 1e3 * warm_s,
              static_cast<unsigned long long>(cold_got),
              static_cast<unsigned long long>(cache_counters.hits),
              static_cast<unsigned long long>(cache_counters.misses),
              static_cast<double>(cache_counters.bytes) / 1e6);
  std::printf("cache-hit repeated query: %.1fx vs cold -- %s "
              "(target >= 5x)\n\n",
              cache_speedup, cache_speedup >= 5.0 ? "MET" : "NOT MET");

  // Warm read tier: the same full-span fan-out scan served from mmap'd
  // segments (zero-copy block slices, no per-block open/seek) vs the
  // buffered fallback, forced by a Vfs that refuses to map. Cache off on
  // both so the comparison is pure read-path; both benefit equally from
  // the OS page cache.
  double cold_tier_s = 1e30;
  double warm_tier_s = 1e30;
  store::QueryStats warm_stats;
  {
    util::ThreadPool pool(4);
    e2e::UnmappedVfs buffered;
    store::StoreOptions cold_options = options;
    cold_options.vfs = &buffered;
    auto cold_st = store::Store::open(dir, cold_options);
    for (int rep = 0; rep < 3; ++rep) {
      const auto s0 = Clock::now();
      const auto runs = cold_st.query_many(ids, range, &pool);
      cold_tier_s = std::min(cold_tier_s, seconds_since(s0));
      benchmark::DoNotOptimize(runs.size());
    }
    auto warm_st = store::Store::open(dir, options);
    for (int rep = 0; rep < 3; ++rep) {
      const auto s0 = Clock::now();
      warm_stats = {};
      const auto runs = warm_st.query_many(ids, range, &pool, &warm_stats);
      warm_tier_s = std::min(warm_tier_s, seconds_since(s0));
      benchmark::DoNotOptimize(runs.size());
    }
  }
  const double warm_speedup = cold_tier_s / warm_tier_s;
  const bool gate_warm_tier = warm_speedup >= 1.3;
  std::printf("warm tier (mmap): %.1f ms vs cold (buffered) %.1f ms over "
              "%llu warm / %llu cold blocks\n",
              1e3 * warm_tier_s, 1e3 * cold_tier_s,
              static_cast<unsigned long long>(warm_stats.warm_blocks),
              static_cast<unsigned long long>(warm_stats.cold_blocks));
  std::printf("warm-tier scan: %.2fx vs cold -- %s (target >= 1.3x)\n\n",
              warm_speedup, gate_warm_tier ? "MET" : "NOT MET");

  // Zero-copy scan-to-wire: stream every metric's encoded blocks through
  // a ChunkWriter into a counting sink. Whole blocks slice straight from
  // the mapped segment into chunk frames; the gate is peak staged bytes
  // <= chunk_bytes — serving memory flat in the archive size.
  std::uint64_t stream_bytes = 0;
  std::uint64_t stream_frames = 0;
  std::uint64_t stream_raw_blocks = 0;
  std::uint64_t stream_loose = 0;
  std::size_t stream_peak_staged = 0;
  const std::uint32_t stream_chunk = 64 * 1024;
  double stream_s = 0.0;
  {
    auto warm_st = store::Store::open(dir, options);
    server::ChunkWriter::Sink sink;
    sink.acquire = [](std::size_t, const std::function<bool()>&) {
      return true;
    };
    sink.send = [&](std::vector<std::uint8_t>&& frame) {
      stream_bytes += frame.size();
      ++stream_frames;
      return true;
    };
    server::ChunkWriter chunk(1, stream_chunk, sink, [] { return false; });
    std::vector<std::uint8_t> buf;
    auto note = [&] {
      stream_peak_staged = std::max(stream_peak_staged, chunk.buffered());
      return true;
    };
    store::RawScanSink raw;
    raw.begin_run = [&](telemetry::MetricId id) {
      buf.clear();
      server::wire::scan_blocks_run_begin(id, &buf);
      return chunk.write(buf) && note();
    };
    raw.block = [&](std::span<const std::uint8_t> bytes, std::uint32_t ev) {
      ++stream_raw_blocks;
      buf.clear();
      server::wire::scan_blocks_block_header(
          static_cast<std::uint32_t>(bytes.size()), ev, &buf);
      return chunk.write(buf) && chunk.write(bytes) && note();
    };
    raw.samples = [&](std::span<const ts::Sample> samples) {
      stream_loose += samples.size();
      buf.clear();
      server::wire::scan_blocks_samples(samples, &buf);
      return chunk.write(buf) && note();
    };
    raw.end_run = [&] {
      buf.clear();
      server::wire::scan_blocks_run_end(&buf);
      return chunk.write(buf) && note();
    };
    const auto s0 = Clock::now();
    buf.clear();
    server::wire::scan_blocks_begin(ids.size(), &buf);
    bool ok = chunk.write(buf);
    if (ok) ok = warm_st.scan_encoded(ids, range, raw);
    if (ok) {
      buf.clear();
      server::wire::scan_blocks_end({}, &buf);
      ok = chunk.write(buf) && chunk.finish();
    }
    stream_s = seconds_since(s0);
    benchmark::DoNotOptimize(ok);
  }
  const bool gate_stream_flat = stream_peak_staged <= stream_chunk;
  std::printf("zero-copy scan-to-wire: %.2f MB in %llu frames (%.1f ms, "
              "%llu raw blocks, %llu loose samples)\n",
              static_cast<double>(stream_bytes) / 1e6,
              static_cast<unsigned long long>(stream_frames),
              1e3 * stream_s,
              static_cast<unsigned long long>(stream_raw_blocks),
              static_cast<unsigned long long>(stream_loose));
  std::printf("stream peak staged: %zu bytes vs %u chunk -- %s (flat in "
              "archive size)\n\n",
              stream_peak_staged, stream_chunk,
              gate_stream_flat ? "MET" : "NOT MET");

  // Compaction throughput: re-feed into fragment-sized segments, then one
  // merge pass folds them into per-day outputs — decode + re-sort +
  // re-encode + fsync'd journal protocol, the background cost the store
  // pays to keep read fan-out bounded.
  const std::string cdir = bench_store_dir("compact_pass");
  fs::remove_all(cdir);
  std::size_t compact_segs_before = 0;
  store::CompactionReport creport;
  double compact_s = 0.0;
  {
    store::StoreOptions copts_store = options;
    copts_store.segment_events = 1 << 14;  // deliberate fragmentation
    {
      auto cst = store::Store::open(cdir, copts_store);
      for (const auto& b : batches) cst.append(b);
      cst.flush();
    }
    auto cst = store::Store::open(cdir, copts_store);
    compact_segs_before = cst.sealed_segments();
    store::CompactionOptions copts;
    copts.small_segment_events = std::uint64_t{1} << 20;
    const auto c0 = Clock::now();
    creport = cst.compact(copts);
    compact_s = seconds_since(c0);
    std::printf("compaction: %zu -> %zu segments, %llu events merged in "
                "%.1f ms (%s)\n\n",
                compact_segs_before, cst.sealed_segments(),
                static_cast<unsigned long long>(creport.events_in),
                1e3 * compact_s,
                util::fmt_si(static_cast<double>(creport.events_in) /
                                 compact_s,
                             "events/s", 2)
                    .c_str());
  }
  fs::remove_all(cdir);

  bench::JsonObject json;
  json.add("bench", std::string("store"))
      .add("events_written", total)
      .add("write_eps", rate)
      .add("write_target_eps", target)
      .add("gate_write", rate >= target)
      .add("scan_serial_ms", 1e3 * serial_s)
      .add("scan_two_thread_ms", 1e3 * two_thread_s)
      .add("scan_parallel_ratios", scan_ratios)
      .add("scan_parallel_speedup", scan_speedup);
  if (multi_core) {
    json.add("gate_scan_parallel", gate_scan_parallel);
  } else {
    json.add("gate_scan_parallel", std::string("skipped: 1 core"));
  }
  json.add("cold_tier_ms", 1e3 * cold_tier_s)
      .add("warm_tier_ms", 1e3 * warm_tier_s)
      .add("warm_tier_speedup", warm_speedup)
      .add("warm_blocks", warm_stats.warm_blocks)
      .add("cold_blocks", warm_stats.cold_blocks)
      .add("gate_warm_tier", gate_warm_tier)
      .add("stream_bytes", stream_bytes)
      .add("stream_frames", stream_frames)
      .add("stream_raw_blocks", stream_raw_blocks)
      .add("stream_peak_staged", static_cast<std::uint64_t>(stream_peak_staged))
      .add("stream_chunk_bytes", static_cast<std::uint64_t>(stream_chunk))
      .add("gate_stream_flat", gate_stream_flat)
      .add("compact_segments_before", static_cast<std::uint64_t>(compact_segs_before))
      .add("compact_merged_inputs", static_cast<std::uint64_t>(creport.merged_inputs))
      .add("compact_events", creport.events_in)
      .add("compact_eps", static_cast<double>(creport.events_in) / compact_s)
      .add("cache_cold_ms", 1e3 * cold_s)
      .add("cache_warm_ms", 1e3 * warm_s)
      .add("cache_speedup", cache_speedup)
      .add("cache_hits", cache_counters.hits)
      .add("cache_misses", cache_counters.misses)
      .add("gate_cache_5x", cache_speedup >= 5.0);
  json.write("BENCH_store.json");
  fs::remove_all(dir);
}

void BM_segment_seal(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  const auto batches = synth_feed(100, static_cast<util::TimeSec>(events) / 100);
  const std::string dir = bench_store_dir("seal");
  fs::create_directories(dir);
  std::size_t n = 0;
  for (auto _ : state) {
    const std::string path = dir + "/seg" + std::to_string(n++) + ".seg";
    store::SegmentWriter writer(path, 0);
    for (const auto& b : batches) writer.add(b);
    const auto meta = writer.seal();
    benchmark::DoNotOptimize(meta.bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  fs::remove_all(dir);
}
BENCHMARK(BM_segment_seal)->Arg(100'000)->Arg(400'000);

void BM_store_query_one_metric(benchmark::State& state) {
  const std::string dir = bench_store_dir("query");
  fs::remove_all(dir);
  store::StoreOptions options;
  options.segment_events = 1 << 16;
  auto st = store::Store::open(dir, options);
  for (const auto& b : synth_feed(200, 1'800)) st.append(b);
  st.flush();
  telemetry::MetricId id = 0;
  for (auto _ : state) {
    const auto samples = st.query(id, {600, 1'200});
    benchmark::DoNotOptimize(samples.size());
    id = (id + 1) % 200;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  fs::remove_all(dir);
}
BENCHMARK(BM_store_query_one_metric);

// The same one-metric range scan driven through the fault-injection Vfs
// with an empty schedule, on the buffered tier so every block read
// crosses the seam: the price of the filesystem seam itself (the
// production store pays only the virtual-call indirection of RealVfs;
// this is the ceiling the test harness pays).
void BM_store_query_through_faultvfs(benchmark::State& state) {
  const std::string dir = bench_store_dir("query_seam");
  fs::remove_all(dir);
  store::StoreOptions options;
  options.segment_events = 1 << 16;
  e2e::UnmappedVfs buffered;
  faultfs::FaultVfs vfs(buffered);
  options.vfs = &vfs;
  auto st = store::Store::open(dir, options);
  for (const auto& b : synth_feed(200, 1'800)) st.append(b);
  st.flush();
  telemetry::MetricId id = 0;
  for (auto _ : state) {
    const auto samples = st.query(id, {600, 1'200});
    benchmark::DoNotOptimize(samples.size());
    id = (id + 1) % 200;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  fs::remove_all(dir);
}
BENCHMARK(BM_store_query_through_faultvfs);

// Worst-case degraded scan: every block read comes back corrupted, so the
// query walks the whole block directory, fails each CRC, and returns an
// empty flagged result. Bounds the cost of answering "the disk is dying"
// — it must stay cheap enough to serve during an incident. Buffered tier:
// a mapped store reads no bytes per query for the faults to damage.
void BM_store_query_degraded(benchmark::State& state) {
  const std::string dir = bench_store_dir("query_degraded");
  fs::remove_all(dir);
  store::StoreOptions options;
  options.segment_events = 1 << 16;
  e2e::UnmappedVfs buffered;
  faultfs::FaultVfs vfs(buffered);
  options.vfs = &vfs;
  auto st = store::Store::open(dir, options);
  for (const auto& b : synth_feed(200, 1'800)) st.append(b);
  st.flush();
  vfs.set_plan(faultfs::FaultPlan().flip_bits_on_reads_from(0, 1));
  telemetry::MetricId id = 0;
  for (auto _ : state) {
    store::QueryStats stats;
    const auto samples = st.query(id, {600, 1'200}, &stats);
    benchmark::DoNotOptimize(stats.lost_blocks);
    benchmark::DoNotOptimize(samples.size());
    id = (id + 1) % 200;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  fs::remove_all(dir);
}
BENCHMARK(BM_store_query_degraded);

void BM_store_reopen(benchmark::State& state) {
  const std::string dir = bench_store_dir("reopen");
  fs::remove_all(dir);
  store::StoreOptions options;
  options.segment_events = 1 << 15;
  {
    auto st = store::Store::open(dir, options);
    for (const auto& b : synth_feed(400, 600)) st.append(b);
    st.flush();
  }
  for (auto _ : state) {
    auto st = store::Store::open(dir, options);
    benchmark::DoNotOptimize(st.sealed_segments());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  fs::remove_all(dir);
}
BENCHMARK(BM_store_reopen);

}  // namespace

int main(int argc, char** argv) {
  print_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
