// S4 — Sharded store cluster (src/cluster, DESIGN.md §11): a 3-shard
// cluster must hand the feed back through the scatter-gather coordinator
// at least as fast as the machine produces it — 462,600 events/s of
// decoded read volume — or sharding for capacity costs the dashboards
// their real-time view. The artifact shards a warm feed across three
// real TCP shard servers, drives the coordinator with concurrent scan
// readers, and gates on the sustained merged-event rate; then
// google-benchmark timings of the routing and merge kernels underneath.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/merge.hpp"
#include "cluster/rebalance.hpp"
#include "cluster/shard_map.hpp"
#include "server/server.hpp"
#include "store/store.hpp"
#include "util/rng.hpp"
#include "util/text_table.hpp"

namespace {

using namespace exawatt;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kShards = 3;

std::string bench_cluster_dir() {
  return (fs::temp_directory_path() / "exawatt_bench_cluster").string();
}

/// Same BMC-shaped feed as bench_net: `metrics` channels at 1 Hz for
/// `seconds`, values a small random walk.
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
      "S4  Sharded store cluster (src/cluster)",
      "Scatter-gather reads across 3 shard servers must sustain at least "
      "the machine's own 462,600 events/s production rate as merged read "
      "volume");

  const std::uint32_t metrics = 3'200;
  const util::TimeSec span = 900;
  const double target = 462'600.0;
  const double drive_s = bench::full_scale_requested() ? 10.0 : 3.0;

  const std::string dir = bench_cluster_dir();
  fs::remove_all(dir);
  const auto map = cluster::ShardMap::uniform(kShards);
  std::vector<std::optional<store::Store>> shards;
  {
    store::StoreOptions options;
    options.segment_events = 1 << 18;
    for (std::size_t s = 0; s < kShards; ++s) {
      shards.emplace_back(store::Store::open(
          dir + "/shard" + std::to_string(s), options));
    }
    for (const auto& batch : synth_feed(metrics, span)) {
      auto parts = map.split(batch);
      for (std::size_t s = 0; s < kShards; ++s) {
        shards[s]->append(std::move(parts[s]));
      }
    }
    for (auto& shard : shards) shard->flush();
  }

  // Warm pass: decode every shard's segments once so the drive measures
  // the scatter-gather path (fan-out, wire codec, merge) over hot caches.
  std::vector<telemetry::MetricId> all_ids(metrics);
  for (std::uint32_t m = 0; m < metrics; ++m) all_ids[m] = m;
  for (auto& shard : shards) (void)shard->query_many(all_ids, {0, span});

  std::vector<std::unique_ptr<server::Server>> servers;
  std::vector<std::thread> loops;
  cluster::CoordinatorOptions copts;
  for (auto& shard : shards) {
    servers.push_back(std::make_unique<server::Server>(*shard));
    loops.emplace_back([srv = servers.back().get()] { srv->run(); });
    copts.shards.push_back({"127.0.0.1", servers.back()->port()});
  }
  copts.prune = true;  // shards are sealed before the drive starts
  cluster::Coordinator coordinator(copts);
  coordinator.refresh_directories();

  const std::size_t readers =
      std::max<std::size_t>(2, std::thread::hardware_concurrency() / 2);
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> degraded{0};
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(drive_s));
  std::vector<std::thread> drivers;
  drivers.reserve(readers);
  for (std::size_t c = 0; c < readers; ++c) {
    drivers.emplace_back([&, c] {
      util::Rng rng(0xc105ULL + c);
      const server::CancelToken no_cancel;
      while (Clock::now() < until) {
        server::wire::Request req;
        req.method = server::wire::Method::kScan;
        req.range = {0, span};
        const std::size_t want = 64;
        for (std::size_t i = 0; i < want; ++i) {
          req.metrics.push_back(
              static_cast<telemetry::MetricId>(rng.uniform_index(metrics)));
        }
        const auto resp = coordinator.execute(req, no_cancel, 0);
        requests.fetch_add(1, std::memory_order_relaxed);
        if (resp.status == server::wire::Status::kOk) {
          events.fetch_add(server::wire::response_event_volume(resp),
                           std::memory_order_relaxed);
          if (resp.stats.degraded()) {
            degraded.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  for (auto& server : servers) server->shutdown();
  for (auto& loop : loops) loop.join();
  for (auto& server : servers) server->drain();

  const double rate = static_cast<double>(events.load()) / elapsed;
  std::printf("%zu readers x %.1f s over %zu shards: %llu scatters, "
              "%llu degraded, %s read back\n",
              readers, elapsed, kShards,
              static_cast<unsigned long long>(requests.load()),
              static_cast<unsigned long long>(degraded.load()),
              util::fmt_si(rate, "events/s", 2).c_str());
  std::uint64_t legs = 0;
  std::uint64_t leg_errors = 0;
  for (const auto& shard : coordinator.shard_stats()) {
    legs += shard.calls;
    leg_errors += shard.shed + shard.deadline_exceeded + shard.other_errors +
                  shard.transport_errors;
  }
  std::printf("scatter legs: %llu total, %llu not ok\n",
              static_cast<unsigned long long>(legs),
              static_cast<unsigned long long>(leg_errors));
  std::printf("cluster read: %s (%.2fx the 462,600 events/s feed)\n\n",
              rate >= target ? "MET" : "NOT MET", rate / target);

  bench::JsonObject json;
  json.add("shards", static_cast<std::uint64_t>(kShards));
  json.add("readers", static_cast<std::uint64_t>(readers));
  json.add("drive_seconds", elapsed);
  json.add("requests", requests.load());
  json.add("degraded_responses", degraded.load());
  json.add("scatter_legs", legs);
  json.add("events_per_second", rate);
  json.add("target_events_per_second", target);
  json.add("cluster_read_met", rate >= target);
  json.write("BENCH_cluster.json");

  fs::remove_all(dir);
}

// --- google-benchmark timings of the kernels underneath ------------------

/// Routing cost per event: the hash-slot lookup every ingest batch pays.
void BM_shard_route(benchmark::State& state) {
  const auto map = cluster::ShardMap::uniform(kShards);
  telemetry::MetricId id = 0;
  std::size_t sink = 0;
  for (auto _ : state) {
    sink += map.shard_of(++id);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_shard_route);

void BM_split_batch(benchmark::State& state) {
  const auto map = cluster::ShardMap::uniform(kShards);
  util::Rng rng(7);
  std::vector<telemetry::MetricEvent> batch;
  for (int i = 0; i < state.range(0); ++i) {
    batch.push_back({static_cast<telemetry::MetricId>(rng.uniform_index(3200)),
                     static_cast<util::TimeSec>(i), 500});
  }
  for (auto _ : state) {
    auto parts = map.split(batch);
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_split_batch)->Arg(3200);

void BM_merge_window_sum(benchmark::State& state) {
  store::WindowSum shard_grid;
  shard_grid.start = 0;
  shard_grid.window = 10;
  shard_grid.sum.assign(static_cast<std::size_t>(state.range(0)), 1234.0);
  shard_grid.count.assign(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    store::WindowSum merged;
    for (std::size_t s = 0; s < kShards; ++s) {
      cluster::merge_window_sum(merged, shard_grid);
    }
    benchmark::DoNotOptimize(merged.sum.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * static_cast<int>(kShards));
}
BENCHMARK(BM_merge_window_sum)->Arg(8640);

/// Re-sort-and-reassemble cost of a scatter's scan legs — the serial
/// tail of every merged read.
void BM_merge_runs(benchmark::State& state) {
  const std::size_t ids_n = 8;
  std::vector<telemetry::MetricId> ids;
  for (std::size_t i = 0; i < ids_n; ++i) {
    ids.push_back(static_cast<telemetry::MetricId>(i));
  }
  std::vector<std::vector<store::MetricRun>> shard_runs(kShards);
  util::Rng rng(11);
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const telemetry::MetricId id : ids) {
      store::MetricRun run;
      run.id = id;
      for (int i = 0; i < state.range(0); ++i) {
        run.samples.push_back({static_cast<util::TimeSec>(rng.uniform_index(
                                   100'000)),
                               500.0});
      }
      std::sort(run.samples.begin(), run.samples.end(), store::sample_less);
      shard_runs[s].push_back(std::move(run));
    }
  }
  std::vector<const std::vector<store::MetricRun>*> parts;
  for (const auto& r : shard_runs) parts.push_back(&r);
  for (auto _ : state) {
    auto merged = cluster::merge_runs(ids, parts);
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids_n * kShards) *
                          state.range(0));
}
BENCHMARK(BM_merge_runs)->Arg(256)->Arg(4096);

void BM_migration_journal_roundtrip(benchmark::State& state) {
  cluster::MigrationJournal j;
  j.from_root = "/data/shard0";
  j.to_root = "/data/shard2";
  j.to_file = "mseg00000003_day00001.seg";
  j.meta = {"seg00000003_day00001.seg", 1, 4096, 1 << 20, 86400, 90000};
  for (auto _ : state) {
    const auto decoded = cluster::MigrationJournal::decode(j.encode());
    benchmark::DoNotOptimize(decoded.to_file.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_migration_journal_roundtrip);

}  // namespace

int main(int argc, char** argv) {
  print_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
