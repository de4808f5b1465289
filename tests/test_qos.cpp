#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "e2e_rig.hpp"
#include "qos/autoscale.hpp"
#include "qos/cost.hpp"
#include "qos/pool.hpp"
#include "qos/scheduler.hpp"
#include "store/store.hpp"
#include "telemetry/metric.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace exawatt;
using e2e::scratch_dir;

// Every test in this file is deterministic: time is a ManualClock (or a
// plain integer handed to pop/snapshot/decide), so nothing here sleeps —
// the fairness, starvation and hysteresis proofs replay identically on
// any machine. The threaded end-to-end half lives in test_e2e (Qos*.*).

qos::Item make_item(qos::Class cls, std::uint64_t tenant, std::uint64_t cost,
                    std::vector<std::uint64_t>* ran = nullptr,
                    std::uint64_t tag = 0) {
  qos::Item item;
  item.cls = cls;
  item.tenant = tenant;
  item.cost_us = cost;
  if (ran != nullptr) item.run = [ran, tag] { ran->push_back(tag); };
  return item;
}

// ---------------------------------------------------------------- class

TEST(QosClass, WireMappingDemotesUnknownTiers) {
  EXPECT_EQ(qos::class_from_wire(0), qos::Class::kInteractive);
  EXPECT_EQ(qos::class_from_wire(1), qos::Class::kNormal);
  EXPECT_EQ(qos::class_from_wire(2), qos::Class::kBatch);
  // A newer peer's unrecognized tier must never jump the queue.
  EXPECT_EQ(qos::class_from_wire(3), qos::Class::kBatch);
  EXPECT_EQ(qos::class_from_wire(0xFFFF), qos::Class::kBatch);
  EXPECT_STREQ(qos::class_name(qos::Class::kInteractive), "interactive");
  EXPECT_STREQ(qos::class_name(qos::Class::kBatch), "batch");
}

// ------------------------------------------------------------ scheduler

TEST(Scheduler, FifoWithinOneTenant) {
  qos::Scheduler sched;
  std::vector<std::uint64_t> ran;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto r =
        sched.push(make_item(qos::Class::kNormal, 7, 100, &ran, i), 0);
    ASSERT_TRUE(r.admitted);
  }
  while (auto item = sched.pop(0)) item->run();
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, DeficitRoundRobinConvergesToFairShare) {
  // Tenant A: 50 items of 1,000 us. Tenant B: 10 items of 5,000 us.
  // Same total demand; DRR must keep their served-cost divergence under
  // quantum + the largest single item cost at every prefix while both
  // stay backlogged.
  qos::SchedulerOptions opts;
  opts.quantum_us = 2'000;
  qos::Scheduler sched(opts);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sched.push(make_item(qos::Class::kNormal, 1, 1'000), 0)
                    .admitted);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sched.push(make_item(qos::Class::kNormal, 2, 5'000), 0)
                    .admitted);
  }
  const std::uint64_t bound = opts.quantum_us + 5'000;
  std::uint64_t served_a = 0;
  std::uint64_t served_b = 0;
  std::size_t left_a = 50;
  std::size_t left_b = 10;
  while (auto item = sched.pop(0)) {
    if (item->tenant == 1) {
      served_a += item->cost_us;
      --left_a;
    } else {
      served_b += item->cost_us;
      --left_b;
    }
    if (left_a > 0 && left_b > 0) {
      const std::uint64_t gap =
          served_a > served_b ? served_a - served_b : served_b - served_a;
      EXPECT_LE(gap, bound)
          << "after A=" << served_a << "us B=" << served_b << "us";
    }
  }
  EXPECT_EQ(left_a, 0u);
  EXPECT_EQ(left_b, 0u);
  EXPECT_EQ(served_a, 50'000u);
  EXPECT_EQ(served_b, 50'000u);
}

TEST(Scheduler, StridePromotionDrainsBatchUnderFrozenClock) {
  // The clock never advances, so aged promotion can't fire — only the
  // every-Nth-pop stride keeps batch alive under relentless interactive
  // pressure.
  qos::SchedulerOptions opts;
  opts.promote_stride = 8;
  opts.promote_after_us = 100'000;
  qos::Scheduler sched(opts);
  std::vector<std::uint64_t> ran;
  ASSERT_TRUE(
      sched.push(make_item(qos::Class::kBatch, 1, 50'000, &ran, 999), 0)
          .admitted);
  std::size_t pops_until_batch = 0;
  for (std::size_t i = 0; i < 4 * opts.promote_stride; ++i) {
    ASSERT_TRUE(
        sched.push(make_item(qos::Class::kInteractive, 2, 10, &ran, i), 0)
            .admitted);
    auto item = sched.pop(0);
    ASSERT_TRUE(item.has_value());
    ++pops_until_batch;
    if (item->cls == qos::Class::kBatch) break;
  }
  EXPECT_LE(pops_until_batch, opts.promote_stride)
      << "batch starved past the stride guarantee";
}

TEST(Scheduler, AgedPromotionBeatsPriority) {
  qos::SchedulerOptions opts;
  opts.promote_after_us = 100'000;
  opts.promote_stride = 1'000'000;  // stride effectively off
  qos::Scheduler sched(opts);
  ASSERT_TRUE(sched.push(make_item(qos::Class::kBatch, 1, 500), 0).admitted);
  ASSERT_TRUE(
      sched.push(make_item(qos::Class::kInteractive, 2, 10), 150'000)
          .admitted);
  // The batch head is 150 ms old — past promote_after_us — so it wins
  // this pop despite the waiting interactive item.
  auto first = sched.pop(150'000);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->cls, qos::Class::kBatch);
  auto second = sched.pop(150'000);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->cls, qos::Class::kInteractive);
}

TEST(Scheduler, ShedsWorstClassThenCostThenYoungest) {
  qos::SchedulerOptions opts;
  opts.max_queue = 2;
  qos::Scheduler sched(opts);
  ASSERT_TRUE(
      sched.push(make_item(qos::Class::kInteractive, 1, 10), 0).admitted);
  ASSERT_TRUE(sched.push(make_item(qos::Class::kBatch, 2, 100), 0).admitted);

  // Queue full; an incoming normal item evicts the queued batch one —
  // class outranks cost (the batch item is not even the priciest).
  auto r = sched.push(make_item(qos::Class::kNormal, 3, 5), 0);
  EXPECT_TRUE(r.admitted);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->cls, qos::Class::kBatch);

  // An incoming batch item is itself the worst on offer: refused, handed
  // back so the caller can shed it with its estimated cost attached.
  r = sched.push(make_item(qos::Class::kBatch, 4, 1'000'000), 0);
  EXPECT_FALSE(r.admitted);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->cost_us, 1'000'000u);

  // An incoming interactive item evicts the queued normal one even
  // though the incoming costs more — again class before cost.
  r = sched.push(make_item(qos::Class::kInteractive, 5, 50), 0);
  EXPECT_TRUE(r.admitted);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->cls, qos::Class::kNormal);

  // Tie on class and cost: the younger admission goes first.
  qos::Scheduler tie(opts);
  ASSERT_TRUE(tie.push(make_item(qos::Class::kNormal, 1, 10), 0).admitted);
  ASSERT_TRUE(tie.push(make_item(qos::Class::kNormal, 2, 10), 0).admitted);
  r = tie.push(make_item(qos::Class::kNormal, 3, 10), 0);
  EXPECT_FALSE(r.admitted);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->tenant, 3u);
}

TEST(Scheduler, CostBacklogBoundSheds) {
  qos::SchedulerOptions opts;
  opts.max_queue = 1'000;
  opts.max_backlog_cost_us = 10'000;
  qos::Scheduler sched(opts);
  ASSERT_TRUE(sched.push(make_item(qos::Class::kNormal, 1, 6'000), 0)
                  .admitted);
  // Count is nowhere near the cap, but 12,000 us of promised work is.
  auto r = sched.push(make_item(qos::Class::kNormal, 2, 6'000), 0);
  EXPECT_FALSE(r.admitted);
  // A cheap item still fits under the remaining cost budget.
  EXPECT_TRUE(
      sched.push(make_item(qos::Class::kNormal, 2, 3'000), 0).admitted);
  EXPECT_EQ(sched.snapshot(0).backlog_cost_us, 9'000u);
}

TEST(Scheduler, PopLimitsGateLowerClassesNeverInteractive) {
  qos::Scheduler sched;
  ASSERT_TRUE(sched.push(make_item(qos::Class::kNormal, 1, 10), 0).admitted);
  ASSERT_TRUE(sched.push(make_item(qos::Class::kBatch, 1, 10), 0).admitted);
  qos::PopLimits closed;
  closed.allow_normal = false;
  closed.allow_batch = false;
  EXPECT_FALSE(sched.pop(0, closed).has_value());
  // Interactive rides through a fully capped pool.
  ASSERT_TRUE(
      sched.push(make_item(qos::Class::kInteractive, 1, 10), 0).admitted);
  auto item = sched.pop(0, closed);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->cls, qos::Class::kInteractive);
  // allow_normal alone opens the middle tier but not batch.
  qos::PopLimits no_batch;
  no_batch.allow_batch = false;
  item = sched.pop(0, no_batch);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->cls, qos::Class::kNormal);
  EXPECT_FALSE(sched.pop(0, no_batch).has_value());
  EXPECT_EQ(sched.snapshot(0).queued_by_class[2], 1u);
}

TEST(Scheduler, DrainAllReturnsEverythingInAdmissionOrder) {
  qos::Scheduler sched;
  ASSERT_TRUE(sched.push(make_item(qos::Class::kBatch, 1, 10), 0).admitted);
  ASSERT_TRUE(sched.push(make_item(qos::Class::kInteractive, 2, 10), 0)
                  .admitted);
  ASSERT_TRUE(sched.push(make_item(qos::Class::kNormal, 3, 10), 0).admitted);
  const auto drained = sched.drain_all();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].tenant, 1u);
  EXPECT_EQ(drained[1].tenant, 2u);
  EXPECT_EQ(drained[2].tenant, 3u);
  EXPECT_EQ(sched.snapshot(0).queued, 0u);
  EXPECT_EQ(sched.snapshot(0).backlog_cost_us, 0u);
}

TEST(Scheduler, SnapshotTracksBacklogAndOldestWait) {
  qos::Scheduler sched;
  ASSERT_TRUE(
      sched.push(make_item(qos::Class::kNormal, 1, 400), 1'000).admitted);
  ASSERT_TRUE(
      sched.push(make_item(qos::Class::kBatch, 2, 600), 5'000).admitted);
  const auto s = sched.snapshot(9'000);
  EXPECT_EQ(s.queued, 2u);
  EXPECT_EQ(s.backlog_cost_us, 1'000u);
  EXPECT_EQ(s.oldest_wait_us, 8'000);
  EXPECT_EQ(s.queued_by_class[1], 1u);
  EXPECT_EQ(s.queued_by_class[2], 1u);
}

// ------------------------------------------------------------ autoscaler

TEST(AutoScaler, GrowsMultiplicativelyOnQueueDelay) {
  qos::AutoScalerOptions opts;
  opts.min_workers = 1;
  opts.max_workers = 16;
  qos::AutoScaler scaler(opts);
  qos::ScaleSignals s;
  s.now_us = 0;
  s.queued = 5;
  s.oldest_wait_us = opts.grow_wait_us;
  s.workers = 2;
  s.busy = 2;
  EXPECT_EQ(scaler.decide(s), 3u);  // 2 + max(1, 2/2)

  // Rate limit: a second trigger inside the eval interval holds steady.
  s.workers = 3;
  s.now_us = opts.eval_interval_us - 1;
  EXPECT_EQ(scaler.decide(s), 3u);

  // Past the interval it compounds: 3 + 3/2.
  s.now_us = opts.eval_interval_us;
  EXPECT_EQ(scaler.decide(s), 4u);
}

TEST(AutoScaler, GrowsOnCostBacklogAlone) {
  qos::AutoScalerOptions opts;
  opts.min_workers = 1;
  opts.max_workers = 8;
  qos::AutoScaler scaler(opts);
  qos::ScaleSignals s;
  s.now_us = 0;
  s.queued = 1;
  s.oldest_wait_us = 0;  // fresh arrivals — delay says nothing yet
  s.backlog_cost_us = opts.backlog_per_worker_us * 4;
  s.workers = 4;
  s.busy = 4;
  EXPECT_EQ(scaler.decide(s), 6u);  // 4 + 4/2
}

TEST(AutoScaler, ShrinkNeedsSustainedIdleAndStepsByOne) {
  qos::AutoScalerOptions opts;
  opts.min_workers = 1;
  opts.max_workers = 8;
  qos::AutoScaler scaler(opts);
  qos::ScaleSignals s;
  s.workers = 4;
  s.queued = 0;
  s.busy = 0;

  s.now_us = 0;  // idle window opens here
  EXPECT_EQ(scaler.decide(s), 4u);
  s.now_us = opts.shrink_after_idle_us - 1;
  EXPECT_EQ(scaler.decide(s), 4u);  // not sustained long enough yet
  s.now_us = opts.shrink_after_idle_us;
  EXPECT_EQ(scaler.decide(s), 3u);  // one worker, not half the pool

  // The window restarts after each shrink: another full idle stretch is
  // required before the next step.
  s.workers = 3;
  s.now_us += opts.eval_interval_us;
  EXPECT_EQ(scaler.decide(s), 3u);
  s.now_us = opts.shrink_after_idle_us + opts.shrink_after_idle_us;
  EXPECT_EQ(scaler.decide(s), 2u);

  // A single busy observation resets the idle timer entirely: the next
  // idle *observation* reopens the window, and a full stretch must pass
  // from there.
  s.workers = 2;
  s.busy = 2;
  s.now_us += opts.eval_interval_us;
  EXPECT_EQ(scaler.decide(s), 2u);
  s.busy = 0;
  s.now_us += opts.eval_interval_us;
  const std::int64_t idle_restart = s.now_us;
  EXPECT_EQ(scaler.decide(s), 2u);  // window reopens here
  s.now_us = idle_restart + opts.shrink_after_idle_us - 1;
  EXPECT_EQ(scaler.decide(s), 2u);
  s.now_us = idle_restart + opts.shrink_after_idle_us;
  EXPECT_EQ(scaler.decide(s), 1u);

  // And never below the floor.
  s.workers = 1;
  s.now_us += 10 * opts.shrink_after_idle_us;
  EXPECT_EQ(scaler.decide(s), 1u);
}

TEST(AutoScaler, ClampsGrowthAtMaxWorkers) {
  qos::AutoScalerOptions opts;
  opts.min_workers = 1;
  opts.max_workers = 4;
  qos::AutoScaler scaler(opts);
  qos::ScaleSignals s;
  s.now_us = 0;
  s.queued = 100;
  s.oldest_wait_us = 1'000'000;
  s.workers = 4;
  s.busy = 4;
  EXPECT_EQ(scaler.decide(s), 4u);
}

// ------------------------------------------------------------ cost model

TEST(CostModel, MethodShapesPriceFromBlocks) {
  qos::CostProfile profile;
  profile.floor_us = 25.0;
  profile.block_decode_us = 12.0;
  profile.replay_us_per_event = 0.15;
  profile.events_per_block = 4096;
  // Fixed-fan counter: every distinct id touches 7 blocks.
  const qos::CostModel model(
      profile, [](std::span<const telemetry::MetricId> ids, util::TimeRange) {
        return std::uint64_t{7} * ids.size();
      });

  server::wire::Request req;
  req.method = server::wire::Method::kPing;
  EXPECT_EQ(model.price(req), 25u);
  req.method = server::wire::Method::kServerStats;
  EXPECT_EQ(model.price(req), 25u);

  req.method = server::wire::Method::kWindowSum;
  req.metric = 3;
  req.range = {0, 3600};
  EXPECT_EQ(model.price(req), static_cast<std::uint64_t>(25.0 + 7 * 12.0));

  req.method = server::wire::Method::kScan;
  req.metrics = {1, 2, 3};
  EXPECT_EQ(model.price(req),
            static_cast<std::uint64_t>(25.0 + 3 * 7 * 12.0));

  // Replay-shaped methods price the streamed events, not just the
  // decode: pue_rollup over 2 nodes = floor + decode + replay.
  req.method = server::wire::Method::kPueRollup;
  req.nodes = {0, 1};
  const double blocks = 2 * 7;
  const auto rollup = static_cast<std::uint64_t>(
      25.0 + blocks * 12.0 + blocks * 4096 * 0.15);
  EXPECT_EQ(model.price(req), rollup);

  // A 3-variant sweep replays baseline + intervention per variant.
  req.method = server::wire::Method::kScenarioSweep;
  req.scenarios.resize(3);
  const auto sweep = static_cast<std::uint64_t>(
      25.0 + blocks * 12.0 + 6.0 * blocks * 4096 * 0.15);
  EXPECT_EQ(model.price(req), sweep);
  EXPECT_GT(sweep, rollup);
}

TEST(CostModel, NullCounterAndEmptyRangesFallToFloor) {
  qos::CostProfile profile;
  const qos::CostModel structural(profile, nullptr);
  server::wire::Request req;
  req.method = server::wire::Method::kScan;
  req.metrics = {1, 2, 3};
  req.range = {0, 1 << 20};
  EXPECT_EQ(structural.price(req),
            static_cast<std::uint64_t>(profile.floor_us));

  const qos::CostModel counted(
      profile,
      [](std::span<const telemetry::MetricId>, util::TimeRange) {
        ADD_FAILURE() << "counter must not run on an inverted range";
        return std::uint64_t{1'000'000};
      });
  req.range = {100, 0};  // inverted — priced structurally, never counted
  EXPECT_EQ(counted.price(req),
            static_cast<std::uint64_t>(profile.floor_us));
}

TEST(CostModel, CalibratesDecodeRateFromBenchJson) {
  const std::string dir = scratch_dir("qos_calib");
  const std::string path = dir + "/BENCH_codec.json";
  {
    std::ofstream out(path);
    out << "{\n  \"decode_into_eps\": 2.048e8,\n  \"other\": 1\n}\n";
  }
  const auto calibrated = qos::CostProfile::from_bench_json(path, 4096);
  // 4096 events / 204.8M events/s = 20 us per block.
  EXPECT_NEAR(calibrated.block_decode_us, 20.0, 1e-9);

  // Missing or malformed files keep the built-in defaults — pricing
  // degrades in accuracy, never in availability.
  const qos::CostProfile defaults;
  const auto missing = qos::CostProfile::from_bench_json(dir + "/nope.json");
  EXPECT_EQ(missing.block_decode_us, defaults.block_decode_us);
  {
    std::ofstream out(path);
    out << "{\n  \"decode_into_eps\": \"fast\"\n}\n";
  }
  const auto malformed = qos::CostProfile::from_bench_json(path);
  EXPECT_EQ(malformed.block_decode_us, defaults.block_decode_us);
}

TEST(CostModel, EstimateMatchesMeasuredBlocksExactly) {
  // The calibration contract behind admission pricing: for a sealed
  // store, estimate_blocks(ids, range) must equal the number of codec
  // blocks a query of exactly that shape actually touches — measured as
  // the block cache's hits+misses delta around the query.
  const std::string dir = scratch_dir("qos_blocks");
  store::StoreOptions opts;
  opts.segment_events = 1024;
  opts.block_events = 256;
  auto store = store::Store::open(dir, opts);

  // Appended in segment-sized slices so the feed seals into several
  // segments (one huge batch would seal as a single oversized one).
  std::vector<telemetry::MetricEvent> batch;
  for (std::uint64_t i = 0; i < 12'000; ++i) {
    telemetry::MetricEvent ev;
    ev.id = static_cast<telemetry::MetricId>(1 + i % 4);
    ev.t = static_cast<util::TimeSec>(i / 4);
    ev.value = static_cast<std::int32_t>(i % 97);
    batch.push_back(ev);
    if (batch.size() == opts.segment_events) {
      store.append(std::move(batch));
      batch.clear();
    }
  }
  store.append(std::move(batch));
  store.flush();
  ASSERT_GT(store.sealed_segments(), 1u);
  ASSERT_NE(store.block_cache(), nullptr);

  const auto measure = [&](std::vector<telemetry::MetricId> ids,
                           util::TimeRange range) {
    const auto before = store.block_cache()->counters();
    const auto runs = store.query_many(ids, range);
    EXPECT_EQ(runs.size(), ids.size());
    const auto after = store.block_cache()->counters();
    return (after.hits + after.misses) - (before.hits + before.misses);
  };

  const std::vector<std::pair<std::vector<telemetry::MetricId>,
                              util::TimeRange>>
      shapes = {
          {{1}, {0, 3'000}},          // full span, one metric
          {{1, 2, 3, 4}, {0, 3'000}}, // full span, all metrics
          {{2, 3}, {700, 1'400}},     // interior window
          {{4}, {2'900, 9'999}},      // tail past the data
      };
  for (const auto& [ids, range] : shapes) {
    const std::uint64_t estimated = store.estimate_blocks(ids, range);
    EXPECT_GT(estimated, 0u);
    // Cold and warm reads touch the same blocks; only the hit/miss split
    // moves between the two passes.
    EXPECT_EQ(measure(ids, range), estimated)
        << "cold read of " << ids.size() << " ids";
    EXPECT_EQ(measure(ids, range), estimated)
        << "warm read of " << ids.size() << " ids";
  }

  // Duplicate ids collapse on both sides of the equation.
  const std::vector<telemetry::MetricId> dup = {1, 1, 2};
  const std::vector<telemetry::MetricId> uniq = {1, 2};
  EXPECT_EQ(store.estimate_blocks(dup, {0, 3'000}),
            store.estimate_blocks(uniq, {0, 3'000}));
}

// ------------------------------------------------------------ worker pool

TEST(WorkerPool, RunsQueuedWorkAndLeavesRestToOwnerOnStop) {
  qos::Scheduler sched;
  qos::WorkerPoolOptions opts;
  opts.autoscaler.min_workers = 2;
  opts.autoscaler.max_workers = 2;
  qos::WorkerPool pool(&sched, opts, nullptr);
  EXPECT_EQ(pool.workers(), 2u);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  for (int i = 0; i < 8; ++i) {
    qos::Item item;
    item.cls = i % 2 == 0 ? qos::Class::kInteractive : qos::Class::kBatch;
    item.tenant = static_cast<std::uint64_t>(i % 3);
    item.cost_us = 50;
    item.run = [&] {
      std::lock_guard lk(mu);
      ++done;
      cv.notify_all();
    };
    ASSERT_TRUE(sched.push(std::move(item), 0).admitted);
    pool.notify();
  }
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return done == 8; });
  }
  pool.stop();
  EXPECT_EQ(pool.workers(), 0u);

  // Work queued after stop stays in the scheduler: the pool never owns
  // undone items — the service drains and sheds them at shutdown.
  ASSERT_TRUE(sched.push(make_item(qos::Class::kNormal, 0, 10), 0).admitted);
  pool.notify();
  EXPECT_EQ(sched.drain_all().size(), 1u);
}

}  // namespace
