#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "qos/cost.hpp"
#include "qos/pool.hpp"
#include "qos/scheduler.hpp"
#include "server/wire.hpp"
#include "store/store.hpp"
#include "stream/quantile.hpp"
#include "util/sim_time.hpp"
#include "util/thread_pool.hpp"

namespace exawatt::server {

class ChunkWriter;

/// Cooperative cancellation: the server trips one token per connection
/// when the peer disconnects; queued work observes it before starting,
/// streaming work between ticks.
using CancelToken = std::shared_ptr<std::atomic<bool>>;

[[nodiscard]] inline CancelToken make_cancel_token() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// Tuning of the service's admission path: cost-model pricing,
/// per-class per-tenant fair scheduling and the service's own autoscaled
/// worker pool. One class, one tenant and min_workers == max_workers
/// make it a plain bounded FIFO on fixed workers.
struct QosOptions {
  /// Unit costs behind admission pricing; calibrate with
  /// qos::CostProfile::from_bench_json when a BENCH_codec.json exists.
  qos::CostProfile cost;
  /// max_queue is overridden with ServiceOptions::queue_limit so the
  /// service keeps one admission knob.
  qos::SchedulerOptions scheduler;
  qos::WorkerPoolOptions pool;
  /// Block counter behind the cost model. Defaulted to the service's
  /// own Store in the store-backed constructor; a custom-executor
  /// front-end may leave it null (structure-only pricing) or install a
  /// directory-based one.
  qos::BlockCounter blocks;
};

struct ServiceOptions {
  /// Bound on the scheduler's queued set (running work does not count):
  /// an arrival that would exceed it sheds the worst queued item by
  /// (class, cost, age) — the arrival itself when it is the worst — with
  /// an explicit RESOURCE_EXHAUSTED response. The overloaded server stays
  /// predictable instead of building an unbounded backlog of work it
  /// will finish after every deadline has passed.
  std::size_t queue_limit = 256;
  /// Read by no code: every service runs its own QoS workers. Kept only
  /// so embedders that still assign it compile.
  util::ThreadPool* pool = nullptr;
  /// Deadline/latency clock; nullptr selects the steady wall clock.
  /// Tests install a util::ManualClock to make expiry deterministic.
  util::Clock* clock = nullptr;
  /// Applied when a request carries no deadline; 0 = unbounded.
  std::uint32_t default_deadline_ms = 0;
  /// Admission tuning; disengaged means QosOptions{}.
  std::optional<QosOptions> qos = std::nullopt;
};

/// Wire-supplied time grids are adversarial. Accepts only (range, window)
/// pairs whose window count can be computed without signed overflow and
/// whose grid stays under 2^24 windows (what a year of 1 Hz data can
/// legitimately need); on rejection `*why` explains. Shared by the
/// store-backed executor and the cluster coordinator so both ends of a
/// scatter agree on what a valid grid is.
[[nodiscard]] bool grid_ok(util::TimeRange range, util::TimeSec window,
                           std::string* why);

/// Validate a kScenario/kScenarioSweep request against the data hull
/// (`bounds`: Store::bounds() or the cluster hull) and produce the
/// clamped engine options both executors replay with. On rejection fills
/// `*resp` with INVALID_ARGUMENT and returns false. Shared by the
/// store-backed executor and the cluster coordinator so a sweep is valid
/// on one exactly when it is valid on the other.
[[nodiscard]] bool scenario_request_ok(const wire::Request& request,
                                       util::TimeRange bounds,
                                       stream::EngineOptions* opts,
                                       wire::Response* resp);

/// Snapshot of the service counters (kServerStats carries them by name).
struct ServiceMetrics {
  std::uint64_t accepted = 0;           ///< admitted into the queue
  std::uint64_t served = 0;             ///< finished with kOk
  std::uint64_t shed = 0;               ///< RESOURCE_EXHAUSTED at admission
  std::uint64_t deadline_exceeded = 0;  ///< expired before/while executing
  std::uint64_t cancelled = 0;          ///< peer vanished first
  std::uint64_t failed = 0;             ///< execution threw (kInternal)
  std::uint64_t queue_depth = 0;        ///< queued, running or in `done`
  double p50_ms = 0.0;                  ///< admission->completion latency
  double p99_ms = 0.0;
  std::uint64_t qos_workers = 0;          ///< live worker threads
  std::uint64_t qos_backlog_cost_us = 0;  ///< estimated queued cost
  std::array<std::uint64_t, qos::kClassCount> class_served{};
  std::array<std::uint64_t, qos::kClassCount> class_shed{};
  std::array<double, qos::kClassCount> class_p99_ms{};
};

/// The RPC service over one Store: stateless query execution behind
/// cost-priced, class- and tenant-fair admission with deadlines, run by
/// the service's own autoscaled workers.
///
/// Threading contract: `submit` may be called from any thread (the
/// server calls it from the event-loop thread). The `done` callback is
/// invoked exactly once — inline on the submitting thread for drain
/// rejections and for sheds at admission (the arrival itself, or the
/// queued item it displaced), on a worker thread otherwise. `emit`
/// (subscription ticks) fires zero or more times strictly before `done`,
/// always on the worker thread.
class QueryService {
 public:
  using Emit = std::function<void(const wire::Tick&)>;
  using Done = std::function<void(wire::Response&&)>;

  /// Subscription executor installed by the endpoint (the serve command
  /// wires a store replay here). Must honor `cancel` between ticks and
  /// return when it fires; runs entirely on a worker thread.
  using SubscribeSource = std::function<void(
      const wire::Request&, const CancelToken&, const Emit&)>;

  /// Produces the response body for one admitted request — the seam that
  /// lets a cluster coordinator sit behind the same admission queue,
  /// deadline policy and counters as a plain store shard. Must poll
  /// `cancel` and the absolute `deadline_us` (0 = none) in long bodies.
  /// The `Emit` is the request's tick channel (null when the caller
  /// cannot stream): kScenarioSweep pushes per-variant windows through
  /// it ahead of the summary response, every other method ignores it.
  /// kServerStats never reaches the executor: the service answers it
  /// itself (the counters are its own). `stream` (null when the request
  /// did not ask for chunking) is the chunked response channel: a
  /// streaming-aware body writes encoded response bytes through it as
  /// they are produced — pausing under backpressure inside
  /// ChunkWriter — and returns a kOk response with `streamed` data left
  /// empty; a body that ignores it is materialized and chunked by the
  /// server afterwards.
  using Executor = std::function<wire::Response(
      const wire::Request&, const CancelToken&, std::int64_t, const Emit&,
      ChunkWriter*)>;

  /// Hook appending endpoint-specific counters to a kServerStats
  /// response (a coordinator its upstream-link health, the server its
  /// stream and transport counters). Augments chain: each registered
  /// hook runs in registration order over the same list.
  using StatsAugment = std::function<void(wire::ServerStatsWire&)>;

  /// Store-backed service: executor = `make_store_executor(store, ...)`.
  /// The cost model's block counter defaults to this store.
  QueryService(const store::Store& store, ServiceOptions options = {});
  /// Custom-executor service (the cluster coordinator front-end).
  QueryService(Executor executor, ServiceOptions options = {});
  ~QueryService();

  /// No subscription source installed => kSubscribe gets kUnimplemented.
  void set_subscribe_source(SubscribeSource source);
  /// Appends (does not replace): augments accumulate and run in order.
  void set_stats_augment(StatsAugment augment);

  /// `stream` must outlive the request (the server keeps its shared_ptr
  /// alive in `done`); null = the request did not ask for chunking.
  void submit(wire::Request request, CancelToken cancel, Emit emit,
              Done done, ChunkWriter* stream = nullptr);

  [[nodiscard]] ServiceMetrics metrics() const;

  /// Graceful shutdown: stop admitting (new requests get kUnavailable)
  /// and block until every queued/running request has completed and its
  /// `done` callback has returned. `timeout_ms` >= 0 bounds the wait;
  /// true once idle, false if the time ran out first (admission stays
  /// closed either way).
  bool drain(int timeout_ms = -1);

  /// Enqueue endpoint-internal work (background compaction) as a QoS
  /// citizen of `cls`: it waits its class turn, can be shed under
  /// pressure (it simply does not run — the caller's cadence retries),
  /// and drain() waits for it. `cost_us` is the caller's estimate for
  /// backlog accounting and shed ordering. `dropped` (optional) fires
  /// instead of `work` when the item is shed or refused at admission
  /// (draining included), so callers can release an in-flight latch.
  void submit_internal(qos::Class cls, std::uint64_t cost_us,
                       std::function<void()> work,
                       std::function<void()> dropped = nullptr);

  /// Execute one request body, bypassing admission — the single code
  /// path the admitted worker and the in-process tests share, so
  /// over-the-wire results are the store's results by construction.
  /// Long-running bodies (the PUE roll-up replay walks its range second
  /// by second) poll `cancel` and `deadline_us` (absolute clock
  /// microseconds, 0 = none) and abandon the work with kCancelled /
  /// kDeadlineExceeded instead of occupying a worker past the point
  /// anyone wants the answer. `emit` is the tick channel (sweep
  /// streaming) and `stream` the chunked response channel; without them
  /// streaming methods answer without ticks and results materialize in
  /// the Response.
  [[nodiscard]] wire::Response execute(const wire::Request& request,
                                       const CancelToken& cancel = {},
                                       std::int64_t deadline_us = 0,
                                       const Emit& emit = {},
                                       ChunkWriter* stream = nullptr) const;

 private:
  /// Everything one admitted request carries through the queue; shared
  /// between the run and shed closures (exactly one of which fires).
  struct Admitted {
    wire::Request request;
    CancelToken cancel;
    Emit emit;
    Done done;
    ChunkWriter* stream = nullptr;
    SubscribeSource subscribe;
    std::int64_t admitted_us = 0;
    std::int64_t deadline_us = 0;
    qos::Class cls = qos::kDefaultClass;
    std::uint64_t cost_us = 0;  ///< admission estimate
  };

  /// The admitted execution body: cancel/deadline gates, subscribe
  /// routing, executor call, finish.
  void run_admitted(const std::shared_ptr<Admitted>& a);
  void finish(std::int64_t admitted_us, qos::Class cls,
              wire::Response&& response, const Done& done);
  Executor executor_;
  ServiceOptions options_;  ///< qos always engaged (defaults filled in)
  util::Clock& clock_;
  SubscribeSource subscribe_;
  std::vector<StatsAugment> stats_augments_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  bool draining_ = false;
  std::uint64_t depth_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t failed_ = 0;
  stream::P2Quantile lat_p50_;
  stream::P2Quantile lat_p99_;
  /// Per-class counters are guarded by mu_ like the totals above. The
  /// pool is declared last so it is destroyed (stopping its workers)
  /// before the scheduler and cost model they pull from.
  std::array<std::uint64_t, qos::kClassCount> class_served_{};
  std::array<std::uint64_t, qos::kClassCount> class_shed_{};
  std::array<stream::P2Quantile, qos::kClassCount> class_p99_;
  qos::CostModel qos_cost_;
  qos::Scheduler qos_sched_;
  qos::WorkerPool qos_pool_;
};

/// The canonical store-backed executor: every non-stats method of the
/// wire protocol evaluated against one Store. `clock` drives deadline
/// polling in long bodies (nullptr = steady wall clock) and should match
/// the owning service's clock so ManualClock tests stay deterministic.
[[nodiscard]] QueryService::Executor make_store_executor(
    const store::Store& store, util::Clock* clock = nullptr);

/// The scenario body on already-fetched input-power runs: replay the
/// baseline plus every requested variant (a sweep fans variants out over
/// dedicated worker threads), stream kVariantWindow ticks through `emit`
/// when the request's subscribe mask asks for them, and fill `*resp`
/// with series/summaries — or the kCancelled / kDeadlineExceeded verdict
/// when a leg was abandoned. The store executor and the cluster
/// coordinator both run exactly this function, differing only in where
/// the runs came from (local query_many vs shard scatter).
void run_scenario_request(const wire::Request& request,
                          const std::vector<store::MetricRun>& runs,
                          const stream::EngineOptions& opts,
                          const CancelToken& cancel,
                          std::int64_t deadline_us, util::Clock& clock,
                          const QueryService::Emit& emit,
                          wire::Response* resp);

}  // namespace exawatt::server
