#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "serving.hpp"
#include "store/block_cache.hpp"
#include "trace.hpp"

namespace exawatt::perf {

namespace {

namespace fs = std::filesystem;

// --- process resources -----------------------------------------------------

double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double entries(const char* dir) {
  std::error_code ec;
  double n = 0;
  for (auto it = fs::directory_iterator(dir, ec); !ec && it != fs::end(it);
       it.increment(ec)) {
    ++n;
  }
  return n;
}

struct Usage {
  double cpu_ms = 0.0;
  double ctx_switches = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime) + ms(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

/// Samples resident memory, thread and fd counts and the QoS worker count
/// at 10 Hz while a measured phase runs, keeping the peaks.
class ProcSampler {
 public:
  explicit ProcSampler(std::function<double()> workers)
      : workers_(std::move(workers)), thread_([this] { loop(); }) {}
  ~ProcSampler() { stop(); }
  ProcSampler(const ProcSampler&) = delete;
  ProcSampler& operator=(const ProcSampler&) = delete;

  void stop() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  double peak_rss_mb = 0.0;
  double peak_threads = 0.0;
  double peak_fds = 0.0;
  double peak_workers = 0.0;

 private:
  void sample() {
    peak_rss_mb = std::max(peak_rss_mb, rss_mb());
    peak_threads = std::max(peak_threads, entries("/proc/self/task"));
    peak_fds = std::max(peak_fds, entries("/proc/self/fd"));
    peak_workers = std::max(peak_workers, workers_());
  }
  void loop() {
    std::unique_lock lk(mu_);
    do {
      lk.unlock();
      sample();
      lk.lock();
    } while (!cv_.wait_for(lk, std::chrono::milliseconds(100),
                           [this] { return stop_; }));
    sample();
  }

  std::function<double()> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// The latency metrics every workload reports: the geometric mean of each
/// method's median (a mixed-method median is bimodal, and a seed that
/// draws more of a slow method must not move it), and the p90 over all
/// requests — the highest percentile with ten samples beyond it on the
/// workload with the fewest requests (cluster, ≈180 per run). Each
/// method's own median is a per-layer row.
void set_latency(const std::vector<Sample>& samples, Metrics& e, Metrics& l) {
  std::map<Op, std::vector<double>> by_op;
  std::vector<double> all;
  for (const Sample& s : samples) {
    by_op[s.op].push_back(s.ms);
    all.push_back(s.ms);
  }
  std::vector<double> medians;
  for (const auto& [op, v] : by_op) {
    medians.push_back(median(v));
    l.set(std::string("latency_p50_ms.") + op_name(op), medians.back(), "ms");
  }
  e.set("latency_p50_ms", geomean(medians), "ms");
  e.set("latency_p90_ms", quantile(all, 0.90), "ms");
}

// --- request workloads ------------------------------------------------------

int power_channel() {
  return telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
}

util::TimeRange random_range(util::Rng& rng, util::TimeRange bounds,
                             util::TimeSec length) {
  const util::TimeSec begin =
      bounds.begin + static_cast<util::TimeSec>(rng.uniform_index(
                         static_cast<std::uint64_t>(bounds.duration() - length) + 1));
  return {begin, begin + length};
}

machine::NodeId random_node(util::Rng& rng, const Feed& feed) {
  return feed.nodes[rng.uniform_index(feed.nodes.size())];
}

void add_node_channels(machine::NodeId node, wire::Request& w) {
  for (int ch = 0; ch < telemetry::metrics_per_node(); ++ch) {
    w.metrics.push_back(telemetry::metric_id(node, ch));
  }
}

Req window_sum(telemetry::MetricId id, util::TimeRange range) {
  Req r;
  r.op = Op::kWindowSum;
  r.wire.method = wire::Method::kWindowSum;
  r.wire.metric = id;
  r.wire.range = range;
  r.wire.window = 10;
  return r;
}

Req cluster_sum(const Feed& feed) {
  Req r;
  r.op = Op::kClusterSum;
  r.wire.method = wire::Method::kClusterSum;
  r.wire.nodes = feed.nodes;
  r.wire.channel = power_channel();
  r.wire.range = feed.window;
  r.wire.window = 10;
  return r;
}

Req scan(util::TimeRange range) {
  Req r;
  r.op = Op::kScan;
  r.wire.method = wire::Method::kScan;
  r.wire.range = range;
  return r;
}

/// Decode every stored block once through each store's block cache, so
/// the caches hold what a long-running server's would before anything is
/// timed (for `large`, whatever the LRU keeps of twice its budget).
void fill_caches(const std::vector<store::Store>& stores) {
  constexpr std::size_t kChunk = 1024;  // ids per fan-out query
  for (const store::Store& s : stores) {
    const std::vector<telemetry::MetricId> ids = s.metrics();
    for (std::size_t i = 0; i < ids.size(); i += kChunk) {
      const std::span<const telemetry::MetricId> chunk(
          ids.data() + i, std::min(kChunk, ids.size() - i));
      (void)s.query_many(chunk, s.bounds());
    }
  }
}

/// Draws request `index` of `client`'s list.
using Draw = std::function<Req(util::Rng&, const Feed&, std::size_t index,
                               std::size_t client)>;

/// Operators' dashboards: cheap reads on a hot cache.
Req draw_dashboard(util::Rng& rng, const Feed& feed, std::size_t,
                   std::size_t client) {
  Req r;
  const double u = rng.uniform();
  if (u < 0.40) {
    r = window_sum(telemetry::metric_id(random_node(rng, feed), power_channel()),
                   {feed.window.end - 10 * util::kMinute, feed.window.end});
    r.wire.qos_class = 0;
  } else if (u < 0.65) {
    r = cluster_sum(feed);
  } else if (u < 0.80) {
    r = scan(random_range(rng, feed.window, 5 * util::kMinute));
    for (int i = 0; i < 16; ++i) {
      r.wire.metrics.push_back(telemetry::metric_id(
          random_node(rng, feed),
          static_cast<int>(rng.uniform_index(telemetry::metrics_per_node()))));
    }
  } else {
    r.wire.qos_class = 0;  // ping
  }
  r.wire.tenant = static_cast<std::uint32_t>(client + 1);
  return r;
}

/// Analysts' scans over a working set twice the block cache, alternating
/// the classic and the chunked block form.
Req draw_scan(util::Rng& rng, const Feed& feed, std::size_t index,
              std::size_t) {
  Req r = scan(random_range(rng, feed.window, 20 * util::kMinute));
  const machine::NodeId a = random_node(rng, feed);
  machine::NodeId b = random_node(rng, feed);
  while (b == a) b = random_node(rng, feed);
  add_node_channels(a, r.wire);
  add_node_channels(b, r.wire);
  if (index % 2 == 1) {
    r.op = Op::kScanBlocks;
    r.wire.chunk_bytes = 256 << 10;
    r.wire.want_scan_blocks = true;
  }
  return r;
}

/// What-if replays: CPU in the streaming roll-up and the sweep threads.
Req draw_replay(util::Rng& rng, const Feed& feed, std::size_t index,
                std::size_t client) {
  Req r;
  r.wire.nodes = feed.nodes;
  r.wire.range = feed.window;
  r.wire.window = 10;
  if (index % 2 == 0) {
    r.op = Op::kPueRollup;
    r.wire.method = wire::Method::kPueRollup;
  } else {
    r.op = Op::kScenarioSweep;
    r.wire.method = wire::Method::kScenarioSweep;
    r.wire.subscribe_mask = 0;  // summaries only
    for (int v = 0; v < 4; ++v) {
      scenario::ScenarioSpec spec;
      spec.name = "cap-" + std::to_string(v);
      spec.power_cap_w = rng.uniform(8e6, 16e6);
      r.wire.scenarios.push_back(spec);
    }
  }
  r.wire.qos_class = 2;
  r.wire.tenant = static_cast<std::uint32_t>(client + 1);
  return r;
}

/// Sharded reads: coordinator scatter/merge and per-leg transport.
Req draw_cluster(util::Rng& rng, const Feed& feed, std::size_t index,
                 std::size_t) {
  if (index % 2 == 0) return cluster_sum(feed);
  Req r = scan(random_range(rng, feed.window, 10 * util::kMinute));
  add_node_channels(random_node(rng, feed), r.wire);
  return r;
}

struct RequestWorkload {
  DataSpec data;
  std::size_t shards = 1;
  std::size_t clients = 2;
  double rate_per_s = 0.0;  ///< > 0: open loop at this total rate
  std::size_t warmup = 0;   ///< warm-up requests per set-up
  Draw draw;
};

/// Closed-loop lists are long enough never to cycle within a run.
constexpr std::size_t kClosedListLength = 5000;

Traffic make_traffic(const RequestWorkload& w, const Feed& feed,
                     std::uint64_t seed, double seconds) {
  const util::Rng root(seed);
  Traffic t;
  t.check_offset = root.substream(4, 0).uniform_index(50);
  for (std::size_t c = 0; c < w.clients; ++c) {
    util::Rng rng = root.substream(1, c);
    std::size_t n = kClosedListLength;
    if (w.rate_per_s > 0) {
      util::Rng arrivals = root.substream(3, c);
      const double rate = w.rate_per_s / static_cast<double>(w.clients);
      std::vector<double>& due = t.due_us.emplace_back();
      for (double at = arrivals.exponential(rate); at < seconds;
           at += arrivals.exponential(rate)) {
        due.push_back(at * 1e6);
      }
      n = due.size();
    }
    std::vector<Req>& list = t.lists.emplace_back();
    for (std::size_t i = 0; i < n; ++i) list.push_back(w.draw(rng, feed, i, c));
  }
  return t;
}

/// The traced passes replay the first requests in the order the clients
/// would issue them, as many as keep one pass near a second.
std::vector<Req> trace_prefix(const Traffic& t, const PhaseResult& phase) {
  double mean = 0.0;
  for (const Sample& s : phase.samples) {
    mean += s.ms / static_cast<double>(phase.samples.size());
  }
  const auto want = static_cast<std::size_t>(
      std::clamp(1000.0 / std::max(mean, 1e-3), 20.0, 400.0));
  std::vector<Req> reqs;
  for (std::size_t i = 0; reqs.size() < want; ++i) {
    for (const auto& list : t.lists) {
      if (i < list.size() && reqs.size() < want) reqs.push_back(list[i]);
    }
  }
  return reqs;
}

/// Cumulative counters read before and after the measured phase; the
/// per-layer metrics are their differences. Servers and services are
/// summed over the front and (for a cluster) every shard.
struct Counters {
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double frames_out = 0;
  double bytes_out = 0;
  double stream_pauses = 0;
  double shed = 0;
  double legs = 0;
  double legs_answered = 0;  ///< legs with any response
  double leg_errors = 0;     ///< non-OK responses and transport failures
  double leg_us = 0;
  Usage usage;

  Counters operator-(const Counters& o) const {
    return {cache_hits - o.cache_hits,       cache_misses - o.cache_misses,
            cache_evictions - o.cache_evictions, frames_out - o.frames_out,
            bytes_out - o.bytes_out,         stream_pauses - o.stream_pauses,
            shed - o.shed,                   legs - o.legs,
            legs_answered - o.legs_answered, leg_errors - o.leg_errors,
            leg_us - o.leg_us,
            {usage.cpu_ms - o.usage.cpu_ms,
             usage.ctx_switches - o.usage.ctx_switches}};
  }
};

Counters counters(const std::vector<store::Store>& stores, Topology& topo) {
  Counters c;
  for (const store::Store& s : stores) {
    const store::CacheCounters k = s.block_cache()->counters();
    c.cache_hits += static_cast<double>(k.hits);
    c.cache_misses += static_cast<double>(k.misses);
    c.cache_evictions += static_cast<double>(k.evictions);
  }
  const auto add = [&c](server::Server& server) {
    const net::LoopStats l = server.loop_stats();
    c.frames_out += static_cast<double>(l.frames_out);
    c.bytes_out += static_cast<double>(l.bytes_out);
    c.stream_pauses += static_cast<double>(l.stream_pauses);
    c.shed += static_cast<double>(server.service().metrics().shed);
  };
  add(topo.server());
  if (ClusterHost* cluster = topo.cluster()) {
    for (const auto& shard : cluster->shards()) add(shard->server());
    for (const cluster::ShardStats& s : cluster->coordinator().shard_stats()) {
      c.legs += static_cast<double>(s.calls);
      c.legs_answered += static_cast<double>(s.ok + s.shed + s.deadline_exceeded +
                                             s.other_errors);
      c.leg_errors += static_cast<double>(s.shed + s.deadline_exceeded +
                                          s.other_errors + s.transport_errors);
      c.leg_us += static_cast<double>(s.latency_us_total);
    }
  }
  c.usage = usage_now();
  return c;
}

/// QoS workers serving the stores (the cluster front runs the FIFO).
double qos_workers(Topology& topo) {
  ClusterHost* cluster = topo.cluster();
  if (cluster == nullptr) {
    return static_cast<double>(topo.service().metrics().qos_workers);
  }
  double n = 0;
  for (const auto& shard : cluster->shards()) {
    n += static_cast<double>(shard->service().metrics().qos_workers);
  }
  return n;
}

RunResult run_requests(const RunConfig& config, const RequestWorkload& w) {
  RunResult result;
  const double g0 = now_us();
  Feed feed = generate_feed(w.data, config.seed, /*per_second=*/false);
  const double gen_s = (now_us() - g0) / 1e6;
  std::fprintf(stderr, "%s: %llu events over %zu nodes generated in %.2f s\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(feed.events), feed.nodes.size(),
               gen_s);

  std::vector<Req> warmup;
  {
    util::Rng rng = util::Rng(config.seed).substream(2, 0);
    for (std::size_t i = 0; i < w.warmup; ++i) {
      warmup.push_back(w.draw(rng, feed, i, 0));
    }
  }

  const std::string root = config.out_dir + "/data/" + config.workload;
  // The topology is declared after the stores it serves, so it stops first.
  std::vector<store::Store> stores;
  std::unique_ptr<Topology> topo;
  std::vector<double> setup_s;
  std::vector<double> open_ms;
  for (int k = 0; k < config.setups; ++k) {
    topo.reset();
    stores.clear();
    fs::remove_all(root);
    const double t0 = now_us();
    const std::vector<std::string> dirs = write_stores(feed, root, w.shards);
    const double t1 = now_us();
    for (const std::string& dir : dirs) stores.push_back(store::Store::open(dir));
    open_ms.push_back((now_us() - t1) / 1e3);
    const double t2 = now_us();
    fill_caches(stores);
    topo = std::make_unique<Topology>(stores);
    warm_up(topo->port(), warmup);
    setup_s.push_back((now_us() - t0) / 1e6);
    std::fprintf(stderr,
                 "%s: set-up %d: write %.2f s, open %.1f ms, warm-up %.2f s\n",
                 config.workload.c_str(), k + 1, (t1 - t0) / 1e6, open_ms.back(),
                 (now_us() - t2) / 1e6);
  }

  std::uint64_t stored_events = 0;
  std::uint64_t stored_bytes = 0;
  for (const store::Store& s : stores) {
    stored_events += s.total_events();
    stored_bytes += s.stored_bytes();
  }
  if (stored_events != feed.events) {
    throw GateFailure("stores hold " + std::to_string(stored_events) +
                      " events, the feed had " + std::to_string(feed.events));
  }

  // The cluster's answers are checked against one store holding the
  // unsharded data (the clustercheck contract); a single store server's
  // against its own QueryService::execute.
  std::optional<store::Store> unsharded;
  std::optional<server::QueryService> unsharded_service;
  if (w.shards > 1) {
    unsharded.emplace(store::Store::open(
        write_stores(feed, root + "/unsharded", 1).front()));
    unsharded_service.emplace(*unsharded);
  }
  const store::Store& direct = unsharded ? *unsharded : stores.front();
  const server::QueryService& reference =
      unsharded_service ? *unsharded_service : topo->service();
  // Hand the consumed feed back to the OS, so the resident-memory peak
  // measures the system under test, not its inputs.
  decltype(feed.batches)().swap(feed.batches);
  malloc_trim(0);

  const Traffic traffic = make_traffic(w, feed, config.seed, config.seconds);
  const Counters before = counters(stores, *topo);
  ProcSampler sampler([&topo] { return qos_workers(*topo); });
  const PhaseResult phase = run_phase(topo->port(), traffic, config.seconds);
  sampler.stop();
  const Counters d = counters(stores, *topo) - before;

  if (phase.degraded > 0) {
    throw GateFailure(std::to_string(phase.degraded) +
                      " responses reported lost blocks or segments");
  }
  const std::size_t mismatches = parity_mismatches(phase.checks, reference);
  if (mismatches > 0) {
    throw GateFailure(std::to_string(mismatches) + " of " +
                      std::to_string(phase.checks.size()) +
                      " sampled answers differ from direct execution");
  }
  std::fprintf(stderr, "%s: %zu sampled answers match direct execution\n",
               config.workload.c_str(), phase.checks.size());

  std::uint64_t ok = 0;
  std::uint64_t volume = 0;
  for (const Sample& s : phase.samples) {
    ok += s.ok ? 1 : 0;
    volume += s.volume;
  }
  result.attempted = phase.samples.size();
  result.failed = result.attempted - ok;
  const double n = static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));

  Metrics& e = result.end_to_end;
  e.set("setup_s", median(setup_s), "s");
  e.set("throughput_ops_per_s", static_cast<double>(ok) / phase.elapsed_s, "1/s");
  e.set("events_per_s", static_cast<double>(volume) / phase.elapsed_s, "1/s");
  set_latency(phase.samples, e, result.per_layer);
  e.set("peak_rss_mb", sampler.peak_rss_mb, "MB");
  e.set("stored_bytes_per_event",
        static_cast<double>(stored_bytes) / static_cast<double>(stored_events),
        "B");

  Metrics& l = result.per_layer;
  l.set("net.frames_per_req", d.frames_out / n, "count");
  l.set("net.bytes_out_per_req", d.bytes_out / n, "B");
  l.set("net.stream_pauses", d.stream_pauses, "count");
  l.set("qos.shed", d.shed, "count");
  l.set("qos.workers.peak", sampler.peak_workers, "count");
  const double blocks = d.cache_hits + d.cache_misses;
  l.set("store.cache_hit_ratio", blocks > 0 ? d.cache_hits / blocks : 0.0,
        "ratio");
  l.set("store.cache_evictions_per_req", d.cache_evictions / n, "count");
  l.set("store.blocks_per_req", blocks / n, "count");
  l.set("store.open_ms", median(open_ms), "ms");
  l.set("cluster.legs_per_req", d.legs / n, "count");
  l.set("cluster.leg_ms.mean",
        d.legs_answered > 0 ? d.leg_us / d.legs_answered / 1e3 : 0.0, "ms");
  l.set("cluster.leg_errors", d.leg_errors, "count");
  l.set("proc.threads.peak", sampler.peak_threads, "count");
  l.set("proc.fds.peak", sampler.peak_fds, "count");
  l.set("proc.cpu_ms_per_op", d.usage.cpu_ms / n, "ms");
  l.set("proc.ctx_switches_per_op", d.usage.ctx_switches / n, "count");
  l.set("gen.late_ms.p99", quantile(phase.late_ms, 0.99), "ms");
  l.set("gen.inputs_s", gen_s, "s");

  if (config.trace) {
    std::string why;
    if (!trace_passes(stores, *topo, direct, trace_prefix(traffic, phase),
                      w.clients,
                      config.out_dir + "/" + config.workload + ".trace.json",
                      &l, &why)) {
      throw GateFailure("trace: " + why);
    }
  }
  topo.reset();
  stores.clear();
  unsharded_service.reset();
  unsharded.reset();
  fs::remove_all(root);
  return result;
}

// --- ingest ------------------------------------------------------------------

struct IdTotal {
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// The generator's side of the ingest gate: per-id value sums and counts.
std::unordered_map<telemetry::MetricId, IdTotal> totals_of(const Feed& feed,
                                                           int replays) {
  std::unordered_map<telemetry::MetricId, IdTotal> totals;
  for (const auto& batch : feed.batches) {
    for (const telemetry::MetricEvent& ev : batch) {
      IdTotal& t = totals[ev.id];
      t.sum += static_cast<double>(ev.value) * replays;
      t.count += static_cast<std::uint64_t>(replays);
    }
  }
  return totals;
}

void check_ingest(const std::string& dir, std::uint64_t events,
                  const std::unordered_map<telemetry::MetricId, IdTotal>& totals,
                  util::TimeRange range, const char* when) {
  const double t0 = now_us();
  const store::Store s = store::Store::open(dir);
  if (s.total_events() != events) {
    throw GateFailure(std::string("ingest ") + when + ": reopened store holds " +
                      std::to_string(s.total_events()) + " events, expected " +
                      std::to_string(events));
  }
  const std::vector<std::pair<telemetry::MetricId, IdTotal>> all(
      totals.begin(), totals.end());
  constexpr std::size_t kThreads = 4;
  run_threads(kThreads, [&](std::size_t t) {
    for (std::size_t i = t; i < all.size(); i += kThreads) {
      const auto& [id, want] = all[i];
      store::QueryStats stats;
      const store::WindowSum got =
          s.window_sum(id, range, range.duration(), nullptr, &stats);
      if (stats.degraded() || got.size() != 1 || got.sum[0] != want.sum ||
          got.count[0] != want.count) {
        throw GateFailure(std::string("ingest ") + when + ": metric " +
                          std::to_string(id) + " sums differ from the feed");
      }
    }
  });
  std::fprintf(stderr, "ingest %s: %zu metric sums match the feed (%.2f s)\n",
               when, totals.size(), (now_us() - t0) / 1e6);
}

struct IngestRep {
  double write_s = 0.0;  ///< append + flush
  double compact_s = 0.0;
  double segments = 0.0;
  std::uint64_t compact_events_in = 0;
  std::uint64_t stored_bytes = 0;
  double write_amplification = 0.0;
};

/// Bytes of the segments in `b` that are not in `a`.
std::uint64_t new_bytes(const std::vector<store::SegmentMeta>& a,
                        const std::vector<store::SegmentMeta>& b) {
  std::uint64_t bytes = 0;
  for (const store::SegmentMeta& s : b) {
    const bool old = std::any_of(a.begin(), a.end(), [&](const auto& o) {
      return o.file == s.file;
    });
    if (!old) bytes += s.bytes;
  }
  return bytes;
}

/// Per-operation timings of ingest passes.
struct IngestLog {
  std::vector<double> op_ms;  ///< one simulated minute: 60 appends + flush
  std::vector<double> append_us;
  std::vector<double> flush_ms;
  /// Reopening the ingested store: the recovery pass a restarted server
  /// pays before it can serve what was written (ingest's set-up).
  std::vector<double> open_ms;
};

/// One ingest pass: every replay of the feed appended batch by batch, each
/// simulated minute (60 batches) sealed by a flush, then one compaction
/// pass. `gate` runs on the closed store before and after compaction;
/// spans go to `tracer` if set.
IngestRep ingest_once(const Feed& feed, int replays, const std::string& dir,
                      IngestLog* log, Tracer* tracer,
                      const std::function<void(const char*)>& gate) {
  IngestRep rep;
  fs::remove_all(dir);
  {
    store::Store s = store::Store::open(dir);
    const std::size_t n = feed.batches.size();
    std::uint64_t op = 0;
    for (int r = 0; r < replays; ++r) {
      for (std::size_t b = 0; b < n; b += 60) {
        // The minute's batches, shifted to replay r, are prepared untimed.
        std::vector<std::vector<telemetry::MetricEvent>> minute(
            feed.batches.begin() + static_cast<std::ptrdiff_t>(b),
            feed.batches.begin() + static_cast<std::ptrdiff_t>(std::min(b + 60, n)));
        for (auto& batch : minute) {
          for (auto& ev : batch) ev.t += r * util::kHour;
        }
        ++op;
        const double t0 = now_us();
        double t = t0;
        for (auto& batch : minute) {
          s.append(std::move(batch));
          const double t1 = now_us();
          log->append_us.push_back(t1 - t);
          if (tracer != nullptr) tracer->record("store.append", t, t1, op);
          t = t1;
        }
        s.flush();
        const double t2 = now_us();
        log->flush_ms.push_back((t2 - t) / 1e3);
        log->op_ms.push_back((t2 - t0) / 1e3);
        rep.write_s += (t2 - t0) / 1e6;
        if (tracer != nullptr) {
          tracer->record("store.flush", t, t2, op);
          tracer->record("ingest.minute", t0, t2, op);
        }
      }
    }
    rep.segments = static_cast<double>(s.sealed_segments());
  }
  gate("before compaction");
  for (int k = 0; k < 3; ++k) {
    const double t0 = now_us();
    const store::Store reopened = store::Store::open(dir);
    log->open_ms.push_back((now_us() - t0) / 1e3);
  }
  {
    store::Store s = store::Store::open(dir);
    const std::vector<store::SegmentMeta> before = s.directory();
    const std::uint64_t bytes_before = s.stored_bytes();
    const double c0 = now_us();
    const store::CompactionReport report = s.compact({});
    const double c1 = now_us();
    rep.compact_s = (c1 - c0) / 1e6;
    if (tracer != nullptr) tracer->record("store.compact", c0, c1, 0);
    rep.compact_events_in = report.events_in;
    rep.stored_bytes = s.stored_bytes();
    rep.write_amplification =
        static_cast<double>(bytes_before + new_bytes(before, s.directory())) /
        static_cast<double>(rep.stored_bytes);
  }
  gate("after compaction");
  return rep;
}

RunResult run_ingest(const RunConfig& config) {
  RunResult result;
  // Three hour-long replays: ≈16 M events, compacted into one segment.
  const int replays = config.smoke ? 1 : 3;
  const double g0 = now_us();
  const Feed feed = generate_feed(kIngestFeed, config.seed, /*per_second=*/true);
  const double gen_s = (now_us() - g0) / 1e6;
  const std::uint64_t events = feed.events * static_cast<std::uint64_t>(replays);
  const auto totals = totals_of(feed, replays);
  const util::TimeRange range{
      feed.window.begin, feed.window.end + (replays - 1) * util::kHour};
  std::fprintf(stderr, "ingest: %llu events x %d replays generated in %.2f s\n",
               static_cast<unsigned long long>(feed.events), replays, gen_s);

  const std::string dir = config.out_dir + "/data/ingest";
  IngestLog log;
  std::vector<IngestRep> reps;
  // The gate reopens the store and sums every metric; it runs on the first
  // pass only, and neither its time nor its CPU counts as the run's.
  Usage gate{};
  double gate_us = 0.0;
  const auto check = [&](const char* when) {
    const double t0 = now_us();
    const Usage before = usage_now();
    check_ingest(dir, events, totals, range, when);
    malloc_trim(0);  // the gate's memory is not the store's
    const Usage after = usage_now();
    gate.cpu_ms += after.cpu_ms - before.cpu_ms;
    gate.ctx_switches += after.ctx_switches - before.ctx_switches;
    gate_us += now_us() - t0;
  };
  const Usage u0 = usage_now();
  ProcSampler sampler([] { return 0.0; });
  const double start = now_us();
  do {
    const bool first = reps.empty();
    reps.push_back(ingest_once(feed, replays, dir, &log, nullptr,
                               [&](const char* when) {
                                 if (first) check(when);
                               }));
    std::fprintf(stderr, "ingest: pass %zu wrote in %.2f s, compacted in %.2f s\n",
                 reps.size(), reps.back().write_s, reps.back().compact_s);
  } while (now_us() - start - gate_us < config.seconds * 1e6);
  sampler.stop();
  const Usage u1 = usage_now();

  std::vector<double> write_s;
  std::vector<double> compact_s;
  std::vector<double> compact_eps;
  std::vector<double> segments;
  std::vector<double> amplification;
  for (const IngestRep& r : reps) {
    write_s.push_back(r.write_s);
    compact_s.push_back(r.compact_s);
    compact_eps.push_back(static_cast<double>(r.compact_events_in) / r.compact_s);
    segments.push_back(r.segments);
    amplification.push_back(r.write_amplification);
  }
  const double minutes =
      std::ceil(static_cast<double>(feed.batches.size()) / 60.0) * replays;
  result.attempted = static_cast<std::uint64_t>(minutes) * reps.size();

  Metrics& e = result.end_to_end;
  e.set("setup_s", median(log.open_ms) / 1e3, "s");
  e.set("throughput_ops_per_s", minutes / median(write_s), "1/s");
  e.set("events_per_s", static_cast<double>(events) / median(write_s), "1/s");
  e.set("latency_p50_ms", median(log.op_ms), "ms");
  e.set("latency_p90_ms", quantile(log.op_ms, 0.90), "ms");
  e.set("peak_rss_mb", sampler.peak_rss_mb, "MB");
  e.set("stored_bytes_per_event",
        static_cast<double>(reps.back().stored_bytes) / static_cast<double>(events),
        "B");

  Metrics& l = result.per_layer;
  l.set("store.open_ms", median(log.open_ms), "ms");
  l.set("store.append_us_per_batch.p50", median(log.append_us), "us");
  l.set("store.flush_ms.p50", median(log.flush_ms), "ms");
  l.set("store.segments_sealed", median(segments), "count");
  l.set("store.compact_s", median(compact_s), "s");
  l.set("store.compact_events_per_s", median(compact_eps), "1/s");
  l.set("store.write_amplification", median(amplification), "ratio");
  l.set("proc.threads.peak", sampler.peak_threads, "count");
  l.set("proc.fds.peak", sampler.peak_fds, "count");
  const auto n = static_cast<double>(result.attempted);
  l.set("proc.cpu_ms_per_op", (u1.cpu_ms - u0.cpu_ms - gate.cpu_ms) / n, "ms");
  l.set("proc.ctx_switches_per_op",
        (u1.ctx_switches - u0.ctx_switches - gate.ctx_switches) / n, "count");
  l.set("gen.inputs_s", gen_s, "s");

  if (config.trace) {
    Tracer tracer;
    tracer.begin_pass(1);
    IngestLog traced_log;
    const IngestRep traced = ingest_once(feed, replays, dir, &traced_log,
                                         &tracer, [](const char*) {});
    std::string why;
    if (!tracer.link_and_check(&why)) throw GateFailure("trace: " + why);
    const std::string path = config.out_dir + "/ingest.trace.json";
    tracer.write_chrome(path);
    l.set("trace.overhead", traced.write_s / median(write_s) - 1.0, "ratio");
    std::fprintf(stderr, "trace: %zu spans -> %s\n", tracer.spans().size(),
                 path.c_str());
  }
  fs::remove_all(dir);
  return result;
}

const std::map<std::string, RequestWorkload>& request_workloads() {
  // Replay and cluster run one client. A sweep already fans out over
  // every core, and two clients' sweeps oversubscribed the 4-core host,
  // doubling the run-to-run spread (IQR/median 0.125 against 0.072 over
  // the same ten host states). Two cluster clients made scan latency
  // bimodal: a scan queued behind the other client's cluster_sum legs on
  // the coordinator's one connection per shard, or did not (p50 27-48 ms
  // across seeds against 17-20 ms with one client).
  static const std::map<std::string, RequestWorkload> w = {
      {"dashboard", {kSmall, 1, 4, 800.0, 200, draw_dashboard}},
      {"scan", {kLarge, 1, 2, 0.0, 16, draw_scan}},
      {"replay", {kSmall, 1, 1, 0.0, 2, draw_replay}},
      {"cluster", {kLarge, 3, 1, 0.0, 8, draw_cluster}},
  };
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dashboard", "scan", "replay",
                                                 "cluster", "ingest"};
  return names;
}

RunResult run_workload(const RunConfig& config) {
  fs::create_directories(config.out_dir);
  if (config.workload == "ingest") return run_ingest(config);
  return run_requests(config, request_workloads().at(config.workload));
}

}  // namespace exawatt::perf
