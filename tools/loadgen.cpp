// loadgen — multi-threaded load generator for `exawatt_sim serve`.
//
//   loadgen --port 4626 --threads 8 --seconds 10 --nodes 32
//       [--deadline MS] [--range-begin S --range-end S] [--subscribe]
//       [--scenario] [--connections N]
//   loadgen --cluster 4701,4702,4703 --threads 8 --seconds 10
//
// Each thread owns one connection and issues a mixed read workload
// (window-sum, metric scans, cluster roll-ups, pings) as fast as the
// server answers, with an optional per-request deadline. Prints the
// status breakdown — shed (RESOURCE_EXHAUSTED) is admission control
// doing its job and is counted apart from transport errors, which are
// broken links — plus achieved request and event-read rates and a
// latency histogram with p50/p90/p99. Exit code is non-zero when no
// request succeeded — so the tool doubles as a connectivity probe.
//
// --scenario folds counterfactual replays into the mix: 10% kScenario
// (a random power cap or forced-chiller outage) and 5% kScenarioSweep
// (four cap variants, summaries only). These are the service's most
// CPU-heavy, cache-hostile requests — every one replays the whole range
// twice or more — so they shift the load from the wire to the pool and
// are the right stressor for admission control and deadline policy.
//
// --connections N adds an idle-heavy open-loop herd on top of the
// worker mix: N extra connections are opened and *held* for the whole
// run, each pinged once per --idle-every seconds on a fixed schedule
// (open loop: the schedule never adapts to response times, so a server
// that slows down accumulates lag instead of hiding it). This is the
// many-connection soak — dashboards and collectors that sit connected
// doing almost nothing — and the herd's ping latency is reported apart
// from the busy workers' percentiles. Raises RLIMIT_NOFILE as needed.
//
// --cluster PORTS (or HOST:PORT,...) drives a scatter-gather
// coordinator over the listed shard servers instead of one server: all
// threads share the coordinator, and the report adds a per-shard
// latency/status breakdown so a slow or flapping shard is visible.
//
// --classes turns on multi-tenant QoS traffic: every request carries a
// tenant id drawn Zipf(--zipf) from --tenants tenants and a priority
// class tied to its weight — interactive pings/window-sums, normal
// scans/roll-ups, batch replays — and the report adds a per-class
// latency table plus the server's own counters (server_stats).
//
// --rate R switches the workers from closed-loop ("as fast as the
// server answers") to an open-loop Poisson process at R req/s total:
// each worker draws exponential inter-arrival gaps on a fixed schedule
// that never adapts to response times, and latency is measured from the
// *scheduled* arrival — a server that falls behind accumulates queueing
// delay in the numbers instead of quietly slowing the offered load.
// This is the overload harness: --rate well past capacity with
// --classes shows whether interactive p99 survives a batch flood.
//
// The default --nodes/--range match `exawatt_sim simulate --store`'s
// defaults (32 instrumented nodes, 30 minutes at 1 Hz).

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "qos/scheduler.hpp"
#include "scenario/spec.hpp"
#include "server/client.hpp"
#include "telemetry/metric.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/text_table.hpp"

namespace {

using namespace exawatt;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBuckets = 22;  ///< 2^k us buckets: 1 us .. ~4 s

std::size_t bucket_of(double us) {
  if (us < 1.0) return 0;
  const auto b = static_cast<std::size_t>(std::log2(us));
  return std::min(b, kBuckets - 1);
}

struct WorkerStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t other = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t events = 0;  ///< response_event_volume sum
  std::vector<double> latencies_us;
  std::array<std::uint64_t, kBuckets> histogram{};
  /// --classes mode: the same outcomes split by priority class.
  std::array<std::uint64_t, qos::kClassCount> class_sent{};
  std::array<std::uint64_t, qos::kClassCount> class_ok{};
  std::array<std::uint64_t, qos::kClassCount> class_shed{};
  std::array<std::vector<double>, qos::kClassCount> class_latencies_us;
};

/// Zipf(alpha) sampler over tenants 1..n: tenant k with weight k^-alpha,
/// drawn by inverting the precomputed CDF. The skew is the point — one
/// or two heavy tenants plus a long tail is what fair queues must tame.
struct ZipfTenants {
  std::vector<double> cdf;
  ZipfTenants(std::uint32_t n, double alpha) {
    cdf.reserve(n);
    double total = 0.0;
    for (std::uint32_t k = 1; k <= n; ++k) {
      total += std::pow(static_cast<double>(k), -alpha);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  [[nodiscard]] std::uint32_t draw(double u) const {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::uint32_t>(it - cdf.begin()) + 1;
  }
};

/// "P" or "HOST:P", comma-separated, into coordinator endpoints.
std::vector<exawatt::cluster::Endpoint> parse_endpoints(
    const std::string& list) {
  std::vector<exawatt::cluster::Endpoint> eps;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    std::size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string part = list.substr(begin, end - begin);
    begin = end + 1;
    if (part.empty()) continue;
    exawatt::cluster::Endpoint ep;
    const std::size_t colon = part.rfind(':');
    const std::string port_text =
        colon == std::string::npos ? part : part.substr(colon + 1);
    if (colon != std::string::npos && colon > 0) ep.host = part.substr(0, colon);
    const long port = std::strtol(port_text.c_str(), nullptr, 10);
    if (port <= 0 || port > 65535) {
      throw std::runtime_error("bad endpoint (want PORT or HOST:PORT): " +
                               part);
    }
    ep.port = static_cast<std::uint16_t>(port);
    eps.push_back(std::move(ep));
  }
  return eps;
}

/// Best-effort soft-cap raise for the idle herd; returns the cap now in
/// force so the caller can refuse an impossible --connections ask.
rlim_t raise_nofile(rlim_t want) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < want) {
    rlimit raised = lim;
    raised.rlim_cur = std::min<rlim_t>(want, lim.rlim_max);
    if (setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return lim.rlim_cur;
}

/// The idle herd: `herd.size()` held-open connections, each pinged once
/// per `every_s` on a fixed stagger. Returns ping latencies (ms).
struct IdleHerdReport {
  std::uint64_t pings = 0;
  std::uint64_t errors = 0;
  std::vector<double> latency_ms;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  server::ClientOptions copts;
  copts.host = flags.get("host", "127.0.0.1");
  copts.port = static_cast<std::uint16_t>(flags.get_int("port", 4626));
  const auto threads =
      static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("threads", 8)));
  const double seconds = flags.get_number("seconds", 10.0);
  const auto n_nodes = static_cast<int>(flags.get_int("nodes", 32));
  const auto deadline_ms =
      static_cast<std::uint32_t>(flags.get_int("deadline", 0));
  const bool scenarios = flags.has("scenario");
  const util::TimeRange range{flags.get_int("range-begin", 0),
                              flags.get_int("range-end", 30 * 60)};
  const auto idle_connections = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.get_int("connections", 0)));
  const double idle_every =
      std::max(0.5, flags.get_number("idle-every", 5.0));
  const bool classes = flags.has("classes");
  const auto tenants = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, flags.get_int("tenants", 4)));
  const double zipf_alpha = flags.get_number("zipf", 1.1);
  const double rate = flags.get_number("rate", 0.0);  // 0 = closed loop
  const ZipfTenants zipf(tenants, zipf_alpha);

  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  std::vector<machine::NodeId> nodes(static_cast<std::size_t>(n_nodes));
  for (int i = 0; i < n_nodes; ++i) nodes[static_cast<std::size_t>(i)] = i;

  const std::string cluster_list = flags.get("cluster");
  std::unique_ptr<cluster::Coordinator> coordinator;
  if (!cluster_list.empty()) {
    cluster::CoordinatorOptions cluster_options;
    cluster_options.shards = parse_endpoints(cluster_list);
    coordinator =
        std::make_unique<cluster::Coordinator>(std::move(cluster_options));
  }

  if (coordinator != nullptr) {
    std::printf("loadgen: %zu threads x %.1f s against a %zu-shard cluster "
                "[%s] (%d nodes, range [%lld, %lld), deadline %u ms%s)\n",
                threads, seconds, coordinator->shards(),
                cluster_list.c_str(), n_nodes,
                static_cast<long long>(range.begin),
                static_cast<long long>(range.end), deadline_ms,
                scenarios ? ", 15% scenario replays" : "");
  } else {
    std::printf("loadgen: %zu threads x %.1f s against %s:%u (%d nodes, "
                "range [%lld, %lld), deadline %u ms%s)\n",
                threads, seconds, copts.host.c_str(), copts.port, n_nodes,
                static_cast<long long>(range.begin),
                static_cast<long long>(range.end), deadline_ms,
                scenarios ? ", 15% scenario replays" : "");
  }
  if (classes) {
    std::printf("qos traffic: %u tenants Zipf(%.2f), classes tagged "
                "(interactive/normal/batch)\n",
                tenants, zipf_alpha);
  }
  if (rate > 0.0) {
    std::printf("open loop: %.0f req/s offered on a fixed Poisson "
                "schedule (latency includes queueing-behind-schedule)\n",
                rate);
  }

  // The idle-heavy herd opens before the clock starts so the workers
  // below measure a server already holding every connection.
  std::vector<std::unique_ptr<server::Client>> herd;
  IdleHerdReport herd_report;
  if (idle_connections > 0 && coordinator == nullptr) {
    const rlim_t cap =
        raise_nofile(static_cast<rlim_t>(idle_connections) + 256);
    if (idle_connections + 128 > cap) {
      std::fprintf(stderr,
                   "loadgen: --connections %zu exceeds the fd cap (%llu); "
                   "raise ulimit -n\n",
                   idle_connections, static_cast<unsigned long long>(cap));
      return 1;
    }
    server::wire::Request ping;
    ping.method = server::wire::Method::kPing;
    herd.reserve(idle_connections);
    for (std::size_t i = 0; i < idle_connections; ++i) {
      herd.push_back(std::make_unique<server::Client>(copts));
      try {
        (void)herd.back()->call(ping);  // establish the connection now
      } catch (const net::NetError&) {
        ++herd_report.errors;  // lazily retried by the caretaker below
      }
    }
    std::printf("idle herd: %zu connections held, one ping each per "
                "%.1f s (open loop)\n",
                herd.size(), idle_every);
  }

  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));

  // Caretaker: walks the herd on a fixed stagger — the schedule never
  // adapts to response times (open loop), so server slowdowns surface as
  // lag in the herd's own latency numbers.
  std::thread caretaker;
  if (!herd.empty()) {
    caretaker = std::thread([&] {
      server::wire::Request ping;
      ping.method = server::wire::Method::kPing;
      const auto step = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(idle_every /
                                        static_cast<double>(herd.size())));
      auto next_at = Clock::now();
      std::size_t i = 0;
      while (Clock::now() < until) {
        std::this_thread::sleep_until(next_at);
        next_at += step;
        if (Clock::now() >= until) break;
        const auto sent_at = Clock::now();
        try {
          const auto resp = herd[i]->call(ping);
          ++herd_report.pings;
          if (resp.status == server::wire::Status::kOk) {
            herd_report.latency_ms.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          sent_at)
                    .count());
          }
        } catch (const net::NetError&) {
          ++herd_report.errors;
        }
        i = (i + 1) % herd.size();
      }
    });
  }

  std::vector<WorkerStats> per_thread(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      WorkerStats& stats = per_thread[w];
      util::Rng rng(0x10adULL + w);
      // Cluster mode drives the shared coordinator in-process (it is
      // thread-safe and serializes each shard link itself); single-server
      // mode keeps one connection per worker.
      std::optional<server::Client> client;
      if (coordinator == nullptr) client.emplace(copts);
      const server::CancelToken no_cancel;
      // Open loop: this worker's share of the offered rate, drawn as
      // exponential gaps on an absolute schedule that never adapts.
      const double worker_rate = rate / static_cast<double>(threads);
      auto next_arrival = Clock::now();
      while (Clock::now() < until) {
        auto scheduled_at = Clock::now();
        if (rate > 0.0) {
          scheduled_at = next_arrival;
          const double gap_s =
              -std::log(std::max(rng.uniform(), 1e-12)) / worker_rate;
          next_arrival += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(gap_s));
          std::this_thread::sleep_until(scheduled_at);
          if (Clock::now() >= until) break;
        }
        server::wire::Request req;
        req.deadline_ms = deadline_ms;
        req.range = range;
        req.window = 10;
        std::size_t cls = 1;
        if (classes) {
          // Class drawn first, method tied to it: interactive traffic is
          // cheap and latency-sensitive, batch is the replay heavyweight.
          req.tenant = zipf.draw(rng.uniform());
          const double c = rng.uniform();
          cls = c < 0.3 ? 0 : (c < 0.8 ? 1 : 2);
          req.qos_class = static_cast<std::uint32_t>(cls);
          if (cls == 0) {
            if (rng.uniform() < 0.5) {
              req.method = server::wire::Method::kPing;
            } else {
              req.method = server::wire::Method::kWindowSum;
              req.metric = telemetry::metric_id(
                  nodes[rng.uniform_index(nodes.size())], channel);
            }
          } else if (cls == 1) {
            if (rng.uniform() < 0.6) {
              req.method = server::wire::Method::kScan;
              const std::size_t want = 1 + rng.uniform_index(8);
              for (std::size_t i = 0; i < want; ++i) {
                req.metrics.push_back(telemetry::metric_id(
                    nodes[rng.uniform_index(nodes.size())], channel));
              }
            } else {
              req.method = server::wire::Method::kClusterSum;
              req.nodes = nodes;
              req.channel = channel;
            }
          } else if (scenarios && rng.uniform() < 0.3) {
            req.method = server::wire::Method::kScenarioSweep;
            req.nodes = nodes;
            req.subscribe_mask = 0;
            for (int v = 0; v < 4; ++v) {
              scenario::ScenarioSpec spec;
              spec.name = "loadgen-sweep-" + std::to_string(v);
              spec.power_cap_w = (0.4 + 0.2 * v) * 3000.0 *
                                 static_cast<double>(n_nodes);
              req.scenarios.push_back(std::move(spec));
            }
          } else {
            req.method = server::wire::Method::kPueRollup;
            req.nodes = nodes;
          }

          ++stats.sent;
          ++stats.class_sent[cls];
          try {
            const auto resp =
                coordinator != nullptr
                    ? coordinator->execute(
                          req, no_cancel,
                          deadline_ms == 0
                              ? 0
                              : util::Clock::steady().now_us() +
                                    static_cast<std::int64_t>(deadline_ms) *
                                        1000)
                    : client->call(req);
            // Open loop measures from the *scheduled* arrival: time spent
            // waiting to even be sent is queueing delay the client felt.
            const double us = std::chrono::duration<double, std::micro>(
                                  Clock::now() - scheduled_at)
                                  .count();
            stats.latencies_us.push_back(us);
            ++stats.histogram[bucket_of(us)];
            stats.class_latencies_us[cls].push_back(us);
            switch (resp.status) {
              case server::wire::Status::kOk:
                ++stats.ok;
                ++stats.class_ok[cls];
                stats.events += server::wire::response_event_volume(resp);
                break;
              case server::wire::Status::kResourceExhausted:
                ++stats.shed;
                ++stats.class_shed[cls];
                break;
              case server::wire::Status::kDeadlineExceeded:
                ++stats.deadline;
                break;
              default:
                ++stats.other;
                break;
            }
          } catch (const net::NetError&) {
            ++stats.transport_errors;
            if (client.has_value() && !client->connected()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
            }
          }
          continue;
        }
        const double pick = rng.uniform();
        if (scenarios && pick >= 0.85 && pick < 0.95) {
          // 10% single counterfactual: a cap drawn around the plausible
          // cluster power, or the forced-chiller outage.
          req.method = server::wire::Method::kScenario;
          req.nodes = nodes;
          req.subscribe_mask = 0;
          scenario::ScenarioSpec spec;
          if (rng.uniform() < 0.5) {
            spec.name = "loadgen-cap";
            spec.power_cap_w =
                (0.3 + 0.6 * rng.uniform()) * 3000.0 *
                static_cast<double>(n_nodes);
          } else {
            spec.name = "loadgen-outage";
            spec.force_chillers = true;
          }
          req.scenarios.push_back(std::move(spec));
        } else if (scenarios && pick >= 0.95) {
          // 5% sweep: four caps fanned server-side, summaries back.
          req.method = server::wire::Method::kScenarioSweep;
          req.nodes = nodes;
          req.subscribe_mask = 0;
          for (int v = 0; v < 4; ++v) {
            scenario::ScenarioSpec spec;
            spec.name = "loadgen-sweep-" + std::to_string(v);
            spec.power_cap_w = (0.4 + 0.2 * v) * 3000.0 *
                               static_cast<double>(n_nodes);
            req.scenarios.push_back(std::move(spec));
          }
        } else if (pick < 0.45) {
          req.method = server::wire::Method::kWindowSum;
          req.metric = telemetry::metric_id(
              nodes[rng.uniform_index(nodes.size())], channel);
        } else if (pick < 0.75) {
          req.method = server::wire::Method::kScan;
          const std::size_t want = 1 + rng.uniform_index(8);
          for (std::size_t i = 0; i < want; ++i) {
            req.metrics.push_back(telemetry::metric_id(
                nodes[rng.uniform_index(nodes.size())], channel));
          }
        } else if (pick < 0.9) {
          req.method = server::wire::Method::kClusterSum;
          req.nodes = nodes;
          req.channel = channel;
        } else {
          req.method = server::wire::Method::kPing;
        }

        const auto sent_at = rate > 0.0 ? scheduled_at : Clock::now();
        ++stats.sent;
        try {
          const auto resp =
              coordinator != nullptr
                  ? coordinator->execute(
                        req, no_cancel,
                        deadline_ms == 0
                            ? 0
                            : util::Clock::steady().now_us() +
                                  static_cast<std::int64_t>(deadline_ms) *
                                      1000)
                  : client->call(req);
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() -
                                                        sent_at)
                  .count();
          stats.latencies_us.push_back(us);
          ++stats.histogram[bucket_of(us)];
          switch (resp.status) {
            case server::wire::Status::kOk:
              ++stats.ok;
              stats.events += server::wire::response_event_volume(resp);
              break;
            case server::wire::Status::kResourceExhausted:
              ++stats.shed;
              break;
            case server::wire::Status::kDeadlineExceeded:
              ++stats.deadline;
              break;
            default:
              ++stats.other;
              break;
          }
        } catch (const net::NetError&) {
          ++stats.transport_errors;
          if (client.has_value() && !client->connected()) {
            // Server gone (or drained); keep trying until the clock runs
            // out so a restart mid-run is measured, not fatal.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (caretaker.joinable()) caretaker.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  WorkerStats total;
  for (const auto& s : per_thread) {
    total.sent += s.sent;
    total.ok += s.ok;
    total.shed += s.shed;
    total.deadline += s.deadline;
    total.other += s.other;
    total.transport_errors += s.transport_errors;
    total.events += s.events;
    total.latencies_us.insert(total.latencies_us.end(),
                              s.latencies_us.begin(), s.latencies_us.end());
    for (std::size_t b = 0; b < kBuckets; ++b) {
      total.histogram[b] += s.histogram[b];
    }
    for (std::size_t c = 0; c < qos::kClassCount; ++c) {
      total.class_sent[c] += s.class_sent[c];
      total.class_ok[c] += s.class_ok[c];
      total.class_shed[c] += s.class_shed[c];
      total.class_latencies_us[c].insert(total.class_latencies_us[c].end(),
                                         s.class_latencies_us[c].begin(),
                                         s.class_latencies_us[c].end());
    }
  }

  // Shed is the server protecting itself (RESOURCE_EXHAUSTED at
  // admission) — a healthy signal under overload; transport errors are
  // broken links. The two must never be conflated in the report.
  std::printf(
      "\nsent %llu: %llu ok, %llu shed (RESOURCE_EXHAUSTED), %llu "
      "deadline-exceeded, %llu other, %llu transport errors\n",
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.shed),
      static_cast<unsigned long long>(total.deadline),
      static_cast<unsigned long long>(total.other),
      static_cast<unsigned long long>(total.transport_errors));
  if (coordinator != nullptr) {
    // A degraded scatter still answers kOk, so shard-level shedding and
    // outages hide inside "ok" above; sum the per-shard legs here.
    std::uint64_t leg_shed = 0;
    std::uint64_t leg_transport = 0;
    const auto shards = coordinator->shard_stats();
    for (const auto& s : shards) {
      leg_shed += s.shed;
      leg_transport += s.transport_errors;
    }
    std::printf("scatter legs: %llu shed (RESOURCE_EXHAUSTED), %llu "
                "transport errors across %zu shard(s)\n",
                static_cast<unsigned long long>(leg_shed),
                static_cast<unsigned long long>(leg_transport),
                shards.size());
  }
  std::printf("rates: %s, %s read back\n",
              util::fmt_si(static_cast<double>(total.sent) / elapsed,
                           "req/s", 2)
                  .c_str(),
              util::fmt_si(static_cast<double>(total.events) / elapsed,
                           "events/s", 2)
                  .c_str());

  if (!total.latencies_us.empty()) {
    std::sort(total.latencies_us.begin(), total.latencies_us.end());
    const auto pct = [&](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(total.latencies_us.size() - 1));
      return total.latencies_us[idx] / 1000.0;
    };
    std::printf("latency: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max "
                "%.3f ms\n\n",
                pct(0.5), pct(0.9), pct(0.99),
                total.latencies_us.back() / 1000.0);

    std::uint64_t peak = 1;
    for (const auto c : total.histogram) peak = std::max(peak, c);
    std::printf("latency histogram:\n");
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (total.histogram[b] == 0) continue;
      const double lo_ms = (b == 0 ? 0.0 : std::exp2(static_cast<double>(b))) / 1000.0;
      const double hi_ms = std::exp2(static_cast<double>(b + 1)) / 1000.0;
      const auto width = static_cast<std::size_t>(
          40.0 * static_cast<double>(total.histogram[b]) /
          static_cast<double>(peak));
      std::printf("  [%9.3f, %9.3f) ms |%-40s| %llu\n", lo_ms, hi_ms,
                  std::string(std::max<std::size_t>(width, 1), '#').c_str(),
                  static_cast<unsigned long long>(total.histogram[b]));
    }
  }
  if (classes) {
    // Per-class latency table — the number the QoS scheduler is judged
    // on is the interactive row's p99 under a batch flood.
    util::TextTable t(
        {"class", "sent", "ok", "shed", "p50 ms", "p99 ms", "max ms"});
    const auto ms = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", v / 1000.0);
      return std::string(buf);
    };
    for (std::size_t c = 0; c < qos::kClassCount; ++c) {
      auto& lat = total.class_latencies_us[c];
      std::sort(lat.begin(), lat.end());
      const auto pct = [&](double q) {
        return lat.empty() ? 0.0
                           : lat[static_cast<std::size_t>(
                                 q * static_cast<double>(lat.size() - 1))];
      };
      t.add_row({qos::class_name(static_cast<qos::Class>(c)),
                 std::to_string(total.class_sent[c]),
                 std::to_string(total.class_ok[c]),
                 std::to_string(total.class_shed[c]), ms(pct(0.5)),
                 ms(pct(0.99)), ms(lat.empty() ? 0.0 : lat.back())});
    }
    std::printf("\nper-class breakdown:\n%s", t.str().c_str());
    if (coordinator == nullptr) {
      // The server's own counters, read over the wire: per-class served /
      // shed / p99 as the scheduler saw them, workers, the cost backlog
      // still queued at the end of the run, stream and transport.
      try {
        server::Client client(copts);
        server::wire::Request req;
        req.method = server::wire::Method::kServerStats;
        const auto resp = client.call(req);
        if (resp.status == server::wire::Status::kOk) {
          std::printf("\nserver stats:\n%s",
                      server::wire::format_server_stats(resp.server).c_str());
        }
      } catch (const net::NetError&) {
        // Server already gone; the client-side table above stands alone.
      }
    }
  }
  if (!herd.empty()) {
    auto& lat = herd_report.latency_ms;
    std::sort(lat.begin(), lat.end());
    const auto pct = [&](double q) {
      return lat.empty() ? 0.0
                         : lat[static_cast<std::size_t>(
                               q * static_cast<double>(lat.size() - 1))];
    };
    std::printf("idle herd: %llu pings (%llu errors), p50 %.3f ms, "
                "p99 %.3f ms\n",
                static_cast<unsigned long long>(herd_report.pings),
                static_cast<unsigned long long>(herd_report.errors),
                pct(0.5), pct(0.99));
  }
  if (coordinator != nullptr) {
    std::printf(
        "\nper-shard breakdown:\n%s",
        cluster::format_shard_stats(coordinator->shard_stats()).c_str());
  }
  return total.ok > 0 ? 0 : 1;
}
