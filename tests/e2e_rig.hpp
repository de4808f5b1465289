#pragma once

// The end-to-end rig behind the gate suite (test_e2e), whose helpers the
// unit suites share too: a seeded twin feed, bit-equality helpers,
// serving topologies with RAII teardown, the parity table every topology
// must pass against the direct single-store answer, and one
// crash-at-every-write-point driver.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "core/simulation.hpp"
#include "core/telemetry_rig.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "store/store.hpp"
#include "stream/replay.hpp"
#include "telemetry/metric.hpp"
#include "ts/series.hpp"
#include "util/vfs.hpp"

namespace exawatt::e2e {

inline const int kPowerChannel =
    telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
inline const int kGpuTempChannel =
    telemetry::channel_of(telemetry::MetricKind::kGpuCoreTemp, 0);

/// An empty directory `exawatt_<name>` under the gtest temp dir.
[[nodiscard]] std::string scratch_dir(const std::string& name);

/// Same length, then bit-identical values window by window: a series
/// that is a truncated prefix of the other is a failure.
[[nodiscard]] testing::AssertionResult series_equal(const ts::Series& a,
                                                    const ts::Series& b);

/// Same ids in the same order, each with bit-identical samples.
[[nodiscard]] testing::AssertionResult runs_equal(
    const std::vector<store::MetricRun>& a,
    const std::vector<store::MetricRun>& b);

/// True when every sample of `part` appears in `full` with an identical
/// timestamp and bit-identical value (both time-sorted).
[[nodiscard]] bool is_subset(const std::vector<ts::Sample>& part,
                             const std::vector<ts::Sample>& full);

/// A seeded twin feed: the first `nodes` nodes of a small machine,
/// `minutes` of 1 Hz out-of-band telemetry starting an hour into the
/// operational period, captured as the batch list the pipeline handed
/// its store sink. The pipeline's in-memory archive is the reference.
struct Feed {
  Feed(int nodes, double minutes, std::uint64_t seed = 42);
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  util::TimeRange window;
  core::SimulationConfig config;
  core::Simulation sim;
  core::TelemetryRig rig;
  std::vector<std::vector<telemetry::MetricEvent>> batches;

  [[nodiscard]] const std::vector<machine::NodeId>& nodes() const {
    return rig.nodes;
  }
  [[nodiscard]] const telemetry::Archive& archive() const {
    return rig.pipeline.archive();
  }
  [[nodiscard]] std::vector<telemetry::MetricId> power_ids() const;
};

/// The feed of `nodes` x `minutes` at seed 42, built once per process.
[[nodiscard]] const Feed& feed(int nodes, double minutes);

/// Small segments, so a few minutes of a few nodes seal several.
[[nodiscard]] store::StoreOptions store_options();

/// Append every batch of `feed` into a fresh store at `root` and flush.
void fill_store(const Feed& feed, const std::string& root);

/// A `method` request over the feed's window at 10 s: a scan names every
/// power metric; roll-ups, subscriptions and scenarios every node (and
/// cluster_sum the power channel); window_sum leaves the metric to set.
[[nodiscard]] server::wire::Request feed_request(server::wire::Method method,
                                                 const Feed& feed);

/// Streaming-engine options rolling up the feed's window over its nodes.
[[nodiscard]] stream::EngineOptions replay_options(const Feed& feed);

/// The feed's roll-up replayed from `store`: what pue_rollup must answer.
[[nodiscard]] stream::RollupReplay offline_replay(const store::Store& store,
                                                  const Feed& feed);

/// One server on an ephemeral loopback port, its event loop on its own
/// thread. stop() — also run on destruction — shuts down, joins and
/// drains; the Server object stays readable afterwards.
class LoopbackServer {
 public:
  /// `subscribe` (optional) is installed before the loop starts.
  explicit LoopbackServer(
      const store::Store& store, server::ServerOptions options = {},
      server::QueryService::SubscribeSource subscribe = nullptr);
  /// A front for an externally owned service.
  explicit LoopbackServer(server::QueryService& service);
  ~LoopbackServer() { stop(); }
  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  void stop();
  [[nodiscard]] server::Server& server() { return *server_; }
  [[nodiscard]] server::ClientOptions client_options() const;

 private:
  void start();

  std::unique_ptr<server::Server> server_;
  std::thread loop_;
};

/// `options` with exactly `workers` QoS workers (min == max). With one
/// class and one tenant this is a bounded FIFO on fixed workers — what
/// tests that park work on a worker need to make queueing deterministic.
[[nodiscard]] server::ServiceOptions fixed_workers(
    std::size_t workers, server::ServiceOptions options = {});

enum class Kind {
  kDirect,    ///< QueryService::execute on the reference store
  kLoopback,  ///< a server over the reference store
  kCluster,   ///< 3 shard servers behind a Coordinator front server
};

[[nodiscard]] const char* kind_name(Kind kind);
inline void PrintTo(Kind kind, std::ostream* os) { *os << kind_name(kind); }

/// A serving topology over one feed, next to the single reference store
/// holding all of it, whose direct answers `call` must reproduce.
class Topology {
 public:
  static constexpr std::size_t kShards = 3;

  /// Fills the reference store (and, for a cluster, the hash-routed
  /// shard stores) from `feed` under `root`, then starts serving.
  Topology(Kind kind, const Feed& feed, const std::string& root);
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const Feed& feed() const { return feed_; }
  [[nodiscard]] const store::Store& reference() const { return *ref_; }
  [[nodiscard]] server::wire::Response call(
      const server::wire::Request& request);
  /// Where another client dials (loopback and cluster).
  [[nodiscard]] server::ClientOptions client_options() const;

  // Cluster only.
  [[nodiscard]] store::Store& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] LoopbackServer& shard_server(std::size_t i) {
    return *shard_servers_[i];
  }
  [[nodiscard]] const std::vector<std::string>& shard_roots() const {
    return shard_roots_;
  }
  /// Take shard `i`'s endpoint away; its store stays open.
  void stop_shard(std::size_t i);
  /// Serve shard `i` again on a fresh port and repoint the coordinator.
  void restart_shard(std::size_t i);
  /// Stop every shard server and close every shard store, run
  /// `while_down`, then reopen the stores and serve them again.
  void cycle_shards(const std::function<void()>& while_down);

 private:
  // Declared in build order, so teardown runs client, front, coordinator,
  // shard servers, stores.
  Kind kind_;
  const Feed& feed_;
  std::optional<store::Store> ref_;
  std::unique_ptr<server::QueryService> direct_;
  std::unique_ptr<LoopbackServer> loopback_;
  std::vector<std::string> shard_roots_;
  std::vector<std::optional<store::Store>> shards_;
  std::vector<std::unique_ptr<LoopbackServer>> shard_servers_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  std::unique_ptr<server::QueryService> front_;
  std::unique_ptr<LoopbackServer> front_server_;
  std::unique_ptr<server::Client> client_;
};

/// The parity table: ping, window_sum on every power metric, scan,
/// chunked scan, cluster_sum on the power and GPU-temperature channels,
/// pue_rollup, chunked pue_rollup, directory and the identity scenario —
/// each answered by `topo` and bit-compared with the reference store.
void expect_parity(Topology& topo);

struct SweepStats {
  std::uint64_t write_points = 0;  ///< counted by the rehearsal
  std::uint64_t fired = 0;         ///< crashes that killed their run
};

/// Rehearse `run` through a counting FaultVfs, then crash it at every
/// write point the rehearsal counted, in turn. `reset` rebuilds the
/// starting state before each run; `run` performs the operation through
/// the Vfs it is handed (a simulated crash throws out of it); `check`
/// reopens on the real filesystem and checks the survivor — it gets the
/// crash point, or nullopt after the fault-free rehearsal.
SweepStats crash_sweep(
    const std::function<void()>& reset,
    const std::function<void(util::Vfs&)>& run,
    const std::function<void(std::optional<std::uint64_t>)>& check);

/// The survivor contract after a crash: every sample on disk was produced
/// by the feed, and the store's cluster_sum bit-matches the in-memory
/// aggregator over exactly the surviving events.
void expect_survivors(const store::Store& store, const Feed& feed);

}  // namespace exawatt::e2e
