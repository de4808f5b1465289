#pragma once

// Hosting the system under test in the benchmark's own process, configured
// the way the operator CLI configures it:
//
//  - a store server is `exawatt_sim serve`: QoS on with the default
//    CostProfile{} (no BENCH_codec.json is read, so every host prices
//    alike), queue 256, no default deadline, 1..2*nproc autoscaled
//    workers. The subscription source `serve` installs is left out: no
//    workload subscribes.
//  - a cluster front is `exawatt_sim cluster`: a Coordinator with default
//    CoordinatorOptions behind the classic FIFO QueryService with the
//    coordinator's stats augment. In its own process that FIFO runs on the
//    process-global pool; here it gets a pool of the same size to itself,
//    so coordinator legs parked on it cannot starve the in-process shards'
//    store fan-out the way no separate process could.
//
// Tracing wraps executors in spans; an empty wrap is the untraced
// configuration above, byte for byte.

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "server/server.hpp"
#include "store/store.hpp"
#include "util/thread_pool.hpp"

namespace exawatt::perf {

using ExecutorWrap = std::function<server::QueryService::Executor(
    server::QueryService::Executor)>;

/// `exawatt_sim serve`'s server options.
[[nodiscard]] server::ServerOptions serve_options();

/// One store-backed loopback server and its event-loop thread. Stops,
/// joins and drains on destruction.
class StoreHost {
 public:
  explicit StoreHost(const store::Store& store, const ExecutorWrap& wrap = {});
  ~StoreHost();
  StoreHost(const StoreHost&) = delete;
  StoreHost& operator=(const StoreHost&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] server::Server& server() { return *server_; }
  [[nodiscard]] server::QueryService& service() { return server_->service(); }

 private:
  /// The traced form builds the service itself — exactly what the store
  /// constructor builds, around a wrapped executor.
  std::unique_ptr<server::QueryService> traced_service_;
  std::unique_ptr<server::Server> server_;
  std::thread loop_;
};

/// Shard servers over `shards` plus a coordinator front server.
class ClusterHost {
 public:
  ClusterHost(const std::vector<const store::Store*>& shards,
              const ExecutorWrap& shard_wrap = {},
              const ExecutorWrap& front_wrap = {});
  ~ClusterHost();
  ClusterHost(const ClusterHost&) = delete;
  ClusterHost& operator=(const ClusterHost&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] server::Server& server() { return *server_; }
  [[nodiscard]] server::QueryService& service() { return *front_; }
  [[nodiscard]] cluster::Coordinator& coordinator() { return *coordinator_; }
  [[nodiscard]] const std::vector<std::unique_ptr<StoreHost>>& shards() const {
    return shards_;
  }

 private:
  std::vector<std::unique_ptr<StoreHost>> shards_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  util::ThreadPool front_pool_;
  std::unique_ptr<server::QueryService> front_;
  std::unique_ptr<server::Server> server_;
  std::thread loop_;
};

/// The topology over a workload's stores: a store server for one store,
/// shard servers behind a coordinator front for several. The stores must
/// outlive it.
class Topology {
 public:
  explicit Topology(const std::vector<store::Store>& stores,
                    const ExecutorWrap& shard_wrap = {},
                    const ExecutorWrap& front_wrap = {});

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] server::Server& server();
  /// The service clients talk to (the coordinator front for a cluster).
  [[nodiscard]] server::QueryService& service();
  /// Null for a single store.
  [[nodiscard]] ClusterHost* cluster() { return cluster_.get(); }

 private:
  std::unique_ptr<StoreHost> single_;
  std::unique_ptr<ClusterHost> cluster_;
};

}  // namespace exawatt::perf
