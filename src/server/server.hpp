#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "net/event_loop.hpp"
#include "server/service.hpp"

namespace exawatt::server {

struct ServerOptions {
  std::uint16_t port = 0;      ///< 0 = ephemeral (see Server::port())
  bool loopback_only = true;
  ServiceOptions service = {};
  net::LoopOptions loop = {};
};

/// The TCP endpoint of the query service: one poll-loop thread (the
/// caller of run()) owns all socket I/O; request execution fans out on
/// the service's QoS workers; finished responses come back through the
/// loop's thread-safe mailbox. A client disconnect trips the cancel
/// token shared by everything that peer still has in flight.
class Server {
 public:
  Server(const store::Store& store, ServerOptions options = {});
  /// Front an externally owned service (the cluster coordinator builds
  /// its own executor-backed QueryService). `service` must outlive the
  /// Server; `options.service` is ignored — the service was already
  /// configured by whoever built it.
  Server(QueryService& service, ServerOptions options = {});

  [[nodiscard]] QueryService& service() { return service_; }
  [[nodiscard]] std::uint16_t port() const { return loop_->port(); }
  [[nodiscard]] net::LoopStats loop_stats() const { return loop_->stats(); }

  /// Serve until `until()` returns true (polled about every `tick_ms`)
  /// or shutdown() is called. Blocks; the calling thread becomes the
  /// event-loop thread.
  void run(const std::function<bool()>& until = {}, int tick_ms = 200);

  /// Thread-safe: make run() return. Does not drain — callers do
  /// `shutdown(); /* join run() */; drain();` or use serve_until which
  /// packages the sequence.
  void shutdown();

  /// Graceful drain, called on the (former) loop thread after run()
  /// returns: stop accepting connections, let queued/running requests
  /// finish, then pump the loop until their responses have flushed (or
  /// `max_flush_ms` passes — a peer that stopped reading cannot hold
  /// shutdown hostage: once that time is up, work parked on its stream
  /// gate is cancelled).
  void drain(int max_flush_ms = 5000);

 private:
  void init_loop(const ServerOptions& options);
  void on_frame(net::ConnId conn, net::Frame&& frame);
  void on_open(net::ConnId conn);
  void on_close(net::ConnId conn);
  [[nodiscard]] CancelToken token_of(net::ConnId conn);
  /// Trip the token of every peer with gated bytes it has not taken.
  void cancel_stalled_peers();

  /// Present only when this Server built its own service (store ctor);
  /// `service_` is the single access path either way.
  std::unique_ptr<QueryService> owned_service_;
  QueryService& service_;
  std::unique_ptr<net::EventLoop> loop_;

  /// Chunked-streaming counters, surfaced via the kServerStats augment
  /// beside the loop's transport and stream-gate counters.
  std::atomic<std::uint64_t> streams_{0};
  std::atomic<std::uint64_t> stream_chunks_{0};

  std::mutex mu_;
  std::map<net::ConnId, CancelToken> tokens_;
};

}  // namespace exawatt::server
