#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "server/wire.hpp"

namespace exawatt::server {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connect_timeout_ms = 2000;
  /// End-to-end budget for one call(): send + wait for the response.
  int request_timeout_ms = 5000;
  /// Transparent reconnect attempts after a broken connection before
  /// call() gives up (every method here is an idempotent read, so a
  /// retried request can at worst repeat work, never corrupt state).
  int max_reconnects = 1;
  /// Cap on one reassembled chunked response (kChunkOversized past it) —
  /// the client-side bound on what a hostile server can make it buffer.
  std::size_t max_response_bytes = net::kMaxAssembledResponse;
};

/// Lifetime link-health counters of one Client. A reconnect is any
/// connection attempt after the client has been connected at least once
/// — the signal that distinguishes a flapping link from first use.
struct ClientStats {
  std::uint64_t connects = 0;             ///< successful connections
  std::uint64_t reconnect_attempts = 0;   ///< re-dials after a drop
  std::uint64_t reconnect_successes = 0;
  std::uint64_t calls = 0;                ///< call() invocations
  std::uint64_t transport_errors = 0;     ///< NetError per attempt
};

/// Synchronous client for the query service: one connection, one request
/// in flight. call() blocks until the matching response or throws
/// net::NetError (transport loss / timeout). Response status is returned
/// as data — a shed or expired request is an answer, not an exception.
class Client {
 public:
  explicit Client(ClientOptions options);

  /// Lazily connects. Throws net::NetError when the server is
  /// unreachable after the configured reconnect attempts.
  [[nodiscard]] wire::Response call(const wire::Request& request);

  /// True while the underlying connection is believed healthy.
  [[nodiscard]] bool connected() const { return stream_.valid(); }
  /// Drop the connection; the next call() reconnects.
  void disconnect();

  [[nodiscard]] const ClientOptions& options() const { return options_; }
  [[nodiscard]] const ClientStats& stats() const { return stats_; }

 private:
  friend class Subscription;
  void ensure_connected();
  void send_request(const wire::Request& request, std::uint64_t id);
  /// Next frame for `id` (skipping stale ids); throws on timeout/loss.
  [[nodiscard]] net::Frame read_frame_for(std::uint64_t id, int timeout_ms);

  ClientOptions options_;
  net::TcpStream stream_;
  net::FrameDecoder decoder_;
  net::ChunkAssembler assembler_;
  std::uint64_t next_id_ = 1;
  bool ever_connected_ = false;
  ClientStats stats_;
};

/// A server-push subscription: issues a streaming request (kSubscribe,
/// or kScenarioSweep with the window bit set in `subscribe_mask`) on a
/// dedicated connection and iterates Tick frames. Ends when the server
/// sends a kEnd tick, the final response arrives, or the connection
/// drops.
class Subscription {
 public:
  /// `request.method` must be kSubscribe or kScenarioSweep.
  Subscription(ClientOptions options, const wire::Request& request);

  /// Next tick, or nullopt when the stream ended (kEnd consumed, final
  /// response received, or connection closed). Throws net::NetError on
  /// timeout — the stream may still be alive, callers may retry.
  [[nodiscard]] std::optional<wire::Tick> next(int timeout_ms);

  /// The final response, once the stream has ended (status of the whole
  /// subscription: kOk after kEnd, kCancelled, ...).
  [[nodiscard]] const std::optional<wire::Response>& result() const {
    return result_;
  }
  [[nodiscard]] bool ended() const { return ended_; }
  /// Ticks delivered so far.
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  void close();

 private:
  Client client_;
  std::uint64_t id_ = 0;
  bool ended_ = false;
  std::uint64_t ticks_ = 0;
  std::optional<wire::Response> result_;
};

}  // namespace exawatt::server
