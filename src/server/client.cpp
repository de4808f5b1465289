#include "server/client.hpp"

#include <chrono>

#include "util/check.hpp"

namespace exawatt::server {

namespace {

using SteadyClock = std::chrono::steady_clock;

int remaining_ms(SteadyClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - SteadyClock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {}

void Client::disconnect() {
  stream_.close();
  decoder_ = {};
  assembler_ = net::ChunkAssembler(options_.max_response_bytes);
}

void Client::ensure_connected() {
  if (stream_.valid()) return;
  const bool reconnecting = ever_connected_;
  if (reconnecting) ++stats_.reconnect_attempts;
  stream_ = net::TcpStream::connect(options_.host, options_.port,
                                    options_.connect_timeout_ms);
  decoder_ = {};
  assembler_ = net::ChunkAssembler(options_.max_response_bytes);
  ever_connected_ = true;
  ++stats_.connects;
  if (reconnecting) ++stats_.reconnect_successes;
}

void Client::send_request(const wire::Request& request, std::uint64_t id) {
  const auto bytes = net::encode_frame(net::FrameType::kRequest, id,
                                       wire::encode_request(request));
  stream_.write_all(bytes.data(), bytes.size(), options_.request_timeout_ms);
}

net::Frame Client::read_frame_for(std::uint64_t id, int timeout_ms) {
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  std::uint8_t chunk[16 << 10];
  for (;;) {
    net::Frame frame;
    while (decoder_.next(frame)) {
      // Chunked responses reassemble here, transparently: callers only
      // ever see complete logical frames. A stream-contract violation is
      // connection-fatal — the byte stream cannot be trusted past it.
      try {
        if (!assembler_.feed(frame)) continue;
      } catch (const net::FrameError& e) {
        disconnect();
        throw net::NetError(std::string("chunk stream violation: ") +
                            e.what());
      }
      if (frame.type == net::FrameType::kGoodbye) {
        disconnect();
        throw net::NetError(
            "server closed the connection: " +
            std::string(frame.payload.begin(), frame.payload.end()));
      }
      if (frame.request_id == id) return frame;
      // A stale response (from an abandoned earlier request on this
      // connection) is skipped, not an error.
    }
    const int left = remaining_ms(deadline);
    if (left == 0 || !stream_.wait_readable(left)) {
      throw net::NetError("request timeout");
    }
    const net::IoResult r = stream_.read_some(chunk, sizeof(chunk));
    switch (r.status) {
      case net::IoStatus::kOk:
        try {
          decoder_.feed({chunk, r.n});
        } catch (const net::FrameError& e) {
          disconnect();
          throw net::NetError(std::string("protocol error from server: ") +
                              e.what());
        }
        break;
      case net::IoStatus::kWouldBlock:
        break;
      default:
        disconnect();
        throw net::NetError("connection lost");
    }
  }
}

wire::Response Client::call(const wire::Request& request) {
  EXA_CHECK(request.method != wire::Method::kSubscribe,
            "use Subscription for kSubscribe");
  ++stats_.calls;
  std::string last_error = "unreachable";
  for (int attempt = 0; attempt <= options_.max_reconnects; ++attempt) {
    try {
      ensure_connected();
      const std::uint64_t id = next_id_++;
      send_request(request, id);
      net::Frame frame = read_frame_for(id, options_.request_timeout_ms);
      // A call()er may receive ticks ahead of its response (a sweep
      // whose mask asked for streaming); they are skipped, not a
      // protocol violation — Subscription is the API that wants them.
      while (frame.type == net::FrameType::kTick) {
        frame = read_frame_for(id, options_.request_timeout_ms);
      }
      if (frame.type != net::FrameType::kResponse) {
        disconnect();
        throw net::NetError("unexpected frame type from server");
      }
      try {
        return wire::decode_response(frame.payload);
      } catch (const wire::WireError& e) {
        disconnect();
        throw net::NetError(std::string("bad response payload: ") + e.what());
      }
    } catch (const net::NetError& e) {
      ++stats_.transport_errors;
      last_error = e.what();
      disconnect();
      // Reconnect-and-retry: reads are idempotent, and the broken
      // connection is the common failure after a server restart.
    }
  }
  throw net::NetError("request failed after " +
                      std::to_string(options_.max_reconnects + 1) +
                      " attempt(s): " + last_error);
}

Subscription::Subscription(ClientOptions options,
                           const wire::Request& request)
    : client_(std::move(options)) {
  EXA_CHECK(request.method == wire::Method::kSubscribe ||
                request.method == wire::Method::kScenarioSweep,
            "Subscription wants a streaming method (kSubscribe / "
            "kScenarioSweep)");
  client_.ensure_connected();
  id_ = client_.next_id_++;
  client_.send_request(request, id_);
}

std::optional<wire::Tick> Subscription::next(int timeout_ms) {
  if (ended_) return std::nullopt;
  net::Frame frame;
  try {
    frame = client_.read_frame_for(id_, timeout_ms);
  } catch (const net::NetError&) {
    if (!client_.connected()) {
      // Connection gone: the stream is over, not merely slow.
      ended_ = true;
      return std::nullopt;
    }
    throw;  // plain timeout — caller may keep waiting
  }
  if (frame.type == net::FrameType::kResponse) {
    result_ = wire::decode_response(frame.payload);
    ended_ = true;
    return std::nullopt;
  }
  if (frame.type != net::FrameType::kTick) {
    ended_ = true;
    return std::nullopt;
  }
  wire::Tick tick = wire::decode_tick(frame.payload);
  if (tick.kind == wire::TickKind::kEnd) {
    // Keep reading for the final response so result() is meaningful,
    // but the tick stream itself is done. The response follows the end
    // tick immediately; a short wait is enough.
    try {
      const net::Frame fin = client_.read_frame_for(id_, timeout_ms);
      if (fin.type == net::FrameType::kResponse) {
        result_ = wire::decode_response(fin.payload);
      }
    } catch (const net::NetError&) {
      // Tolerated: the stream delivered everything it promised.
    }
    ended_ = true;
    return std::nullopt;
  }
  ++ticks_;
  return tick;
}

void Subscription::close() {
  client_.disconnect();
  ended_ = true;
}

}  // namespace exawatt::server
