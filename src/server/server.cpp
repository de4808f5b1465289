#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "server/chunk.hpp"

namespace exawatt::server {

namespace {

/// Requested chunk payload clamp: small enough that one chunk never
/// monopolizes a gate budget, large enough that framing overhead stays
/// negligible. The client asked for *about* this much per frame.
constexpr std::uint32_t kMinChunkBytes = 512;
constexpr std::uint32_t kMaxChunkBytes = 1u << 20;

}  // namespace

Server::Server(const store::Store& store, ServerOptions options)
    : owned_service_(
          std::make_unique<QueryService>(store, options.service)),
      service_(*owned_service_) {
  init_loop(options);
}

Server::Server(QueryService& service, ServerOptions options)
    : service_(service) {
  init_loop(options);
}

void Server::init_loop(const ServerOptions& options) {
  net::EventLoop::Callbacks callbacks;
  callbacks.on_frame = [this](net::ConnId conn, net::Frame&& frame) {
    on_frame(conn, std::move(frame));
  };
  callbacks.on_open = [this](net::ConnId conn) { on_open(conn); };
  callbacks.on_close = [this](net::ConnId conn) { on_close(conn); };
  loop_ = std::make_unique<net::EventLoop>(
      net::TcpListener::bind(options.port, options.loopback_only),
      std::move(callbacks), options.loop);
  // Chained after whatever augment the service owner installed (a
  // coordinator adds shard health first; both run).
  service_.set_stats_augment([this](wire::ServerStatsWire& s) {
    const net::LoopStats ls = loop_->stats();
    s.add("stream.responses", streams_.load(std::memory_order_relaxed));
    s.add("stream.chunks", stream_chunks_.load(std::memory_order_relaxed));
    s.add("stream.pauses", ls.stream_pauses);
    s.add("stream.resumes", ls.stream_resumes);
    s.add("stream.peak_buffered_bytes", ls.stream_peak_buffered);
    s.add("transport.connections", ls.accepted);
    s.add("transport.closed", ls.closed);
    s.add("transport.frames_in", ls.frames_in);
    s.add("transport.frames_out", ls.frames_out);
    s.add("transport.bytes_in", ls.bytes_in);
    s.add("transport.bytes_out", ls.bytes_out);
    s.add("transport.protocol_errors", ls.protocol_errors);
    s.add("transport.backpressure_closes", ls.backpressure_closes);
  });
}

void Server::on_open(net::ConnId conn) {
  std::lock_guard lk(mu_);
  tokens_.emplace(conn, make_cancel_token());
}

void Server::on_close(net::ConnId conn) {
  CancelToken token;
  {
    std::lock_guard lk(mu_);
    const auto it = tokens_.find(conn);
    if (it == tokens_.end()) return;
    token = std::move(it->second);
    tokens_.erase(it);
  }
  // Everything this peer still has queued or streaming is now pointless;
  // workers observe the trip before (or between ticks of) execution.
  token->store(true, std::memory_order_relaxed);
}

CancelToken Server::token_of(net::ConnId conn) {
  std::lock_guard lk(mu_);
  const auto it = tokens_.find(conn);
  return it != tokens_.end() ? it->second : make_cancel_token();
}

void Server::on_frame(net::ConnId conn, net::Frame&& frame) {
  if (frame.type != net::FrameType::kRequest) {
    // Clients must only ever send requests; anything else is a protocol
    // violation at the message layer — goodbye and close.
    loop_->send(conn,
                net::encode_frame(
                    net::FrameType::kGoodbye, frame.request_id,
                    {reinterpret_cast<const std::uint8_t*>("unexpected frame "
                                                           "type"),
                     21}));
    loop_->close_after_flush(conn);
    return;
  }
  const std::uint64_t request_id = frame.request_id;
  wire::Request request;
  try {
    request = wire::decode_request(frame.payload);
  } catch (const wire::WireError& e) {
    // Framing is intact (magic/CRC passed), so the connection survives a
    // malformed request body; only this request is rejected.
    wire::Response resp;
    resp.status = wire::Status::kInvalidArgument;
    resp.message = e.what();
    loop_->send(conn, net::encode_frame(net::FrameType::kResponse, request_id,
                                        wire::encode_response(resp)));
    return;
  }

  const CancelToken token = token_of(conn);

  // Chunked streaming, when the request asked for it: the writer slices
  // encoded response bytes into kChunk/kFinal frames whose budget it
  // acquires from this connection's stream gate — a peer that stops
  // draining pauses the producing worker instead of ballooning memory.
  std::shared_ptr<ChunkWriter> writer;
  if (request.chunk_bytes != 0) {
    const std::shared_ptr<net::StreamGate> gate = loop_->gate_of(conn);
    if (gate != nullptr) {
      ChunkWriter::Sink sink;
      sink.acquire = [gate](std::size_t n,
                            const std::function<bool()>& cancelled) {
        return gate->acquire(n, cancelled);
      };
      sink.send = [this, conn](std::vector<std::uint8_t>&& bytes) {
        return loop_->send(conn, std::move(bytes), /*gated=*/true);
      };
      writer = std::make_shared<ChunkWriter>(
          request_id,
          std::clamp(request.chunk_bytes, kMinChunkBytes, kMaxChunkBytes),
          std::move(sink),
          [token] { return token->load(std::memory_order_relaxed); });
      streams_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Completion + ticks hop back to the loop thread via the mailbox; a
  // send to a vanished connection is a no-op (its token is tripped).
  auto emit = [this, conn, request_id](const wire::Tick& tick) {
    loop_->send(conn, net::encode_frame(net::FrameType::kTick, request_id,
                                        wire::encode_tick(tick)));
  };
  auto done = [this, conn, request_id, writer](wire::Response&& resp) {
    if (writer != nullptr) {
      if (!writer->terminated()) {
        if (resp.status == wire::Status::kOk) {
          // Materialized-but-chunked path (executor body that ignores
          // the stream): runs on a worker thread, so blocking on the gate
          // here is the intended backpressure. A streaming body already
          // terminated the writer and never reaches this.
          const auto payload = wire::encode_response(resp);
          if (writer->write(payload)) (void)writer->finish();
        } else if (writer->streamed()) {
          // Failure after fragments went out: disown them with kAbort.
          (void)writer->abort(resp);
        } else {
          // Nothing streamed yet, and error dones can run inline on the
          // loop thread (shed/drain/invalid) — a plain ungated frame
          // must not block on the gate that very thread drains.
          loop_->send(conn,
                      net::encode_frame(net::FrameType::kResponse, request_id,
                                        wire::encode_response(resp)));
        }
      }
      stream_chunks_.fetch_add(writer->chunks(), std::memory_order_relaxed);
      return;
    }
    loop_->send(conn, net::encode_frame(net::FrameType::kResponse, request_id,
                                        wire::encode_response(resp)));
  };
  service_.submit(std::move(request), token, std::move(emit),
                  std::move(done), writer.get());
}

void Server::run(const std::function<bool()>& until, int tick_ms) {
  if (!until) {
    loop_->run();
    return;
  }
  while (!until()) {
    if (!loop_->run_once(tick_ms)) return;
  }
}

void Server::shutdown() { loop_->stop(); }

void Server::drain(int max_flush_ms) {
  loop_->pause_accept();
  // A chunked `done` may park on its peer's stream gate, which only this
  // thread's socket writes release, so the loop keeps turning as the
  // service finishes its work (run_once runs a full round even after the
  // stop that ended run()). Past max_flush_ms a peer still holding
  // unsent gated bytes is given up: its token trips and the parked
  // writer returns.
  using Clock = std::chrono::steady_clock;
  const auto budget = std::chrono::milliseconds(max_flush_ms);
  const auto give_up = Clock::now() + budget;
  while (!service_.drain(0)) {
    (void)loop_->run_once(20);
    if (Clock::now() >= give_up) cancel_stalled_peers();
  }
  const auto flushed_by = Clock::now() + budget;
  while (!loop_->output_idle() && Clock::now() < flushed_by) {
    (void)loop_->run_once(20);
  }
}

void Server::cancel_stalled_peers() {
  std::vector<std::pair<net::ConnId, CancelToken>> peers;
  {
    std::lock_guard lk(mu_);
    peers.assign(tokens_.begin(), tokens_.end());
  }
  for (const auto& [conn, token] : peers) {
    const std::shared_ptr<net::StreamGate> gate = loop_->gate_of(conn);
    if (gate != nullptr && gate->in_flight() > 0) {
      token->store(true, std::memory_order_relaxed);
    }
  }
}

}  // namespace exawatt::server
