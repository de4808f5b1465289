#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace exawatt::net {

/// Stable identity of one accepted connection (never reused within a
/// loop's lifetime, so a late completion can't address a new peer).
using ConnId = std::uint64_t;

struct LoopOptions {
  /// A connection whose unsent *ungated* outbound queue exceeds this is
  /// closed: the consumer stopped reading (or is reading adversarially
  /// slowly) and unbounded buffering is the real denial-of-service.
  /// Gated (streamed) bytes are excluded — they are bounded by
  /// `stream_budget_bytes` and pause their producer instead.
  std::size_t max_pending_write_bytes = std::size_t{64} << 20;
  /// Read chunk per readiness event.
  std::size_t read_chunk = 64 << 10;
  /// Per-connection in-flight budget for *gated* sends (chunked stream
  /// frames). A producer that would exceed it blocks in
  /// StreamGate::acquire until the peer drains — backpressure pauses the
  /// scan, it never closes the connection.
  std::size_t stream_budget_bytes = std::size_t{4} << 20;
};

/// Counters of one stream gate (and, folded, of the whole loop).
struct StreamGateStats {
  std::uint64_t pauses = 0;   ///< producer blocked on a full budget
  std::uint64_t resumes = 0;  ///< producer unblocked by the peer draining
  std::uint64_t peak_buffered = 0;  ///< max in-flight gated bytes observed
};

/// Lifetime counters of one loop (loop thread reads/writes; `stats()`
/// is safe from other threads).
struct LoopStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t backpressure_closes = 0;
  std::uint64_t stream_pauses = 0;
  std::uint64_t stream_resumes = 0;
  std::uint64_t stream_peak_buffered = 0;
};

/// Per-connection in-flight-bytes budget for streamed responses. The
/// producing worker calls `acquire()` before every chunk it hands to
/// `EventLoop::send(..., gated=true)`; the loop thread `release()`s as
/// those bytes reach the socket. When the peer stops draining, acquire
/// blocks — the scan pauses exactly where it stands — and wakes either
/// when capacity frees (a resume), when the connection dies (`close()`),
/// or when the request's cancel token fires.
class StreamGate {
 public:
  explicit StreamGate(std::size_t budget) : budget_(budget) {}

  /// Block until `n` more bytes fit under the budget. Polls `cancelled`
  /// (may be null) in short slices so a cancelled request never stays
  /// parked on a full gate. False when the gate closed or the request
  /// was cancelled — the producer must stop streaming.
  [[nodiscard]] bool acquire(std::size_t n,
                             const std::function<bool()>& cancelled);

  /// Loop thread: `n` gated bytes reached the socket.
  void release(std::size_t n);

  /// Connection gone: unblock every paused producer with failure.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t in_flight() const;
  [[nodiscard]] StreamGateStats stats() const;

 private:
  // A producer whose single chunk exceeds the whole budget must still
  // make progress, so an empty gate admits any size.
  [[nodiscard]] bool fits(std::size_t n) const {
    return in_flight_ == 0 || in_flight_ + n <= budget_;
  }

  const std::size_t budget_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t in_flight_ = 0;
  bool closed_ = false;
  StreamGateStats stats_;
};

/// epoll(7)-driven single-threaded reactor over one listener: accepts
/// connections, decodes frames with the adversarial-input FrameDecoder,
/// and writes queued responses with backpressure. Connections are
/// registered edge-triggered (EPOLLIN|EPOLLOUT|EPOLLET|EPOLLRDHUP) once
/// at accept, so a wakeup costs O(ready) rather than the old poll(2)
/// loop's O(connections) pollfd rebuild; newly queued output is flushed
/// eagerly off a dirty list and the EPOLLOUT edge takes over only when
/// the socket buffer actually fills. Worker threads hand finished
/// responses back with `send()`, which is thread-safe and wakes the
/// reactor through a self-pipe; everything else runs on the loop thread.
class EventLoop {
 public:
  struct Callbacks {
    /// A validated frame arrived. Runs on the loop thread — hand real
    /// work to a pool and return.
    std::function<void(ConnId, Frame&&)> on_frame;
    /// Framing violated: a goodbye frame with the fault text has already
    /// been queued; the connection closes once it flushes.
    std::function<void(ConnId, const FrameError&)> on_protocol_error;
    std::function<void(ConnId)> on_open;
    /// Fires exactly once per accepted connection, on the loop thread —
    /// the cancellation hook for in-flight work of that peer.
    std::function<void(ConnId)> on_close;
  };

  EventLoop(TcpListener listener, Callbacks callbacks, LoopOptions options = {});
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// One epoll_wait + dispatch round; `timeout_ms < 0` blocks until
  /// activity. Returns false once a `stop()` ended the cycle; the stop is
  /// consumed, so a later run_once (a drain's flush) runs normally.
  bool run_once(int timeout_ms);
  /// run_once until stop().
  void run();

  /// Thread-safe: request the loop to exit its run()/run_once cycle.
  void stop();

  /// Thread-safe: queue an already-encoded frame for `conn`. Returns
  /// false when the connection is gone (the bytes are dropped — the
  /// caller's cancel token fires via on_close, never silently for a live
  /// peer). Wakes the reactor. `gated` marks bytes whose budget the
  /// sender already acquired from the connection's StreamGate; the loop
  /// releases that budget as they reach the socket, and they are exempt
  /// from the max_pending_write_bytes kill.
  bool send(ConnId conn, std::vector<std::uint8_t> frame_bytes,
            bool gated = false);

  /// Thread-safe: the stream gate of a live connection (nullptr once it
  /// closed). Producers must re-check acquire()'s result, not liveness.
  [[nodiscard]] std::shared_ptr<StreamGate> gate_of(ConnId conn) const;

  /// Thread-safe: close `conn` after flushing everything queued so far.
  void close_after_flush(ConnId conn);

  /// Stop accepting new connections (drain mode); existing ones live on.
  void pause_accept();

  /// Loop-thread only: true when nothing is waiting to be written — the
  /// cross-thread mailbox is empty and every connection outbox flushed.
  /// Drain sequences spin run_once until this holds.
  [[nodiscard]] bool output_idle() const;

  [[nodiscard]] std::uint16_t port() const { return listener_.local_port(); }
  [[nodiscard]] LoopStats stats() const;

 private:
  struct Out {
    std::vector<std::uint8_t> bytes;
    bool gated = false;
  };
  struct Conn {
    TcpStream stream;
    FrameDecoder decoder;
    std::deque<Out> outbox;         ///< loop-thread owned
    std::size_t outbox_offset = 0;  ///< sent bytes of outbox.front()
    std::size_t pending_bytes = 0;
    std::size_t gated_pending = 0;  ///< pending bytes under the gate
    bool closing = false;           ///< close once the outbox flushes
  };

  void ep_add(int fd, std::uint64_t tag, bool edge);
  void accept_ready();
  void read_ready(ConnId id, Conn& conn, bool hangup);
  bool write_ready(ConnId id, Conn& conn);  ///< false when conn was closed
  void fail_protocol(ConnId id, Conn& conn, const FrameError& err);
  void close_conn(ConnId id);
  void drain_mailbox();
  /// Attempt an immediate flush of every connection whose outbox gained
  /// bytes since the last flush (edge-triggered EPOLLOUT only fires on a
  /// full->writable transition, so fresh output must be pushed eagerly).
  void flush_dirty();

  TcpListener listener_;
  Callbacks callbacks_;
  LoopOptions options_;
  WakePipe wake_;
  int epfd_ = -1;
  bool listener_registered_ = false;
  std::map<ConnId, Conn> conns_;  ///< loop thread only
  std::vector<ConnId> dirty_;     ///< loop thread only; may hold dupes
  ConnId next_id_ = 1;

  /// Cross-thread state: the mailbox (send()/close_after_flush() land
  /// here, the loop thread applies them after each wake), the live
  /// connection map mirroring conns_ (value = that connection's stream
  /// gate), stats, and the stop/pause flags.
  mutable std::mutex mail_mu_;
  struct Mail {
    ConnId conn = 0;
    std::vector<std::uint8_t> bytes;  ///< empty => close_after_flush
    bool gated = false;
  };
  std::vector<Mail> mailbox_;
  std::unordered_map<ConnId, std::shared_ptr<StreamGate>> live_;
  bool stop_requested_ = false;
  bool accept_paused_ = false;
  LoopStats stats_;  ///< gate counters folded in at close; stats() adds live gates
};

}  // namespace exawatt::net
