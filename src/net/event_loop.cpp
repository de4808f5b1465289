#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace exawatt::net {

namespace {

/// epoll user-data tags for the two non-connection fds. ConnIds count up
/// from 1, so the top of the 64-bit space can never collide.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr std::uint64_t kListenerTag = ~std::uint64_t{0} - 1;

}  // namespace

bool StreamGate::acquire(std::size_t n,
                         const std::function<bool()>& cancelled) {
  if (cancelled && cancelled()) return false;
  std::unique_lock lk(mu_);
  bool paused = false;
  while (!closed_ && !fits(n)) {
    if (!paused) {
      paused = true;
      ++stats_.pauses;
    }
    // Short slices rather than a pure cv wait: the cancel token has no
    // way to notify this cv, and a cancelled request must not stay
    // parked on a gate its peer will never drain.
    cv_.wait_for(lk, std::chrono::milliseconds(5));
    if (cancelled && cancelled()) return false;
  }
  if (closed_) return false;
  if (paused) ++stats_.resumes;
  in_flight_ += n;
  stats_.peak_buffered =
      std::max(stats_.peak_buffered, std::uint64_t{in_flight_});
  return true;
}

void StreamGate::release(std::size_t n) {
  {
    std::lock_guard lk(mu_);
    in_flight_ -= std::min(n, in_flight_);
  }
  cv_.notify_all();
}

void StreamGate::close() {
  {
    std::lock_guard lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool StreamGate::closed() const {
  std::lock_guard lk(mu_);
  return closed_;
}

std::size_t StreamGate::in_flight() const {
  std::lock_guard lk(mu_);
  return in_flight_;
}

StreamGateStats StreamGate::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

EventLoop::EventLoop(TcpListener listener, Callbacks callbacks,
                     LoopOptions options)
    : listener_(std::move(listener)),
      callbacks_(std::move(callbacks)),
      options_(options) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    throw NetError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  ep_add(wake_.read_fd(), kWakeTag, /*edge=*/false);
  if (listener_.valid()) {
    ep_add(listener_.fd(), kListenerTag, /*edge=*/false);
    listener_registered_ = true;
  }
}

EventLoop::~EventLoop() {
  if (epfd_ >= 0) ::close(epfd_);
}

void EventLoop::ep_add(int fd, std::uint64_t tag, bool edge) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (edge) ev.events |= EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = tag;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw NetError(std::string("epoll_ctl add: ") + std::strerror(errno));
  }
}

void EventLoop::stop() {
  {
    std::lock_guard lk(mail_mu_);
    stop_requested_ = true;
  }
  wake_.notify();
}

bool EventLoop::send(ConnId conn, std::vector<std::uint8_t> frame_bytes,
                     bool gated) {
  {
    std::lock_guard lk(mail_mu_);
    if (!live_.contains(conn)) return false;
    mailbox_.push_back({conn, std::move(frame_bytes), gated});
  }
  wake_.notify();
  return true;
}

std::shared_ptr<StreamGate> EventLoop::gate_of(ConnId conn) const {
  std::lock_guard lk(mail_mu_);
  const auto it = live_.find(conn);
  return it == live_.end() ? nullptr : it->second;
}

void EventLoop::close_after_flush(ConnId conn) {
  {
    std::lock_guard lk(mail_mu_);
    if (!live_.contains(conn)) return;
    mailbox_.push_back({conn, {}, false});
  }
  wake_.notify();
}

void EventLoop::pause_accept() {
  {
    std::lock_guard lk(mail_mu_);
    accept_paused_ = true;
  }
  wake_.notify();
}

bool EventLoop::output_idle() const {
  {
    std::lock_guard lk(mail_mu_);
    if (!mailbox_.empty()) return false;
  }
  for (const auto& [id, conn] : conns_) {
    if (!conn.outbox.empty()) return false;
  }
  return true;
}

LoopStats EventLoop::stats() const {
  std::lock_guard lk(mail_mu_);
  LoopStats s = stats_;
  for (const auto& [id, gate] : live_) {
    const StreamGateStats gs = gate->stats();
    s.stream_pauses += gs.pauses;
    s.stream_resumes += gs.resumes;
    s.stream_peak_buffered = std::max(s.stream_peak_buffered, gs.peak_buffered);
  }
  return s;
}

void EventLoop::drain_mailbox() {
  std::vector<Mail> mail;
  {
    std::lock_guard lk(mail_mu_);
    mail.swap(mailbox_);
  }
  for (Mail& m : mail) {
    const auto it = conns_.find(m.conn);
    if (it == conns_.end()) continue;  // raced with a close; drop
    Conn& conn = it->second;
    if (m.bytes.empty()) {
      conn.closing = true;
      dirty_.push_back(m.conn);
      continue;
    }
    conn.pending_bytes += m.bytes.size();
    if (m.gated) conn.gated_pending += m.bytes.size();
    conn.outbox.push_back({std::move(m.bytes), m.gated});
    dirty_.push_back(m.conn);
    {
      std::lock_guard lk(mail_mu_);
      ++stats_.frames_out;
    }
    // Gated bytes are excluded: they are bounded by the stream gate and
    // pause their producer, so only ungated growth means the peer
    // stopped consuming faster than we are willing to buffer.
    if (conn.pending_bytes - conn.gated_pending >
        options_.max_pending_write_bytes) {
      {
        std::lock_guard lk(mail_mu_);
        ++stats_.backpressure_closes;
      }
      close_conn(it->first);
    }
  }
}

void EventLoop::flush_dirty() {
  if (dirty_.empty()) return;
  std::vector<ConnId> work;
  work.swap(dirty_);
  for (const ConnId id : work) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // closed since it was marked
    if (!it->second.outbox.empty() || it->second.closing) {
      (void)write_ready(id, it->second);
    }
  }
}

void EventLoop::accept_ready() {
  for (;;) {
    TcpStream stream = listener_.accept();
    if (!stream.valid()) return;
    const ConnId id = next_id_++;
    Conn conn;
    conn.stream = std::move(stream);
    const int fd = conn.stream.fd();
    conns_.emplace(id, std::move(conn));
    try {
      ep_add(fd, id, /*edge=*/true);
    } catch (const NetError&) {
      conns_.erase(id);  // out of epoll capacity; drop the newcomer
      continue;
    }
    {
      std::lock_guard lk(mail_mu_);
      live_.emplace(id,
                    std::make_shared<StreamGate>(options_.stream_budget_bytes));
      ++stats_.accepted;
    }
    if (callbacks_.on_open) callbacks_.on_open(id);
  }
}

void EventLoop::fail_protocol(ConnId id, Conn& conn, const FrameError& err) {
  {
    std::lock_guard lk(mail_mu_);
    ++stats_.protocol_errors;
  }
  if (callbacks_.on_protocol_error) callbacks_.on_protocol_error(id, err);
  // Best-effort goodbye so a buggy (rather than hostile) client learns
  // why it was cut off; then close once it flushes.
  const std::string reason = err.what();
  auto bytes = encode_frame(
      FrameType::kGoodbye, 0,
      {reinterpret_cast<const std::uint8_t*>(reason.data()), reason.size()});
  conn.pending_bytes += bytes.size();
  conn.outbox.push_back({std::move(bytes), false});
  conn.closing = true;
  dirty_.push_back(id);
}

void EventLoop::read_ready(ConnId id, Conn& conn, bool hangup) {
  std::vector<std::uint8_t> chunk(options_.read_chunk);
  for (;;) {
    const IoResult r = conn.stream.read_some(chunk.data(), chunk.size());
    if (r.status == IoStatus::kWouldBlock) return;
    if (r.status == IoStatus::kClosed || r.status == IoStatus::kError) {
      close_conn(id);
      return;
    }
    {
      std::lock_guard lk(mail_mu_);
      stats_.bytes_in += r.n;
    }
    if (conn.closing) continue;  // discard input while flushing a goodbye
    try {
      conn.decoder.feed({chunk.data(), r.n});
    } catch (const FrameError& err) {
      fail_protocol(id, conn, err);
      return;
    }
    Frame frame;
    while (conn.decoder.next(frame)) {
      {
        std::lock_guard lk(mail_mu_);
        ++stats_.frames_in;
      }
      if (callbacks_.on_frame) callbacks_.on_frame(id, std::move(frame));
      if (!conns_.contains(id)) return;  // callback closed the connection
    }
    // A short read proves the socket buffer was emptied at that instant,
    // which is enough for edge-triggered correctness: any byte arriving
    // after it re-arms the EPOLLIN edge. EXCEPT after a hangup — the
    // peer's close was edge-signalled together with its final bytes and
    // will never fire again, so the EOF must be read out right now.
    if (r.n < chunk.size() && !hangup) return;
  }
}

bool EventLoop::write_ready(ConnId id, Conn& conn) {
  while (!conn.outbox.empty()) {
    Out& front = conn.outbox.front();
    const IoResult r =
        conn.stream.write_some(front.bytes.data() + conn.outbox_offset,
                               front.bytes.size() - conn.outbox_offset);
    if (r.status == IoStatus::kWouldBlock) return true;
    if (r.status != IoStatus::kOk) {
      close_conn(id);
      return false;
    }
    {
      std::lock_guard lk(mail_mu_);
      stats_.bytes_out += r.n;
    }
    conn.outbox_offset += r.n;
    conn.pending_bytes -= r.n;
    if (front.gated) {
      conn.gated_pending -= std::min(r.n, conn.gated_pending);
      if (const auto gate = gate_of(id)) gate->release(r.n);
    }
    if (conn.outbox_offset == front.bytes.size()) {
      conn.outbox.pop_front();
      conn.outbox_offset = 0;
    }
  }
  if (conn.closing) {
    close_conn(id);
    return false;
  }
  return true;
}

void EventLoop::close_conn(ConnId id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, it->second.stream.fd(), nullptr);
  conns_.erase(it);
  std::shared_ptr<StreamGate> gate;
  {
    std::lock_guard lk(mail_mu_);
    const auto lit = live_.find(id);
    if (lit != live_.end()) {
      gate = std::move(lit->second);
      live_.erase(lit);
    }
    if (gate) {
      // Fold the dying gate's counters into the loop totals so stats()
      // never loses pauses to a connection churn race.
      const StreamGateStats gs = gate->stats();
      stats_.stream_pauses += gs.pauses;
      stats_.stream_resumes += gs.resumes;
      stats_.stream_peak_buffered =
          std::max(stats_.stream_peak_buffered, gs.peak_buffered);
    }
    ++stats_.closed;
  }
  if (gate) gate->close();  // frees any producer paused on this peer
  if (callbacks_.on_close) callbacks_.on_close(id);
}

bool EventLoop::run_once(int timeout_ms) {
  bool paused;
  {
    std::lock_guard lk(mail_mu_);
    if (std::exchange(stop_requested_, false)) return false;
    paused = accept_paused_;
  }
  if (paused && listener_registered_) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
    listener_registered_ = false;
  }
  drain_mailbox();
  flush_dirty();  // never sleep on output that could be written right now

  std::array<epoll_event, 128> events;
  const int rc = ::epoll_wait(epfd_, events.data(),
                              static_cast<int>(events.size()), timeout_ms);
  if (rc < 0 && errno != EINTR) {
    throw NetError(std::string("epoll_wait: ") + std::strerror(errno));
  }
  wake_.drain();
  drain_mailbox();  // apply sends that triggered the wake before I/O
  flush_dirty();

  for (int i = 0; i < std::max(rc, 0); ++i) {
    const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
    const std::uint32_t got = events[static_cast<std::size_t>(i)].events;
    if (tag == kWakeTag) continue;
    if (tag == kListenerTag) {
      if (listener_registered_) accept_ready();
      continue;
    }
    const ConnId id = tag;
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // closed earlier this round
    if ((got & EPOLLERR) != 0) {
      close_conn(id);
      continue;
    }
    if ((got & EPOLLOUT) != 0 && !write_ready(id, it->second)) continue;
    it = conns_.find(id);
    if (it == conns_.end()) continue;
    if ((got & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
      read_ready(id, it->second, (got & (EPOLLRDHUP | EPOLLHUP)) != 0);
    }
  }

  // Flush output queued by on_frame callbacks during this round's reads.
  drain_mailbox();
  flush_dirty();

  std::lock_guard lk(mail_mu_);
  return !std::exchange(stop_requested_, false);
}

void EventLoop::run() {
  while (run_once(-1)) {
  }
}

}  // namespace exawatt::net
