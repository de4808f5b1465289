#include "serving.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "cluster/shard_map.hpp"
#include "net/socket.hpp"
#include "server/client.hpp"

namespace exawatt::perf {

namespace {

/// Sleep until `due_us` (now_us() clock): coarse sleep, then a short spin
/// so an open-loop sender is not late by the scheduler's wake-up slack.
void wait_until(double due_us) {
  constexpr double kSpinUs = 100.0;
  const double ahead = due_us - now_us() - kSpinUs;
  if (ahead > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(ahead));
  }
  while (now_us() < due_us) {
  }
}

server::Client connect(std::uint16_t port) {
  server::ClientOptions options;
  options.port = port;
  return server::Client(options);
}

/// Equal answers: the same bytes on the wire once the per-call cache
/// counters are cleared and a block-form scan is read as the classic scan
/// it decodes to.
bool same_answer(wire::Response a, wire::Response b) {
  for (wire::Response* r : {&a, &b}) {
    r->stats = {};
    if (r->method == wire::Method::kScanBlocks) r->method = wire::Method::kScan;
  }
  return wire::encode_response(a) == wire::encode_response(b);
}

}  // namespace

std::vector<std::string> write_stores(const Feed& feed, const std::string& root,
                                      std::size_t shards) {
  std::vector<std::string> dirs;
  std::vector<store::Store> stores;
  for (std::size_t i = 0; i < shards; ++i) {
    dirs.push_back(root + (shards == 1 ? "/store" : "/shard" + std::to_string(i)));
    stores.push_back(store::Store::open(dirs.back()));
  }
  if (shards == 1) {
    for (const auto& batch : feed.batches) stores.front().append(batch);
  } else {
    const cluster::ShardMap map = cluster::ShardMap::uniform(shards);
    for (const auto& batch : feed.batches) {
      auto parts = map.split(batch);
      for (std::size_t i = 0; i < shards; ++i) {
        if (!parts[i].empty()) stores[i].append(std::move(parts[i]));
      }
    }
  }
  for (store::Store& s : stores) s.flush();
  return dirs;
}

PhaseResult run_phase(std::uint16_t port, const Traffic& traffic,
                      double seconds) {
  const std::size_t clients = traffic.lists.size();
  const bool open_loop = !traffic.due_us.empty();
  std::vector<PhaseResult> per(clients);
  std::vector<double> last_done(clients, 0.0);
  const double start = now_us() + 50'000.0;  // every client connected by then
  const double end = start + seconds * 1e6;

  run_threads(clients, [&](std::size_t c) {
      PhaseResult& out = per[c];
      const std::vector<Req>& list = traffic.lists[c];
      server::Client client = connect(port);
      wire::Request hello;
      (void)client.call(hello);  // connect outside the measured phase
      wait_until(start);
      double prev_done = start;
      for (std::size_t i = 0;; ++i) {
        double due = 0.0;
        if (open_loop) {
          if (i >= traffic.due_us[c].size()) break;
          due = start + traffic.due_us[c][i];
          wait_until(due);
          out.late_ms.push_back((now_us() - std::max(due, prev_done)) / 1e3);
        } else {
          if (now_us() >= end) break;
          due = now_us();
        }
        const std::size_t index = open_loop ? i : i % list.size();
        const Req& req = list[index];
        Sample s;
        s.op = req.op;
        try {
          wire::Response resp = client.call(req.wire);
          s.ok = resp.status == wire::Status::kOk;
          if (s.ok && resp.stats.degraded()) {
            s.ok = false;
            ++out.degraded;
          }
          s.volume = s.ok ? wire::response_event_volume(resp) : 0;
          if (s.ok && (i == 0 || index % 50 == traffic.check_offset)) {
            out.checks.emplace_back(req, std::move(resp));
          }
        } catch (const net::NetError&) {
          s.ok = false;
        }
        prev_done = now_us();
        s.ms = (prev_done - due) / 1e3;
        out.samples.push_back(s);
      }
      last_done[c] = prev_done;
  });

  PhaseResult all;
  const double finish = *std::max_element(last_done.begin(), last_done.end());
  all.elapsed_s = ((open_loop ? std::max(end, finish) : finish) - start) / 1e6;
  for (PhaseResult& p : per) {
    all.samples.insert(all.samples.end(), p.samples.begin(), p.samples.end());
    all.late_ms.insert(all.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    for (auto& check : p.checks) all.checks.push_back(std::move(check));
    all.degraded += p.degraded;
  }
  return all;
}

void warm_up(std::uint16_t port, const std::vector<Req>& reqs) {
  server::Client client = connect(port);
  for (const Req& req : reqs) {
    const wire::Response resp = client.call(req.wire);
    if (resp.status != wire::Status::kOk) {
      throw std::runtime_error(std::string("warm-up ") + op_name(req.op) +
                               " answered " + wire::status_name(resp.status) +
                               ": " + resp.message);
    }
  }
}

std::size_t parity_mismatches(
    const std::vector<std::pair<Req, wire::Response>>& checks,
    const server::QueryService& reference) {
  std::size_t bad = 0;
  for (const auto& [req, got] : checks) {
    wire::Response want = reference.execute(req.wire);
    if (!want.stats.degraded() && same_answer(got, std::move(want))) continue;
    if (bad++ == 0) {
      std::fprintf(stderr, "parity: %s answer differs from direct execution\n",
                   op_name(req.op));
    }
  }
  return bad;
}

}  // namespace exawatt::perf
