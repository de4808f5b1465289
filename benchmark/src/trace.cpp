#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"

namespace exawatt::perf {

namespace {

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int mine = next.fetch_add(1);
  return mine;
}

/// The layer structure: a span named on the left is a child of the first
/// span of the same pass and request named on the right.
const std::map<std::string, std::vector<std::string>>& parent_rules() {
  static const std::map<std::string, std::vector<std::string>> rules = {
      {"server.exec", {"client.call", "service.execute", "qos.request"}},
      {"shard.exec", {"server.exec", "cluster.coord"}},
      {"qos.submit", {"qos.request"}},
      {"qos.queue_wait", {"qos.request"}},
      {"wire.encode_request", {"wire.codec"}},
      {"wire.decode_request", {"wire.codec"}},
      {"wire.encode_response", {"wire.codec"}},
      {"wire.decode_response", {"wire.codec"}},
      {"scenario.fetch", {"scenario.request"}},
      {"scenario.sweep", {"scenario.request"}},
      {"store.append", {"ingest.minute"}},
      {"store.flush", {"ingest.minute"}},
  };
  return rules;
}

}  // namespace

void Tracer::begin_pass(int pass) {
  std::lock_guard lk(mu_);
  pass_ = pass;
  tokens_.clear();
}

void Tracer::bind(const void* token, std::uint64_t req) {
  std::lock_guard lk(mu_);
  tokens_[token] = req;
}

void Tracer::record(const std::string& name, double start_us, double end_us,
                    std::uint64_t req) {
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.req = req;
  span.tid = thread_number();
  std::lock_guard lk(mu_);
  span.pass = pass_;
  spans_.push_back(std::move(span));
}

ExecutorWrap Tracer::wrapper(const std::string& name) {
  return [this, name](server::QueryService::Executor inner) {
    return [this, name, inner = std::move(inner)](
               const wire::Request& request, const server::CancelToken& cancel,
               std::int64_t deadline_us, const server::QueryService::Emit& emit,
               server::ChunkWriter* stream) {
      const double t0 = now_us();
      wire::Response resp = inner(request, cancel, deadline_us, emit, stream);
      const double t1 = now_us();
      std::uint64_t req = current_.load();
      {
        std::lock_guard lk(mu_);
        const auto it = tokens_.find(cancel.get());
        if (it != tokens_.end()) req = it->second;
      }
      if (req != 0) record(name, t0, t1, req);
      return resp;
    };
  };
}

bool Tracer::link_and_check(std::string* why) {
  std::map<std::tuple<int, std::uint64_t, std::string>, std::size_t> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < s.start_us) {
      *why = s.name + " ends before it starts";
      return false;
    }
    const auto key = std::make_tuple(s.pass, s.req, s.name);
    if (parent_rules().count(s.name) == 0 && by_name.count(key) != 0) {
      *why = "two root spans " + s.name + " for request " +
             std::to_string(s.req);
      return false;
    }
    by_name.emplace(key, i);
  }
  children_.assign(spans_.size(), {});
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    const auto rule = parent_rules().find(s.name);
    if (rule == parent_rules().end()) continue;
    for (const std::string& candidate : rule->second) {
      const auto it = by_name.find(std::make_tuple(s.pass, s.req, candidate));
      if (it != by_name.end()) {
        s.parent = static_cast<std::int64_t>(it->second);
        break;
      }
    }
    if (s.parent < 0) {
      *why = s.name + " of request " + std::to_string(s.req) +
             " has no parent span";
      return false;
    }
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_us < p.start_us || s.end_us > p.end_us) {
      *why = s.name + " of request " + std::to_string(s.req) +
             " is not inside its parent " + p.name;
      return false;
    }
    children_[static_cast<std::size_t>(s.parent)].push_back(i);
  }
  return true;
}

double Tracer::self_us(std::size_t index) const {
  const Span& s = spans_[index];
  std::vector<std::pair<double, double>> cover;
  for (const std::size_t c : children_[index]) {
    cover.emplace_back(std::max(spans_[c].start_us, s.start_us),
                       std::min(spans_[c].end_us, s.end_us));
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double reach = s.start_us;
  for (const auto& [b, e] : cover) {
    const double from = std::max(b, reach);
    if (e > from) covered += e - from;
    reach = std::max(reach, e);
  }
  return s.dur_us() - covered;
}

void Tracer::write_chrome(const std::string& path,
                          const std::vector<std::string>& methods) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool labelled = s.req >= 1 && s.req <= methods.size();
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"pass%d\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d, "
                 "\"args\": {\"req\": %llu, \"method\": \"%s\", \"span\": %zu, "
                 "\"parent\": %lld}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.pass, s.start_us,
                 s.dur_us(), s.pass, s.tid,
                 static_cast<unsigned long long>(s.req),
                 labelled ? methods[s.req - 1].c_str() : "", i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace exawatt::perf
