#pragma once

// Outside-in trace spans: the benchmark times each layer by wrapping the
// calls into its public functions (client calls, the QueryService executor
// seam, submit/execute, direct store/stream/scenario calls, wire codec,
// coordinator execute). Spans stay in memory and are written once, at the
// end of a traced run, in Chrome trace-event format.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "host.hpp"

namespace exawatt::perf {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t req = 0;  ///< request id, shared by one request's spans
  int pass = 0;           ///< which replay pass produced it
  int tid = 0;            ///< small per-thread number
  std::int64_t parent = -1;  ///< index into Tracer::spans(), -1 = root

  [[nodiscard]] double dur_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  /// Start a pass: later spans carry `pass`.
  void begin_pass(int pass);
  /// Single-flight passes: server-side spans belong to this request
  /// (0 = none in flight, so server-side spans are dropped).
  void set_current(std::uint64_t req) { current_.store(req); }
  /// Concurrent passes: spans recorded by an executor running with the
  /// cancel token `token` belong to `req`.
  void bind(const void* token, std::uint64_t req);

  void record(const std::string& name, double start_us, double end_us,
              std::uint64_t req);

  /// Wraps executors in a span named `name` attributed as above.
  [[nodiscard]] ExecutorWrap wrapper(const std::string& name);

  /// Give every span its parent by the fixed layer structure (client call
  /// > executor > shard executor, submit > queue wait/executor, ...), then
  /// verify it: every span ends at or after its start and lies inside its
  /// parent. Returns false with `*why` on the first violation.
  [[nodiscard]] bool link_and_check(std::string* why);

  /// Span time minus the part of it its children cover.
  [[nodiscard]] double self_us(std::size_t index) const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// `methods[req - 1]`, when present, labels request `req`'s spans.
  void write_chrome(const std::string& path,
                    const std::vector<std::string>& methods = {}) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::map<const void*, std::uint64_t> tokens_;
  std::atomic<std::uint64_t> current_{0};
  int pass_ = 0;
  /// Children per span, filled by link_and_check.
  std::vector<std::vector<std::size_t>> children_;
};

}  // namespace exawatt::perf
