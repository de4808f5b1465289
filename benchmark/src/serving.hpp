#pragma once

// The request workloads' machinery: writing the stores, the client threads
// that load the topology over them, the parity gate, and the traced replay
// passes that attribute a request's time to layers.

#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "store/store.hpp"

namespace exawatt::perf {

/// Run `body(0..n-1)` on n threads and join them all; the first exception
/// a body threw is rethrown here instead of ending the process.
template <typename Body>
void run_threads(std::size_t n, const Body& body) {
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Append `feed` batch by batch into `shards` fresh stores under `root`
/// (hash-routed by cluster::ShardMap::uniform when shards > 1), flush,
/// close. Returns the store directories.
std::vector<std::string> write_stores(const Feed& feed, const std::string& root,
                                      std::size_t shards);

/// One timed request as a client saw it.
struct Sample {
  Op op = Op::kPing;
  bool ok = false;
  double ms = 0.0;
  std::uint64_t volume = 0;  ///< wire::response_event_volume
};

/// How the client threads load the deployment. Closed loop: each client
/// sends its list in order (cycling) until `seconds` have passed. Open
/// loop: request i of client c is due at `due_us[c][i]` after the start.
struct Traffic {
  std::vector<std::vector<Req>> lists;
  std::vector<std::vector<double>> due_us;  ///< empty = closed loop
  /// Each client's first request, and every request whose list index is
  /// this modulo 50, keeps its response for the parity gate.
  std::size_t check_offset = 0;
};

struct PhaseResult {
  double elapsed_s = 0.0;
  std::vector<Sample> samples;
  std::vector<double> late_ms;  ///< open loop: sender lateness
  /// (request, response) pairs kept for the parity gate.
  std::vector<std::pair<Req, wire::Response>> checks;
  std::uint64_t degraded = 0;   ///< OK responses reporting lost data
};

PhaseResult run_phase(std::uint16_t port, const Traffic& traffic,
                      double seconds);

/// One client sends `reqs` in order; throws on any non-OK answer.
void warm_up(std::uint16_t port, const std::vector<Req>& reqs);

/// Loopback answers must equal `reference.execute` on the same request,
/// apart from cache counters; a block-form scan must decode to the classic
/// scan's runs. Returns the number of mismatches, printing the first.
std::size_t parity_mismatches(
    const std::vector<std::pair<Req, wire::Response>>& checks,
    const server::QueryService& reference);

/// The traced run's replay passes over `reqs` (a prefix of the timed
/// requests). `untraced` is the running topology over `stores`; a traced
/// one is started beside it. `direct` is the single store the direct-call
/// pass reads (the unsharded data for a cluster). Fills the span-derived
/// per-layer metrics and writes the Chrome trace to `trace_path`. Returns
/// false (with `*why`) when the spans do not nest or a direct call lost
/// data.
bool trace_passes(const std::vector<store::Store>& stores, Topology& untraced,
                  const store::Store& direct, const std::vector<Req>& reqs,
                  std::size_t clients, const std::string& trace_path,
                  Metrics* layers, std::string* why);

}  // namespace exawatt::perf
