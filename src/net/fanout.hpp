#pragma once

#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace exawatt::net {

/// One task's outcome from fan_out: either `value` or `error`.
template <typename R>
struct FanResult {
  bool ok = false;
  R value{};
  std::string error;
};

/// Run `fn(0..n-1)` concurrently, one dedicated thread per task, and
/// collect every outcome. Exceptions become per-task errors instead of
/// propagating — a scatter over N shards must report each shard's fate
/// independently, not die on the first broken link.
///
/// Dedicated threads, deliberately not the shared util::ThreadPool: the
/// tasks block on socket I/O (connect / read with timeouts), and parking
/// blocked work on the pool would starve the store fan-out it exists for
/// (a coordinator may share its process with shard stores, as the test
/// rigs and the benchmark's cluster host do).
/// N is the shard count (single digits), so thread spawn cost is noise
/// next to a network round trip.
template <typename Fn>
auto fan_out(std::size_t n, Fn&& fn)
    -> std::vector<FanResult<decltype(fn(std::size_t{0}))>> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<FanResult<R>> results(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([i, &fn, &results] {
      try {
        results[i].value = fn(i);
        results[i].ok = true;
      } catch (const std::exception& e) {
        results[i].error = e.what();
      } catch (...) {
        results[i].error = "unknown error";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

}  // namespace exawatt::net
