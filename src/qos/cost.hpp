#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "server/wire.hpp"
#include "telemetry/metric.hpp"
#include "util/sim_time.hpp"

namespace exawatt::store {
class Store;
}

namespace exawatt::qos {

/// Calibrated unit costs behind the admission price, all in estimated
/// execution microseconds. The defaults are honest order-of-magnitude
/// numbers; `from_bench_json` replaces the decode rate with the machine's
/// own measured one so prices track the hardware the server runs on.
struct CostProfile {
  /// Decoding + filtering one codec block (events_per_block events at
  /// the calibrated decode rate).
  double block_decode_us = 12.0;
  /// Pushing one decoded event through the streaming replay engine
  /// (pue_rollup / scenario legs) — watermarking, windowing, facility
  /// model; dominates block decode on replay-shaped methods.
  double replay_us_per_event = 0.15;
  /// Fixed per-request overhead: parse, dispatch, encode, queueing. The
  /// whole price of ping / server_stats / directory.
  double floor_us = 25.0;
  /// Events a full codec block carries (StoreOptions::block_events).
  std::size_t events_per_block = 4096;

  /// Calibrate `block_decode_us` from a BENCH_codec.json
  /// ("decode_into_eps": sustained decode events/s on this machine). A
  /// missing or malformed file keeps the built-in defaults — pricing
  /// degrades in accuracy, never in availability.
  [[nodiscard]] static CostProfile from_bench_json(
      const std::string& path, std::size_t events_per_block = 4096);
};

/// Deterministic pricing seam: (ids, range) -> how many codec blocks a
/// scan of exactly that shape will touch. The store-backed counter walks
/// the per-metric block directory; a coordinator front-end could price
/// from its cached shard directories. Null counter = structure-only
/// pricing (floors and multipliers, no block term).
using BlockCounter = std::function<std::uint64_t(
    std::span<const telemetry::MetricId>, util::TimeRange)>;

/// Prices a request before admission. Deliberately cheap relative to
/// what it prices: a directory walk (binary searches over in-memory
/// block indexes), never an I/O.
class CostModel {
 public:
  CostModel(CostProfile profile, BlockCounter blocks);

  /// Estimated execution cost of `request` in microseconds, >= floor.
  /// Method shapes:
  ///  - ping / server_stats / directory / subscribe: the floor (stats
  ///    answer from counters; a subscription's cost is open-ended and
  ///    priced by its admission, not its lifetime).
  ///  - window_sum / scan / cluster_sum (and its node_means shard leg):
  ///    floor + blocks * decode.
  ///  - pue_rollup: the above + replay of every decoded event.
  ///  - scenario / sweep: replay term additionally multiplied by
  ///    2 * variants (each leg replays baseline + intervention).
  [[nodiscard]] std::uint64_t price(
      const server::wire::Request& request) const;

  [[nodiscard]] const CostProfile& profile() const { return profile_; }

 private:
  CostProfile profile_;
  BlockCounter blocks_;
};

/// The canonical store-backed counter: Store::estimate_blocks. The store
/// must outlive the returned counter (same contract as the executor).
[[nodiscard]] BlockCounter store_block_counter(const store::Store& store);

}  // namespace exawatt::qos
