#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "store/compactor.hpp"
#include "store/segment.hpp"
#include "ts/series.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace exawatt::store {

struct StoreOptions {
  /// Seal a day-partition buffer into a segment once it holds this many
  /// events (the paper's analogue: one parquet file per day-minute).
  std::size_t segment_events = 1 << 18;
  /// Max events per encoded block inside a segment; smaller blocks give
  /// finer predicate pushdown, larger blocks compress better.
  std::size_t block_events = 4096;
  /// Filesystem seam: nullptr → the real filesystem. Tests install a
  /// faultfs::FaultVfs here to script outages while the store runs. Must
  /// outlive the Store.
  util::Vfs* vfs = nullptr;
  /// Clock the retry policy sleeps on: nullptr → the steady wall clock.
  /// Tests install a util::ManualClock so no test ever really sleeps.
  util::Clock* clock = nullptr;
  /// Transient write-error policy for seal + manifest replace: exponential
  /// backoff with cap and jitter, then the error surfaces as StoreError.
  util::BackoffPolicy retry = {};
  /// Substream seed for the backoff jitter (deterministic per store).
  std::uint64_t retry_seed = 0x5ea1b0ffULL;
  /// Byte budget of the decoded-block cache shared by every query on this
  /// store (0 disables caching entirely). Entries are decoded columns
  /// keyed by (segment, block, CRC), so repeated scans of the same
  /// windows skip disk + CRC + varint decode. Sized in decoded bytes:
  /// the default holds roughly four million events.
  std::size_t cache_bytes = std::size_t{64} << 20;
};

/// What `Store::open` found and fixed. A crash mid-write loses at most
/// the unsealed tail: segments with a missing/invalid footer are dropped
/// (renamed to `<file>.bad`), sealed-but-unlisted segments are adopted,
/// and a corrupt manifest is rebuilt from the surviving segment files.
struct RecoveryReport {
  std::size_t segments = 0;          ///< live after recovery
  std::size_t adopted_orphans = 0;   ///< sealed but not in the manifest
  std::size_t dropped_corrupt = 0;   ///< truncated / CRC-failed, set aside
  std::size_t dropped_missing = 0;   ///< manifest entries with no file
  bool manifest_rebuilt = false;
  /// Compaction journals replayed at open: `flipped` journals rolled
  /// forward (output adopted, inputs retired), `copying` ones rolled
  /// back (inputs stay authoritative). Not part of `clean()` — a
  /// replayed compaction loses nothing.
  std::size_t compactions_finished = 0;
  std::size_t compactions_rolled_back = 0;

  [[nodiscard]] bool clean() const {
    return adopted_orphans == 0 && dropped_corrupt == 0 &&
           dropped_missing == 0 && !manifest_rebuilt;
  }
};

/// One metric's time-sorted samples from a fan-out query.
struct MetricRun {
  telemetry::MetricId id = 0;
  std::vector<ts::Sample> samples;
};

/// Consumer of `Store::scan_encoded`: per requested id, `begin_run`,
/// then any mix of still-encoded whole blocks (`block` — CRC-verified
/// codec bytes plus their event count, valid only for the duration of
/// the call) and one time-sorted batch of loose samples (`samples` —
/// range-boundary block slices plus the unsealed tail), then `end_run`.
/// Any callback returning false stops the scan. The union of decoded
/// blocks and loose samples is exactly the sample multiset `query`
/// would return — re-sorting with `sample_less` reproduces its vector.
struct RawScanSink {
  std::function<bool(telemetry::MetricId)> begin_run;
  std::function<bool(std::span<const std::uint8_t>, std::uint32_t)> block;
  std::function<bool(std::span<const ts::Sample>)> samples;
  std::function<bool()> end_run;
};

/// The sort order of every query result: by time, value-tiebroken so the
/// sorted sequence is a pure function of the sample multiset — merging
/// any regrouping of the same samples (segments, threads, or cluster
/// shards) and re-sorting reproduces the identical vector.
[[nodiscard]] inline bool sample_less(const ts::Sample& a,
                                      const ts::Sample& b) {
  return a.t < b.t || (a.t == b.t && a.value < b.value);
}

/// Event-weighted window grid from `Store::window_sum`: for window w
/// (covering [start + w*window, start + (w+1)*window)), `sum[w]` is the
/// exact sum of every stored value in it and `count[w]` the event count.
/// Values are int32 and sums stay far below 2^53, so the doubles are
/// exact integers — independent of block, segment or thread grouping.
struct WindowSum {
  util::TimeSec start = 0;
  util::TimeSec window = 0;
  std::vector<double> sum;
  std::vector<std::uint64_t> count;

  [[nodiscard]] std::size_t size() const { return sum.size(); }
  /// Event-weighted mean of window w; 0 when the window is empty.
  [[nodiscard]] double mean(std::size_t w) const {
    return count[w] == 0 ? 0.0
                         : sum[w] / static_cast<double>(count[w]);
  }
};

/// The durable counterpart of the in-memory `telemetry::Archive`: sealed
/// columnar segment files per day-partition under one root directory,
/// listed by an atomically-replaced manifest, queried with per-block
/// predicate pushdown (metric-id set × time range against the footer
/// directories). Appends buffer in memory per day and seal at a size
/// threshold; `flush()` seals everything buffered. Identical `append`
/// streams must produce identical `query` results to the Archive — the
/// shared contract the property tests pin down.
class Store {
 public:
  /// Open (creating the directory if needed) and run recovery.
  [[nodiscard]] static Store open(const std::string& root,
                                  StoreOptions options = {});

  Store(Store&&) = default;
  Store& operator=(Store&&) = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  ~Store();

  /// Append a batch; it is buffered into the day-partition of its first
  /// event (the Archive's rule) and sealed once the buffer is large.
  void append(std::vector<telemetry::MetricEvent> events);

  /// Seal every buffered day-partition and persist the manifest.
  void flush();

  /// All samples of one metric in [range.begin, range.end), time-sorted —
  /// sealed segments plus the unsealed in-memory tail. Degrades instead
  /// of throwing when a segment is damaged or vanishes mid-query: the
  /// result holds every sample that is still readable (never a wrong
  /// value), and `stats` (when non-null) reports what was lost — callers
  /// that must not act on partial data check `stats->degraded()`.
  [[nodiscard]] std::vector<ts::Sample> query(
      telemetry::MetricId id, util::TimeRange range,
      QueryStats* stats = nullptr) const;

  /// Fan-out query: segment scans run across `pool` (nullptr selects the
  /// process-global pool), results merge into one time-sorted run per
  /// requested metric, in the order of `ids` (a duplicate id receives
  /// the full run again, as per-id `query` calls would). Same degradation
  /// contract as `query`; `stats` aggregates losses across all scanned
  /// segments.
  [[nodiscard]] std::vector<MetricRun> query_many(
      std::span<const telemetry::MetricId> ids, util::TimeRange range,
      util::ThreadPool* pool = nullptr, QueryStats* stats = nullptr) const;

  /// Streaming variant of `query_many` for chunked serving: runs are
  /// produced one requested id at a time and handed to `sink` instead of
  /// being materialized together, so peak memory is one run, not the
  /// result set. The sink returning false stops the scan (backpressure
  /// cancel); returns false iff stopped early. Results and loss
  /// accounting are identical to `query_many` over the same ids —
  /// duplicates get the full run again, a vanished segment charges
  /// `lost_segments` once per segment (not once per id), and damaged
  /// blocks charge once since each block belongs to one metric.
  bool scan(std::span<const telemetry::MetricId> ids, util::TimeRange range,
            const std::function<bool(MetricRun&&)>& sink,
            QueryStats* stats = nullptr) const;

  /// Zero-copy streaming scan: blocks that lie entirely inside `range`
  /// are handed to the sink still encoded (sliced straight from the
  /// mapped segment on the warm tier), so the serving path never
  /// re-encodes them; only range-boundary blocks and the unsealed tail
  /// decode into loose samples. Loss accounting matches `scan` —
  /// except that duplicate requested ids re-emit by re-scanning (raw
  /// spans cannot be cached) without re-charging their losses. Returns
  /// false iff a sink callback stopped the scan.
  bool scan_encoded(std::span<const telemetry::MetricId> ids,
                    util::TimeRange range, const RawScanSink& sink,
                    QueryStats* stats = nullptr) const;

  /// One synchronous compaction pass over the sealed population: drops
  /// aged-out segments whole, merges each day's small segments into one
  /// re-sorted retention-filtered segment through a journaled
  /// `.incoming` + flip protocol (crash anywhere loses no committed
  /// event — the `ctest -L lifecycle` crash sweep visits every write
  /// point). Passes are mutually exclusive with each other but run
  /// concurrently with queries: in-flight readers keep serving from
  /// retired segments until `reap` finds them unreferenced. Safe to call
  /// from a background pool thread.
  CompactionReport compact(const CompactionOptions& opts);

  /// Delete retired segment files whose last reader is gone (and the
  /// compaction journals that guarded them). Called automatically by
  /// `compact`, `flush` and the destructor; exposed so tests and tools
  /// can force the sweep. Returns files actually deleted.
  std::size_t reap();
  /// Retired segments still pinned by in-flight readers (or pending
  /// deletion): the compactor's graveyard depth.
  [[nodiscard]] std::size_t graveyard_size() const;

  /// Fused decode-aggregate query: the exact per-window sum and event
  /// count of `id` over `range`, computed without materializing samples —
  /// segment scans run the codec's decode-sum kernel (or accumulate from
  /// cached columns) and fan out across `pool`. Same degradation contract
  /// as `query`. Sums are exact (integer-valued doubles), so the result
  /// is independent of segment grouping and thread schedule.
  [[nodiscard]] WindowSum window_sum(telemetry::MetricId id,
                                     util::TimeRange range,
                                     util::TimeSec window,
                                     util::ThreadPool* pool = nullptr,
                                     QueryStats* stats = nullptr) const;

  /// Distinct metric ids present (sealed + buffered), ascending.
  [[nodiscard]] std::vector<telemetry::MetricId> metrics() const;
  /// The sealed-segment directory (manifest view): one SegmentMeta per
  /// live segment, in manifest order. This is what a cluster coordinator
  /// plans scatter queries against — and what it charges to
  /// `lost_segments` when this store's shard stops answering.
  [[nodiscard]] std::vector<SegmentMeta> directory() const;
  /// Half-open hull of every stored event time; {0,0} when empty.
  [[nodiscard]] util::TimeRange bounds() const;

  /// Sealed codec blocks a query of exactly (ids, range) will touch:
  /// per distinct id, the blocks whose [t_min, t_max] intersects the
  /// range, summed over the sealed population. Pure directory
  /// arithmetic (binary searches over in-memory block indexes, no I/O)
  /// — the QoS cost model prices admission with it, and a cached read
  /// of the same shape reports exactly this many cache_hits +
  /// cache_misses (duplicates collapse, as `query_many` collapses
  /// them). The unsealed tail decodes nothing and counts nothing.
  [[nodiscard]] std::uint64_t estimate_blocks(
      std::span<const telemetry::MetricId> ids, util::TimeRange range) const;

  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] const RecoveryReport& recovery() const { return recovery_; }
  [[nodiscard]] std::size_t sealed_segments() const;
  [[nodiscard]] std::size_t day_partitions() const;
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::uint64_t buffered_events() const {
    return buffered_events_;
  }
  /// On-disk footprint of the sealed segment files (incl. framing).
  [[nodiscard]] std::uint64_t stored_bytes() const;
  /// Raw event bytes / stored bytes over the sealed population.
  [[nodiscard]] double compression_ratio() const;
  /// The decoded-block cache, or nullptr when `cache_bytes == 0`.
  [[nodiscard]] const BlockCache* block_cache() const {
    return cache_.get();
  }

 private:
  Store(std::string root, StoreOptions options);

  struct LiveSegment {
    SegmentMeta meta;
    SegmentReader reader;
  };
  /// A retired segment awaiting deletion: the shared_ptr pins the file's
  /// reader for any query snapshot still holding it; `journal` (when
  /// non-empty) is the compaction journal that must outlive this file —
  /// removed only once every victim it names is gone, so a crash during
  /// the sweep always replays to a single copy of every event.
  struct Grave {
    std::shared_ptr<const LiveSegment> seg;
    std::string path;
    std::string journal;
  };
  /// Immutable view of the sealed population, shared with in-flight
  /// queries: the vector is copied under the lock, the segments are
  /// refcounted, so the compactor swapping `segments_` never invalidates
  /// a running scan.
  using SegmentSnapshot = std::vector<std::shared_ptr<const LiveSegment>>;

  void recover();
  /// Replay `<output>.compact` journals left by a crashed compaction —
  /// runs before the manifest loads so a rolled-forward output is never
  /// double-counted against its still-listed inputs. Defined in
  /// compactor.cpp next to the forward path it mirrors.
  void recover_compactions();
  [[nodiscard]] SegmentSnapshot snapshot() const;
  /// Callers of the *_locked helpers hold *mu_.
  void adopt_locked(SegmentMeta meta, SegmentReader reader);
  void save_manifest_locked() const;
  std::size_t reap_locked();
  void seal_day(std::int64_t day);
  [[nodiscard]] std::string next_segment_name(std::int64_t day);

  std::string root_;
  StoreOptions options_;
  util::Vfs* vfs_;
  util::Clock* clock_;
  /// unique_ptr keeps Store movable (BlockCache holds mutexes); the
  /// cache is internally synchronized, so const query paths share it.
  std::unique_ptr<BlockCache> cache_;
  mutable util::Rng retry_rng_;
  RecoveryReport recovery_;
  /// Guards segments_, graveyard_, the sealed counters, next_seq_ and
  /// manifest writes (mutate + save happen under one continuous hold so
  /// concurrent savers cannot publish each other's entries away).
  /// Behind unique_ptr to keep Store movable.
  std::unique_ptr<std::mutex> mu_;
  /// Serializes whole compaction passes (each is long-running and owns
  /// the plan it computed); never held together with queries.
  std::unique_ptr<std::mutex> compact_mu_;
  SegmentSnapshot segments_;
  std::vector<Grave> graveyard_;
  std::map<std::int64_t, std::vector<telemetry::MetricEvent>> mem_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sealed_events_ = 0;
  std::uint64_t buffered_events_ = 0;
  std::uint64_t stored_bytes_ = 0;
};

/// The serial reduction step of every cluster_sum flavor: per-node
/// coarsened stats accumulate onto the window grid in the order given
/// (floating addition is order-sensitive, so the node order IS the
/// contract). Shared by `store::cluster_sum` and the cluster
/// coordinator's scatter-gather path — bit-parity between the sharded
/// and unsharded roll-up holds because both run exactly this code on
/// identical per-node stats.
[[nodiscard]] ts::Series reduce_cluster_sum(
    std::span<const ts::StatSeries> per_node, util::TimeRange range,
    util::TimeSec window, std::vector<double>* counts = nullptr);

/// The per-node stage of every cluster_sum flavor: each node's `channel`
/// read from the store and coarsened onto the window grid, one series per
/// node in `nodes` order. Per-node scans fan out across `pool`; `stats`
/// (optional) gathers their degradation accounting.
[[nodiscard]] std::vector<ts::StatSeries> coarsen_nodes(
    const Store& store, const std::vector<machine::NodeId>& nodes,
    int channel, util::TimeRange range, util::TimeSec window,
    util::ThreadPool* pool = nullptr, QueryStats* stats = nullptr);

/// A node's coarsened series in the shape a shard ships it to the cluster
/// coordinator: one (window start, mean) sample per window holding data.
/// That is everything `reduce_cluster_sum` reads of a node, so a
/// reduction over these (re-gridded by `cluster::merge_node_means`)
/// bit-matches one over the full series.
[[nodiscard]] MetricRun window_means(telemetry::MetricId id,
                                     const ts::StatSeries& stat);

/// Cluster-level roll-up of one channel across nodes, read from the store
/// — the disk-backed twin of `telemetry::cluster_sum` (bit-identical on
/// identical event streams). Per-node scans fan out across `pool`.
/// Inherits the degraded-query contract: a lost segment shrinks the
/// contributing-node counts instead of aborting the roll-up, and `stats`
/// reports the damage.
[[nodiscard]] ts::Series cluster_sum(
    const Store& store, const std::vector<machine::NodeId>& nodes,
    int channel, util::TimeRange range, util::TimeSec window = 10,
    std::vector<double>* counts = nullptr, util::ThreadPool* pool = nullptr,
    QueryStats* stats = nullptr);

}  // namespace exawatt::store
