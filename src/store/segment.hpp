#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "store/block_cache.hpp"
#include "store/format.hpp"
#include "ts/series.hpp"
#include "util/vfs.hpp"

namespace exawatt::store {

/// Builds one sealed segment file. Events are buffered in memory, then
/// `seal()` sorts them by (metric, time), chunks each metric run into
/// blocks of at most `block_events`, encodes every block with the
/// telemetry codec (delta + zigzag + varint + RLE) and writes
/// header / blocks / footer in one pass. Everything before a completed
/// seal is the "unsealed tail" the crash-safety contract allows losing.
///
/// All file I/O goes through the Vfs seam (`vfs` defaults to the real
/// filesystem). A failed seal throws util::VfsError and leaves the
/// writer reusable — the buffer is intact, so the store's retry policy
/// can simply call `seal()` again after a transient fault.
class SegmentWriter {
 public:
  SegmentWriter(std::string path, std::int64_t day,
                std::size_t block_events = 4096, util::Vfs* vfs = nullptr);

  void add(std::vector<telemetry::MetricEvent> events);
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

  /// Write the file; the writer is spent after a *successful* seal.
  /// Throws StoreError on misuse (empty, sealed twice) and util::VfsError
  /// when the filesystem write fails. `meta.file` is the full path passed
  /// in; callers relativize it for the manifest.
  [[nodiscard]] SegmentMeta seal();

 private:
  std::string path_;
  std::int64_t day_;
  std::size_t block_events_;
  util::Vfs* vfs_;
  std::vector<telemetry::MetricEvent> buffer_;
  bool sealed_ = false;
};

/// Read side of one sealed segment. The constructor maps the whole file
/// through `Vfs::map()` (the warm tier) and validates header, trailer,
/// footer CRC and directory sanity from the mapped bytes, throwing
/// StoreError on any damage — the recovery check that drops crashed
/// tails. Block reads are zero-copy slices of the view, verified against
/// their directory CRC, and survive a concurrent unlink (the compactor
/// retires inputs under live queries). Only when `map()` returns nullptr
/// or throws does the reader fall back to buffered `read_range` calls,
/// running the same validation on them. All scan methods are const and
/// stateless over the Vfs, so one reader can serve parallel queries.
class SegmentReader {
 public:
  explicit SegmentReader(std::string path, util::Vfs* vfs = nullptr);

  [[nodiscard]] const std::vector<BlockMeta>& blocks() const {
    return blocks_;
  }
  /// True when block reads are served from an mmap'd view (warm tier).
  [[nodiscard]] bool mapped() const { return mapping_ != nullptr; }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }
  /// Half-open [min event time, max event time + 1).
  [[nodiscard]] util::TimeRange bounds() const { return bounds_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Decode one block, verifying its CRC; throws StoreError on damage.
  [[nodiscard]] std::vector<telemetry::MetricEvent> read_block(
      const BlockMeta& block) const;

  /// Blocks of `id` whose [t_min, t_max] intersects `range` — exactly
  /// the blocks `scan` of the same (id, range) would read. Pure
  /// directory arithmetic (no I/O): the deterministic unit the QoS cost
  /// model prices admission with.
  [[nodiscard]] std::uint64_t count_blocks(telemetry::MetricId id,
                                           util::TimeRange range) const;

  /// Append samples of `id` with t in `range` to `out`, in time order
  /// (blocks of one metric are laid out time-sorted). Only blocks whose
  /// [t_min, t_max] intersects `range` are read — the predicate pushdown.
  /// With `stats == nullptr` any damage throws StoreError (the strict
  /// contract); with stats, damaged blocks are skipped and counted — the
  /// degraded read path. With a `cache`, blocks are served from / decoded
  /// into it (a hit touches no disk); without one, the fused
  /// decode-filter kernel appends straight from the compressed bytes.
  void scan(telemetry::MetricId id, util::TimeRange range,
            std::vector<ts::Sample>& out, QueryStats* stats = nullptr,
            BlockCache* cache = nullptr) const;

  /// Multi-metric variant for fan-out queries: one pass over the block
  /// directory, appending to `out[id]` for every id in `ids`.
  void scan_set(const std::unordered_set<telemetry::MetricId>& ids,
                util::TimeRange range,
                std::map<telemetry::MetricId, std::vector<ts::Sample>>& out,
                QueryStats* stats = nullptr, BlockCache* cache = nullptr) const;

  /// Fused decode-aggregate scan: accumulate `id`'s events in `range`
  /// onto the window grid (sums[w] += value, ++counts[w] for
  /// w = (t - range.begin) / window) without materializing events —
  /// cache hits accumulate from decoded columns, misses run the codec's
  /// decode_sum_into on the compressed bytes. Same degradation contract
  /// as scan; a block that fails mid-accumulate is rolled back before it
  /// is counted lost, so degraded grids never hold partial contributions.
  void scan_sum(telemetry::MetricId id, util::TimeRange range,
                util::TimeSec window, std::span<double> sums,
                std::span<std::uint64_t> counts, QueryStats* stats = nullptr,
                BlockCache* cache = nullptr) const;

  /// Zero-copy piece scan for the wire path: `id`'s overlapping blocks
  /// in time order, each emitted either *raw* — a CRC-verified span of
  /// still-encoded bytes plus its event count, handed to `on_raw` — or
  /// *loose* — decoded samples appended to `loose`. A block goes raw
  /// only when it lies entirely inside `range` (every event survives
  /// the filter, so re-encoding is pure waste); boundary blocks decode
  /// through the normal filter into `loose`. `scratch` backs the raw
  /// span for cold (unmapped) reads — valid until the next emission.
  /// `on_raw` returning false stops the scan (returns false). Damage
  /// follows the scan() contract: strict throw without `stats`, skip
  /// and count with.
  bool scan_pieces(
      telemetry::MetricId id, util::TimeRange range,
      const std::function<bool(std::span<const std::uint8_t>, std::uint32_t)>&
          on_raw,
      std::vector<ts::Sample>& loose, QueryStats* stats,
      std::vector<std::uint8_t>& scratch) const;

 private:
  [[nodiscard]] bool block_overlaps(const BlockMeta& b,
                                    util::TimeRange range) const {
    return b.t_min < range.end && range.begin <= b.t_max;
  }
  /// True when the whole segment file is gone — one lost segment, not one
  /// lost block per directory entry.
  [[nodiscard]] bool note_if_vanished(QueryStats& stats) const;

  /// Raw encoded bytes of one block, CRC-verified (no decode).
  [[nodiscard]] telemetry::EncodedBlock read_block_bytes(
      const BlockMeta& block) const;

  /// Tier-dispatching raw block access: a zero-copy slice of the mapped
  /// view (warm) or a buffered read into `scratch` (cold), CRC-verified
  /// either way, with the matching QueryStats tier counter bumped.
  /// Throws StoreError on damage. The span is valid while `scratch` and
  /// the mapping are.
  [[nodiscard]] std::span<const std::uint8_t> block_span(
      const BlockMeta& block, std::vector<std::uint8_t>& scratch,
      QueryStats* stats) const;

  /// Scan one block (by directory index) into `out`, honoring the
  /// degradation contract: on damage the partial append is rolled back,
  /// then rethrown (strict) or counted in `stats` (degraded).
  void scan_block_into(std::size_t index, util::TimeRange range,
                       std::vector<ts::Sample>& out, QueryStats* stats,
                       BlockCache* cache) const;

  /// Block `index` as decoded columns via the cache: hit returns the
  /// resident entry, miss reads + decodes + inserts. Throws StoreError on
  /// any damage (I/O, CRC, malformed stream, count mismatch).
  [[nodiscard]] BlockCache::Columns cached_block(BlockCache& cache,
                                                 std::size_t index,
                                                 QueryStats* stats) const;

  /// Directory indices of `id`'s blocks in time order — binary search
  /// over the id-sorted index instead of a linear pass over the whole
  /// directory (thousands of entries per segment at BMC metric counts).
  [[nodiscard]] std::span<const std::uint32_t> blocks_of(
      telemetry::MetricId id) const;

  std::string path_;
  util::Vfs* vfs_;
  std::shared_ptr<util::VfsMapping> mapping_;  ///< non-null = warm tier
  std::vector<BlockMeta> blocks_;
  /// Directory indices sorted by (metric id, directory order) — the
  /// per-metric lookup index behind `blocks_of`.
  std::vector<std::uint32_t> by_id_;
  std::uint64_t events_ = 0;
  std::uint64_t file_bytes_ = 0;
  util::TimeRange bounds_{0, 0};
  std::uint64_t cache_segment_id_ = 0;  ///< FNV-1a of path_ (cache key)
};

}  // namespace exawatt::store
