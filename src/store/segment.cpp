#include "store/segment.hpp"

#include <algorithm>

#include "telemetry/codec.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace exawatt::store {

namespace {

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Append the cached columns' samples with t in `range` — the block is
/// single-metric and time-sorted, so the window is two binary searches.
void append_columns(const telemetry::DecodeScratch& cols,
                    util::TimeRange range, std::vector<ts::Sample>& out) {
  const auto& times = cols.times;
  const auto lo = static_cast<std::size_t>(
      std::lower_bound(times.begin(), times.end(), range.begin) -
      times.begin());
  const auto hi = static_cast<std::size_t>(
      std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(lo),
                       times.end(), range.end) -
      times.begin());
  for (std::size_t i = lo; i < hi; ++i) {
    out.push_back({times[i], static_cast<double>(cols.values[i])});
  }
}

}  // namespace

// ---------------------------------------------------------- SegmentWriter

SegmentWriter::SegmentWriter(std::string path, std::int64_t day,
                             std::size_t block_events, util::Vfs* vfs)
    : path_(std::move(path)),
      day_(day),
      block_events_(block_events),
      vfs_(vfs != nullptr ? vfs : &util::Vfs::real()) {
  if (block_events_ == 0) {
    throw StoreError("segment writer: block_events must be positive");
  }
}

void SegmentWriter::add(std::vector<telemetry::MetricEvent> events) {
  if (buffer_.empty()) {
    buffer_ = std::move(events);
  } else {
    buffer_.insert(buffer_.end(), events.begin(), events.end());
  }
}

SegmentMeta SegmentWriter::seal() {
  if (sealed_) throw StoreError("segment writer: sealed twice");
  if (buffer_.empty()) throw StoreError("segment writer: nothing to seal");

  std::sort(buffer_.begin(), buffer_.end(),
            [](const telemetry::MetricEvent& a,
               const telemetry::MetricEvent& b) {
              return a.id < b.id || (a.id == b.id && a.t < b.t);
            });

  auto out = vfs_->create(path_);

  std::vector<std::uint8_t> header(kSegmentMagic, kSegmentMagic + 8);
  put_u32le(kFormatVersion, header);
  put_u32le(0, header);  // reserved
  out->write(header);

  SegmentMeta meta;
  meta.file = path_;
  meta.day = day_;
  meta.events = buffer_.size();
  meta.t_min = buffer_.front().t;
  meta.t_max = buffer_.front().t;

  std::vector<BlockMeta> blocks;
  std::uint64_t offset = kHeaderBytes;
  std::size_t i = 0;
  while (i < buffer_.size()) {
    // One metric run, chunked into time-ordered blocks.
    const telemetry::MetricId id = buffer_[i].id;
    std::size_t run_end = i;
    while (run_end < buffer_.size() && buffer_[run_end].id == id) ++run_end;
    for (std::size_t b = i; b < run_end; b += block_events_) {
      const std::size_t e = std::min(b + block_events_, run_end);
      // The buffer was just sorted: encode each chunk in place, no copy.
      const telemetry::EncodedBlock encoded = telemetry::encode_events_sorted(
          {buffer_.data() + b, e - b});
      BlockMeta bm;
      bm.id = id;
      bm.offset = offset;
      bm.size = static_cast<std::uint32_t>(encoded.bytes.size());
      bm.events = static_cast<std::uint32_t>(encoded.events);
      bm.t_min = buffer_[b].t;
      bm.t_max = buffer_[e - 1].t;
      bm.crc = util::crc32(encoded.bytes);
      out->write(encoded.bytes);
      offset += bm.size;
      meta.t_min = std::min(meta.t_min, bm.t_min);
      meta.t_max = std::max(meta.t_max, bm.t_max);
      blocks.push_back(bm);
    }
    i = run_end;
  }

  const std::vector<std::uint8_t> footer = encode_footer(blocks);
  out->write(footer);
  std::vector<std::uint8_t> trailer;
  put_u64le(footer.size(), trailer);
  put_u32le(util::crc32(footer), trailer);
  trailer.insert(trailer.end(), kFooterMagic, kFooterMagic + 8);
  out->write(trailer);
  out->close();

  // Only a fully-written file spends the writer; a throw above leaves the
  // buffer intact for a retry.
  sealed_ = true;
  meta.bytes = offset + footer.size() + kTrailerBytes;
  buffer_.clear();
  buffer_.shrink_to_fit();
  return meta;
}

// ---------------------------------------------------------- SegmentReader

SegmentReader::SegmentReader(std::string path, util::Vfs* vfs)
    : path_(std::move(path)),
      vfs_(vfs != nullptr ? vfs : &util::Vfs::real()) {
  // The warm tier is the read path: one open+mmap, then validation and
  // every block read slice the view. A refusal (a Vfs without mapping, an
  // injected map fault, mmap ENOMEM) falls back to buffered reads; the
  // tier is an optimization, never a reason to fail the open.
  try {
    mapping_ = vfs_->map(path_);
  } catch (const util::VfsError&) {
  }
  // File bytes [offset, offset + n): a slice of the view, or a buffered
  // read valid until the next call. Either way one parser runs below.
  std::vector<std::uint8_t> scratch;
  auto bytes_at = [&](std::uint64_t offset,
                      std::size_t n) -> std::span<const std::uint8_t> {
    if (mapping_ != nullptr) return mapping_->bytes().subspan(offset, n);
    scratch = vfs_->read_range(path_, offset, n);
    return scratch;
  };

  std::uint64_t footer_bytes = 0;
  try {
    file_bytes_ = mapping_ != nullptr ? mapping_->bytes().size()
                                      : vfs_->size(path_);
    if (file_bytes_ < kHeaderBytes + kTrailerBytes) {
      throw StoreError("segment: truncated below header+trailer: " + path_);
    }

    const auto header = bytes_at(0, kHeaderBytes);
    if (!std::equal(kSegmentMagic, kSegmentMagic + 8, header.begin())) {
      throw StoreError("segment: bad header magic: " + path_);
    }
    const std::uint32_t version = get_u32le(header.subspan(8, 4));
    if (version != kFormatVersion) {
      throw StoreError("segment: unsupported format version " +
                       std::to_string(version) + ": " + path_);
    }

    const auto trailer =
        bytes_at(file_bytes_ - kTrailerBytes, kTrailerBytes);
    if (!std::equal(kFooterMagic, kFooterMagic + 8, trailer.begin() + 12)) {
      throw StoreError(
          "segment: missing footer trailer (crashed mid-write?): " + path_);
    }
    const std::uint64_t footer_size = get_u64le(trailer.subspan(0, 8));
    const std::uint32_t footer_crc = get_u32le(trailer.subspan(8, 4));
    if (footer_size == 0 ||
        footer_size > file_bytes_ - kHeaderBytes - kTrailerBytes) {
      throw StoreError("segment: implausible footer size: " + path_);
    }
    footer_bytes = footer_size;

    const auto footer = bytes_at(file_bytes_ - kTrailerBytes - footer_size,
                                 static_cast<std::size_t>(footer_size));
    if (util::crc32(footer) != footer_crc) {
      throw StoreError("segment: footer CRC mismatch: " + path_);
    }
    blocks_ = parse_footer(footer);
  } catch (const util::VfsError& e) {
    throw StoreError(std::string("segment: ") + e.what());
  }

  const std::uint64_t data_end = file_bytes_ - kTrailerBytes - footer_bytes;
  util::TimeSec lo = 0, hi = 0;
  bool first = true;
  for (const auto& b : blocks_) {
    if (b.offset < kHeaderBytes || b.offset + b.size > data_end) {
      throw StoreError("segment: block outside data region: " + path_);
    }
    events_ += b.events;
    lo = first ? b.t_min : std::min(lo, b.t_min);
    hi = first ? b.t_max : std::max(hi, b.t_max);
    first = false;
  }
  bounds_ = first ? util::TimeRange{0, 0} : util::TimeRange{lo, hi + 1};
  cache_segment_id_ = fnv1a64(path_);

  // Per-metric lookup index: directory indices stably sorted by metric id
  // (sealed segments already group blocks by metric, so this is usually a
  // no-op permutation). Scans binary-search this instead of walking every
  // directory entry — thousands per segment at BMC metric counts.
  by_id_.resize(blocks_.size());
  for (std::uint32_t i = 0; i < by_id_.size(); ++i) by_id_[i] = i;
  std::stable_sort(by_id_.begin(), by_id_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return blocks_[a].id < blocks_[b].id;
                   });
}

std::span<const std::uint32_t> SegmentReader::blocks_of(
    telemetry::MetricId id) const {
  const auto lo = std::lower_bound(by_id_.begin(), by_id_.end(), id,
                                   [&](std::uint32_t i, telemetry::MetricId v) {
                                     return blocks_[i].id < v;
                                   });
  const auto hi = std::upper_bound(lo, by_id_.end(), id,
                                   [&](telemetry::MetricId v, std::uint32_t i) {
                                     return v < blocks_[i].id;
                                   });
  return {by_id_.data() + (lo - by_id_.begin()),
          static_cast<std::size_t>(hi - lo)};
}

std::uint64_t SegmentReader::count_blocks(telemetry::MetricId id,
                                          util::TimeRange range) const {
  std::uint64_t n = 0;
  for (const std::uint32_t i : blocks_of(id)) {
    if (block_overlaps(blocks_[i], range)) ++n;
  }
  return n;
}

std::span<const std::uint8_t> SegmentReader::block_span(
    const BlockMeta& block, std::vector<std::uint8_t>& scratch,
    QueryStats* stats) const {
  std::span<const std::uint8_t> bytes;
  if (mapping_ != nullptr) {
    // Warm tier: slice the mapped view. The constructor bounds-checked
    // every directory entry against the view itself, so the subspan
    // cannot run off it.
    bytes = mapping_->bytes().subspan(block.offset, block.size);
    if (stats != nullptr) ++stats->warm_blocks;
  } else {
    try {
      scratch = vfs_->read_range(path_, block.offset, block.size);
    } catch (const util::VfsError& e) {
      throw StoreError("segment: block read at offset " +
                       std::to_string(block.offset) + " failed (" + e.what() +
                       "): " + path_);
    }
    bytes = scratch;
    if (stats != nullptr) ++stats->cold_blocks;
  }
  if (util::crc32(bytes) != block.crc) {
    throw StoreError("segment: block CRC mismatch (metric " +
                     std::to_string(block.id) + ", offset " +
                     std::to_string(block.offset) + "): " + path_);
  }
  return bytes;
}

telemetry::EncodedBlock SegmentReader::read_block_bytes(
    const BlockMeta& block) const {
  telemetry::EncodedBlock encoded;
  encoded.events = block.events;
  std::vector<std::uint8_t> scratch;
  const auto bytes = block_span(block, scratch, nullptr);
  if (!scratch.empty()) {
    encoded.bytes = std::move(scratch);
  } else {
    encoded.bytes.assign(bytes.begin(), bytes.end());
  }
  return encoded;
}

std::vector<telemetry::MetricEvent> SegmentReader::read_block(
    const BlockMeta& block) const {
  const telemetry::EncodedBlock encoded = read_block_bytes(block);
  std::vector<telemetry::MetricEvent> events;
  try {
    events = telemetry::decode_events(encoded);
  } catch (const util::CheckError& e) {
    // CRC passed but the stream is malformed (colliding corruption):
    // surface it as store damage so degraded readers can skip the block.
    throw StoreError(std::string("segment: block decode failed (") +
                     e.what() + "): " + path_);
  }
  if (events.size() != block.events) {
    throw StoreError("segment: block decoded to wrong event count: " + path_);
  }
  return events;
}

BlockCache::Columns SegmentReader::cached_block(BlockCache& cache,
                                                std::size_t index,
                                                QueryStats* stats) const {
  const BlockMeta& block = blocks_[index];
  const BlockCache::Key key{cache_segment_id_,
                            static_cast<std::uint32_t>(index), block.crc};
  if (auto hit = cache.find(key)) {
    if (stats != nullptr) ++stats->cache_hits;
    return hit;
  }
  if (stats != nullptr) ++stats->cache_misses;
  std::vector<std::uint8_t> scratch;
  const telemetry::EncodedView encoded{block_span(block, scratch, stats),
                                       block.events};
  auto cols = std::make_shared<telemetry::DecodeScratch>();
  try {
    telemetry::decode_events_into(encoded, *cols);
  } catch (const util::CheckError& e) {
    throw StoreError(std::string("segment: block decode failed (") +
                     e.what() + "): " + path_);
  }
  if (cols->size() != block.events) {
    throw StoreError("segment: block decoded to wrong event count: " + path_);
  }
  cache.insert(key, cols);
  return cols;
}

bool SegmentReader::note_if_vanished(QueryStats& stats) const {
  // A mapped segment cannot vanish: the view outlives an unlink of the
  // path, which is exactly how compaction retires inputs under readers.
  if (mapping_ != nullptr) return false;
  if (vfs_->exists(path_)) return false;
  ++stats.lost_segments;
  return true;
}

void SegmentReader::scan_block_into(std::size_t index, util::TimeRange range,
                                    std::vector<ts::Sample>& out,
                                    QueryStats* stats,
                                    BlockCache* cache) const {
  const BlockMeta& block = blocks_[index];
  const std::size_t mark = out.size();
  try {
    if (cache != nullptr) {
      append_columns(*cached_block(*cache, index, stats), range, out);
      return;
    }
    std::vector<std::uint8_t> scratch;
    const telemetry::EncodedView encoded{block_span(block, scratch, stats),
                                         block.events};
    std::size_t decoded = 0;
    try {
      decoded = telemetry::decode_filter_into(encoded, block.id, range, out);
    } catch (const util::CheckError& e) {
      throw StoreError(std::string("segment: block decode failed (") +
                       e.what() + "): " + path_);
    }
    if (decoded != block.events) {
      throw StoreError("segment: block decoded to wrong event count: " +
                       path_);
    }
  } catch (const StoreError&) {
    // Drop whatever the damaged block managed to append: degraded results
    // hold only samples from blocks that validated end to end.
    out.resize(mark);
    if (stats == nullptr) throw;
    ++stats->lost_blocks;
  }
}

void SegmentReader::scan(telemetry::MetricId id, util::TimeRange range,
                         std::vector<ts::Sample>& out, QueryStats* stats,
                         BlockCache* cache) const {
  if (stats != nullptr && note_if_vanished(*stats)) return;
  for (const std::uint32_t i : blocks_of(id)) {
    if (!block_overlaps(blocks_[i], range)) continue;
    scan_block_into(i, range, out, stats, cache);
  }
}

void SegmentReader::scan_set(
    const std::unordered_set<telemetry::MetricId>& ids, util::TimeRange range,
    std::map<telemetry::MetricId, std::vector<ts::Sample>>& out,
    QueryStats* stats, BlockCache* cache) const {
  if (stats != nullptr && note_if_vanished(*stats)) return;
  for (const telemetry::MetricId id : ids) {
    for (const std::uint32_t i : blocks_of(id)) {
      if (!block_overlaps(blocks_[i], range)) continue;
      scan_block_into(i, range, out[id], stats, cache);
    }
  }
}

void SegmentReader::scan_sum(telemetry::MetricId id, util::TimeRange range,
                             util::TimeSec window, std::span<double> sums,
                             std::span<std::uint64_t> counts,
                             QueryStats* stats, BlockCache* cache) const {
  EXA_CHECK(window > 0, "scan_sum window must be positive");
  const auto n_windows =
      static_cast<std::size_t>((range.duration() + window - 1) / window);
  EXA_CHECK(sums.size() >= n_windows && counts.size() >= n_windows,
            "scan_sum grid spans too small for range/window");
  if (stats != nullptr && note_if_vanished(*stats)) return;

  // Per-block staging for the fused path: a block that throws mid-decode
  // is discarded whole, so degraded grids never carry partial sums.
  std::vector<double> block_sum;
  std::vector<std::uint64_t> block_cnt;

  for (const std::uint32_t i : blocks_of(id)) {
    const BlockMeta& b = blocks_[i];
    if (!block_overlaps(b, range)) continue;
    try {
      if (cache != nullptr) {
        const auto cols = cached_block(*cache, i, stats);
        const auto& times = cols->times;
        const auto lo = static_cast<std::size_t>(
            std::lower_bound(times.begin(), times.end(), range.begin) -
            times.begin());
        const auto hi = static_cast<std::size_t>(
            std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(lo),
                             times.end(), range.end) -
            times.begin());
        if (lo < hi) {
          // Times are ascending within a block, so step the window cursor
          // forward instead of dividing per event (one 64-bit div per
          // sample would dominate the cache-hit roll-up).
          auto w = static_cast<std::size_t>((times[lo] - range.begin) /
                                            window);
          std::int64_t w_end =
              range.begin + static_cast<std::int64_t>(w + 1) * window;
          for (std::size_t k = lo; k < hi; ++k) {
            while (times[k] >= w_end) {
              ++w;
              w_end += window;
            }
            sums[w] += static_cast<double>(cols->values[k]);
            ++counts[w];
          }
        }
        continue;
      }
      if (block_sum.empty()) {
        block_sum.assign(n_windows, 0.0);
        block_cnt.assign(n_windows, 0);
      }
      std::vector<std::uint8_t> scratch;
      const telemetry::EncodedView encoded{block_span(b, scratch, stats),
                                           b.events};
      std::size_t decoded = 0;
      try {
        decoded = telemetry::decode_sum_into(encoded, b.id, range, window,
                                             block_sum, block_cnt);
      } catch (const util::CheckError& e) {
        std::fill(block_sum.begin(), block_sum.end(), 0.0);
        std::fill(block_cnt.begin(), block_cnt.end(), std::uint64_t{0});
        throw StoreError(std::string("segment: block decode failed (") +
                         e.what() + "): " + path_);
      }
      if (decoded != b.events) {
        std::fill(block_sum.begin(), block_sum.end(), 0.0);
        std::fill(block_cnt.begin(), block_cnt.end(), std::uint64_t{0});
        throw StoreError("segment: block decoded to wrong event count: " +
                         path_);
      }
      for (std::size_t w = 0; w < n_windows; ++w) {
        sums[w] += block_sum[w];
        counts[w] += block_cnt[w];
        block_sum[w] = 0.0;
        block_cnt[w] = 0;
      }
    } catch (const StoreError&) {
      if (stats == nullptr) throw;
      ++stats->lost_blocks;
    }
  }
}

bool SegmentReader::scan_pieces(
    telemetry::MetricId id, util::TimeRange range,
    const std::function<bool(std::span<const std::uint8_t>, std::uint32_t)>&
        on_raw,
    std::vector<ts::Sample>& loose, QueryStats* stats,
    std::vector<std::uint8_t>& scratch) const {
  if (stats != nullptr && note_if_vanished(*stats)) return true;
  for (const std::uint32_t i : blocks_of(id)) {
    const BlockMeta& b = blocks_[i];
    if (!block_overlaps(b, range)) continue;
    // A block entirely inside the half-open range keeps every event, so
    // its encoded bytes can ship as-is; boundary blocks must decode and
    // filter. Damaged raw candidates fall back through the loose path's
    // degradation contract rather than duplicating it here.
    const bool whole = b.t_min >= range.begin && b.t_max < range.end;
    if (whole) {
      bool ok = true;
      std::span<const std::uint8_t> bytes;
      try {
        bytes = block_span(b, scratch, stats);
      } catch (const StoreError&) {
        if (stats == nullptr) throw;
        ++stats->lost_blocks;
        ok = false;
      }
      if (ok) {
        if (!on_raw(bytes, b.events)) return false;
        continue;
      }
      continue;
    }
    scan_block_into(i, range, loose, stats, nullptr);
  }
  return true;
}

}  // namespace exawatt::store
