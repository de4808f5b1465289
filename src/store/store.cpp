#include "store/store.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "store/manifest.hpp"
#include "util/parallel.hpp"

namespace exawatt::store {

namespace {

/// Parse the sequence number out of "seg%08llu_day%05lld.seg"-style names.
bool parse_seq(const std::string& name, std::uint64_t& seq) {
  return std::sscanf(name.c_str(), "seg%" SCNu64, &seq) == 1;
}

}  // namespace

Store::Store(std::string root, StoreOptions options)
    : root_(std::move(root)),
      options_(options),
      vfs_(options.vfs != nullptr ? options.vfs : &util::Vfs::real()),
      clock_(options.clock != nullptr ? options.clock
                                      : &util::Clock::steady()),
      retry_rng_(options.retry_seed),
      mu_(std::make_unique<std::mutex>()),
      compact_mu_(std::make_unique<std::mutex>()) {
  if (options_.segment_events == 0 || options_.block_events == 0) {
    throw StoreError("store: segment_events/block_events must be positive");
  }
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<BlockCache>(options_.cache_bytes);
  }
}

Store Store::open(const std::string& root, StoreOptions options) {
  Store s(root, options);
  s.recover();
  return s;
}

Store::~Store() {
  if (mu_ == nullptr) return;  // moved-from shell
  try {
    flush();
  } catch (...) {
    // Destructor flush is best-effort; data not sealed here is exactly the
    // "unsealed tail" the crash-safety contract already allows losing.
  }
  try {
    reap();
  } catch (...) {
    // Likewise: an undeleted retired file is re-reaped next open.
  }
}

Store::SegmentSnapshot Store::snapshot() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return segments_;
}

void Store::adopt_locked(SegmentMeta meta, SegmentReader reader) {
  sealed_events_ += meta.events;
  stored_bytes_ += meta.bytes;
  segments_.push_back(std::make_shared<const LiveSegment>(
      LiveSegment{std::move(meta), std::move(reader)}));
}

void Store::recover() {
  try {
    vfs_->mkdirs(root_);
  } catch (const util::VfsError& e) {
    throw StoreError("store: cannot create root " + root_ + ": " + e.what());
  }

  // Crashed compactions replay first: a rolled-forward output must retire
  // its inputs before the manifest loop and orphan sweep run, or the same
  // events would be adopted twice (inputs from the manifest, output as an
  // orphan).
  recover_compactions();

  // Best-effort quarantine of a damaged segment; never escalates — a
  // set-aside that fails just leaves the corrupt file for the next sweep.
  auto set_aside = [&](const std::string& path) {
    try {
      vfs_->rename(path, path + ".bad");
    } catch (const util::VfsError&) {
    }
  };

  Manifest manifest;
  bool have_manifest = false;
  bool changed = false;
  try {
    have_manifest = Manifest::load(root_, manifest, vfs_);
  } catch (const StoreError&) {
    // Torn or edited manifest: rebuild it from the segment files — every
    // sealed segment self-validates, so nothing sealed is lost.
    recovery_.manifest_rebuilt = true;
    changed = true;
  }

  std::lock_guard<std::mutex> lock(*mu_);
  std::set<std::string> listed;
  for (auto& meta : manifest.segments) {
    const std::string path = root_ + "/" + meta.file;
    listed.insert(meta.file);
    if (!vfs_->exists(path)) {
      ++recovery_.dropped_missing;
      changed = true;
      continue;
    }
    try {
      SegmentReader reader(path, vfs_);
      if (reader.events() != meta.events ||
          reader.file_bytes() != meta.bytes) {
        throw StoreError("segment disagrees with manifest: " + path);
      }
      adopt_locked(std::move(meta), std::move(reader));
    } catch (const StoreError&) {
      ++recovery_.dropped_corrupt;
      changed = true;
      set_aside(path);
    }
  }

  // Sweep for segments the manifest does not know: a crash between seal
  // and manifest rename leaves a valid orphan (adopt it); a crash mid-seal
  // leaves a truncated one (drop it).
  std::vector<std::string> names;
  try {
    names = vfs_->list(root_);
  } catch (const util::VfsError& e) {
    throw StoreError("store: cannot list root " + root_ + ": " + e.what());
  }
  for (const std::string& name : names) {
    std::uint64_t seq = 0;
    if (parse_seq(name, seq)) next_seq_ = std::max(next_seq_, seq + 1);
    if (!name.ends_with(".seg") || listed.count(name) > 0) continue;
    const std::string path = root_ + "/" + name;
    try {
      SegmentReader reader(path, vfs_);
      SegmentMeta meta;
      meta.file = name;
      meta.day = reader.blocks().empty()
                     ? 0
                     : reader.bounds().begin / util::kDay;
      meta.events = reader.events();
      meta.bytes = reader.file_bytes();
      meta.t_min = reader.bounds().begin;
      meta.t_max = reader.bounds().end - 1;
      adopt_locked(std::move(meta), std::move(reader));
      ++recovery_.adopted_orphans;
      changed = true;
    } catch (const StoreError&) {
      ++recovery_.dropped_corrupt;
      changed = true;
      set_aside(path);
    }
  }

  std::sort(segments_.begin(), segments_.end(),
            [](const std::shared_ptr<const LiveSegment>& a,
               const std::shared_ptr<const LiveSegment>& b) {
              return a->meta.file < b->meta.file;
            });
  recovery_.segments = segments_.size();
  if (changed || !have_manifest) save_manifest_locked();
}

void Store::save_manifest_locked() const {
  Manifest manifest;
  manifest.segments.reserve(segments_.size());
  for (const auto& s : segments_) manifest.segments.push_back(s->meta);
  try {
    util::retry_transient(options_.retry, *clock_, retry_rng_,
                          [&] { manifest.save(root_, vfs_); });
  } catch (const util::VfsError& e) {
    throw StoreError(std::string("manifest: replace failed: ") + e.what());
  }
}

std::string Store::next_segment_name(std::int64_t day) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seg%08" PRIu64 "_day%05lld.seg",
                next_seq_++, static_cast<long long>(day));
  return buf;
}

void Store::append(std::vector<telemetry::MetricEvent> events) {
  if (events.empty()) return;
  const std::int64_t day = events.front().t / util::kDay;
  auto& buf = mem_[day];
  buffered_events_ += events.size();
  if (buf.empty()) {
    buf = std::move(events);
  } else {
    buf.insert(buf.end(), events.begin(), events.end());
  }
  if (buf.size() >= options_.segment_events) seal_day(day);
}

void Store::seal_day(std::int64_t day) {
  auto it = mem_.find(day);
  if (it == mem_.end() || it->second.empty()) return;
  std::string name;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    name = next_segment_name(day);
  }
  SegmentWriter writer(root_ + "/" + name, day, options_.block_events, vfs_);
  buffered_events_ -= it->second.size();
  writer.add(std::move(it->second));
  mem_.erase(it);
  // Transient I/O faults re-run the whole seal (the writer keeps its
  // buffer across a failed attempt); permanent ones surface as StoreError
  // and cost exactly this unsealed tail, nothing already durable.
  SegmentMeta meta;
  try {
    meta = util::retry_transient(options_.retry, *clock_, retry_rng_,
                                 [&] { return writer.seal(); });
  } catch (const util::VfsError& e) {
    throw StoreError("segment seal failed for " + name + ": " + e.what());
  }
  meta.file = name;
  // Re-open through the validating reader: the segment must be readable
  // before the manifest is allowed to point at it.
  SegmentReader reader(root_ + "/" + name, vfs_);
  std::lock_guard<std::mutex> lock(*mu_);
  adopt_locked(std::move(meta), std::move(reader));
  save_manifest_locked();
}

void Store::flush() {
  while (!mem_.empty()) seal_day(mem_.begin()->first);
  reap();
}

std::size_t Store::reap() {
  std::lock_guard<std::mutex> lock(*mu_);
  return reap_locked();
}

std::size_t Store::reap_locked() {
  std::size_t deleted = 0;
  std::vector<std::string> freed_journals;
  for (auto it = graveyard_.begin(); it != graveyard_.end();) {
    // use_count == 1 means only the graveyard pins this segment: every
    // query snapshot that held it has drained, so the file can go.
    if (it->seg.use_count() > 1) {
      ++it;
      continue;
    }
    try {
      if (vfs_->exists(it->path)) vfs_->remove(it->path);
    } catch (const util::VfsError&) {
      // Leave the entry; a later reap (or the next open's journal
      // replay) finishes the sweep.
      ++it;
      continue;
    }
    ++deleted;
    if (!it->journal.empty()) freed_journals.push_back(it->journal);
    it = graveyard_.erase(it);
  }
  // A journal may only disappear after every victim it names is gone —
  // it is what recovery uses to finish deleting them after a crash.
  for (const auto& journal : freed_journals) {
    const bool still_referenced = std::any_of(
        graveyard_.begin(), graveyard_.end(),
        [&](const Grave& g) { return g.journal == journal; });
    if (still_referenced) continue;
    try {
      if (vfs_->exists(journal)) vfs_->remove(journal);
    } catch (const util::VfsError&) {
      // Recovery tolerates a stale journal: replaying it is idempotent.
    }
  }
  return deleted;
}

std::size_t Store::graveyard_size() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return graveyard_.size();
}

std::size_t Store::sealed_segments() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return segments_.size();
}

std::uint64_t Store::total_events() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return sealed_events_ + buffered_events_;
}

std::uint64_t Store::stored_bytes() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return stored_bytes_;
}

std::vector<ts::Sample> Store::query(telemetry::MetricId id,
                                     util::TimeRange range,
                                     QueryStats* stats) const {
  std::vector<ts::Sample> out;
  QueryStats local;
  const SegmentSnapshot segs = snapshot();
  for (const auto& seg : segs) {
    if (!seg->reader.bounds().overlaps(range)) continue;
    seg->reader.scan(id, range, out, &local, cache_.get());
  }
  for (const auto& [day, buf] : mem_) {
    for (const auto& ev : buf) {
      if (ev.id == id && range.contains(ev.t)) {
        out.push_back({ev.t, static_cast<double>(ev.value)});
      }
    }
  }
  std::sort(out.begin(), out.end(), sample_less);
  if (stats != nullptr) stats->merge(local);
  return out;
}

std::vector<MetricRun> Store::query_many(
    std::span<const telemetry::MetricId> ids, util::TimeRange range,
    util::ThreadPool* pool, QueryStats* stats) const {
  const std::unordered_set<telemetry::MetricId> want(ids.begin(), ids.end());
  util::ThreadPool& fan = pool != nullptr ? *pool : util::ThreadPool::global();

  const SegmentSnapshot segs = snapshot();
  std::vector<const LiveSegment*> relevant;
  for (const auto& seg : segs) {
    if (seg->reader.bounds().overlaps(range)) relevant.push_back(seg.get());
  }

  struct Part {
    std::map<telemetry::MetricId, std::vector<ts::Sample>> samples;
    QueryStats stats;
  };
  // Phase A — one task per segment: decode is the expensive part, and
  // segments are independent files, so this is the natural fan-out grain.
  auto parts = util::parallel_map(
      relevant.size(),
      [&](std::size_t i) {
        Part part;
        relevant[i]->reader.scan_set(want, range, part.samples, &part.stats,
                                     cache_.get());
        return part;
      },
      fan);

  QueryStats local;
  for (const auto& part : parts) local.merge(part.stats);

  // The unsealed tail, staged per metric so phase B can splice it in.
  std::unordered_map<telemetry::MetricId, std::vector<ts::Sample>> tail;
  for (const auto& [day, buf] : mem_) {
    for (const auto& ev : buf) {
      if (range.contains(ev.t) && want.count(ev.id) > 0) {
        tail[ev.id].push_back({ev.t, static_cast<double>(ev.value)});
      }
    }
  }

  // Phase B — one task per distinct metric: concatenate that metric's
  // per-segment pieces and sort the run. This is where the serial
  // version spent its time (the merge memcpy plus thousands of per-id
  // sorts ran on one thread after the cheap parallel scans); distinct
  // ids touch disjoint vectors, so the whole merge+sort fans out.
  std::vector<telemetry::MetricId> uniq;
  uniq.reserve(ids.size());
  std::unordered_map<telemetry::MetricId, std::size_t> first_slot;
  first_slot.reserve(ids.size());
  for (const telemetry::MetricId id : ids) {
    if (first_slot.emplace(id, uniq.size()).second) uniq.push_back(id);
  }

  auto runs = util::parallel_map(
      uniq.size(),
      [&](std::size_t k) {
        const telemetry::MetricId id = uniq[k];
        std::vector<ts::Sample> samples;
        std::size_t total = 0;
        for (const auto& part : parts) {
          const auto it = part.samples.find(id);
          if (it != part.samples.end()) total += it->second.size();
        }
        const auto t = tail.find(id);
        if (t != tail.end()) total += t->second.size();
        samples.reserve(total);
        for (auto& part : parts) {
          const auto it = part.samples.find(id);
          if (it == part.samples.end()) continue;
          if (samples.empty()) {
            samples = std::move(it->second);
            samples.reserve(total);
          } else {
            samples.insert(samples.end(), it->second.begin(),
                           it->second.end());
          }
        }
        if (t != tail.end()) {
          samples.insert(samples.end(), t->second.begin(), t->second.end());
        }
        std::sort(samples.begin(), samples.end(), sample_less);
        return samples;
      },
      fan);

  // Phase C — assemble in request order. A duplicate requested id gets
  // the full run again (copied from its first slot), exactly as per-id
  // query() calls would answer.
  std::vector<MetricRun> out;
  out.reserve(ids.size());
  std::unordered_map<telemetry::MetricId, std::size_t> emitted;
  emitted.reserve(ids.size());
  for (const telemetry::MetricId id : ids) {
    MetricRun run;
    run.id = id;
    const auto [slot, fresh] = emitted.emplace(id, out.size());
    if (!fresh) {
      run.samples = out[slot->second].samples;
    } else {
      run.samples = std::move(runs[first_slot[id]]);
    }
    out.push_back(std::move(run));
  }
  if (stats != nullptr) stats->merge(local);
  return out;
}

bool Store::scan(std::span<const telemetry::MetricId> ids,
                 util::TimeRange range,
                 const std::function<bool(MetricRun&&)>& sink,
                 QueryStats* stats) const {
  const SegmentSnapshot segs = snapshot();
  std::vector<const LiveSegment*> relevant;
  for (const auto& seg : segs) {
    if (seg->reader.bounds().overlaps(range)) relevant.push_back(seg.get());
  }

  // Parity bookkeeping against query_many: a vanished segment is charged
  // once per segment (per-id scans would re-charge it for every id), and
  // a duplicate requested id reuses its first run instead of re-scanning
  // (which would double-charge that metric's damaged blocks).
  std::vector<bool> segment_charged(relevant.size(), false);
  std::unordered_map<telemetry::MetricId, std::size_t> want_count;
  for (const telemetry::MetricId id : ids) ++want_count[id];
  std::unordered_map<telemetry::MetricId, std::vector<ts::Sample>> dup_runs;

  QueryStats total;
  bool completed = true;
  for (const telemetry::MetricId id : ids) {
    MetricRun run;
    run.id = id;
    const auto dup = dup_runs.find(id);
    if (dup != dup_runs.end()) {
      run.samples = dup->second;
    } else {
      for (std::size_t si = 0; si < relevant.size(); ++si) {
        QueryStats local;
        relevant[si]->reader.scan(id, range, run.samples, &local,
                                  cache_.get());
        if (local.lost_segments != 0) {
          if (segment_charged[si]) {
            local.lost_segments = 0;
          } else {
            segment_charged[si] = true;
          }
        }
        total.merge(local);
      }
      for (const auto& [day, buf] : mem_) {
        for (const auto& ev : buf) {
          if (ev.id == id && range.contains(ev.t)) {
            run.samples.push_back({ev.t, static_cast<double>(ev.value)});
          }
        }
      }
      std::sort(run.samples.begin(), run.samples.end(), sample_less);
      if (want_count[id] > 1) dup_runs.emplace(id, run.samples);
    }
    if (!sink(std::move(run))) {
      completed = false;
      break;
    }
  }
  if (stats != nullptr) stats->merge(total);
  return completed;
}

bool Store::scan_encoded(std::span<const telemetry::MetricId> ids,
                         util::TimeRange range, const RawScanSink& sink,
                         QueryStats* stats) const {
  const SegmentSnapshot segs = snapshot();
  std::vector<const LiveSegment*> relevant;
  for (const auto& seg : segs) {
    if (seg->reader.bounds().overlaps(range)) relevant.push_back(seg.get());
  }

  std::vector<bool> segment_charged(relevant.size(), false);
  std::unordered_set<telemetry::MetricId> seen;
  seen.reserve(ids.size());

  QueryStats total;
  std::vector<ts::Sample> loose;
  std::vector<std::uint8_t> scratch;
  for (const telemetry::MetricId id : ids) {
    // A repeated id re-emits the same pieces but with throwaway loss
    // accounting — raw spans cannot be stashed like sample runs, and
    // query_many charges each damaged block once per *distinct* metric.
    const bool first_visit = seen.insert(id).second;
    if (sink.begin_run != nullptr && !sink.begin_run(id)) return false;
    loose.clear();
    for (std::size_t si = 0; si < relevant.size(); ++si) {
      QueryStats local;
      const bool keep_going = relevant[si]->reader.scan_pieces(
          id, range,
          [&](std::span<const std::uint8_t> bytes, std::uint32_t events) {
            return sink.block == nullptr || sink.block(bytes, events);
          },
          loose, &local, scratch);
      if (local.lost_segments != 0) {
        if (segment_charged[si]) {
          local.lost_segments = 0;
        } else {
          segment_charged[si] = true;
        }
      }
      if (first_visit) total.merge(local);
      if (!keep_going) return false;
    }
    for (const auto& [day, buf] : mem_) {
      for (const auto& ev : buf) {
        if (ev.id == id && range.contains(ev.t)) {
          loose.push_back({ev.t, static_cast<double>(ev.value)});
        }
      }
    }
    std::sort(loose.begin(), loose.end(), sample_less);
    if (sink.samples != nullptr && !sink.samples(loose)) return false;
    if (sink.end_run != nullptr && !sink.end_run()) return false;
  }
  if (stats != nullptr) stats->merge(total);
  return true;
}

WindowSum Store::window_sum(telemetry::MetricId id, util::TimeRange range,
                            util::TimeSec window, util::ThreadPool* pool,
                            QueryStats* stats) const {
  if (window <= 0) {
    throw StoreError("store: window_sum window must be positive");
  }
  const auto n_windows =
      static_cast<std::size_t>((range.duration() + window - 1) / window);
  WindowSum out;
  out.start = range.begin;
  out.window = window;
  out.sum.assign(n_windows, 0.0);
  out.count.assign(n_windows, 0);

  const SegmentSnapshot segs = snapshot();
  std::vector<const LiveSegment*> relevant;
  for (const auto& seg : segs) {
    if (seg->reader.bounds().overlaps(range)) relevant.push_back(seg.get());
  }

  QueryStats local;
  util::ThreadPool& fan = pool != nullptr ? *pool : util::ThreadPool::global();
  if (fan.size() <= 1 || relevant.size() <= 1) {
    // Serial fast path: accumulate straight onto the output grids. The
    // per-segment staging below exists only so concurrent workers never
    // share a grid; with one worker (or one segment) its allocations are
    // the dominant cost of a small cache-hit roll-up. Partial sums are
    // exact integer-valued doubles, so both paths produce identical grids.
    for (const LiveSegment* seg : relevant) {
      seg->reader.scan_sum(id, range, window, out.sum, out.count, &local,
                           cache_.get());
    }
  } else {
    struct Part {
      std::vector<double> sum;
      std::vector<std::uint64_t> count;
      QueryStats stats;
    };
    // Per-segment grids merged in segment order. Every partial sum is an
    // exact integer-valued double, so the merge order cannot change the
    // result — the fan-out is free to schedule segments however it likes.
    auto parts = util::parallel_map(
        relevant.size(),
        [&](std::size_t i) {
          Part part;
          part.sum.assign(n_windows, 0.0);
          part.count.assign(n_windows, 0);
          relevant[i]->reader.scan_sum(id, range, window, part.sum,
                                       part.count, &part.stats, cache_.get());
          return part;
        },
        fan);

    for (const auto& part : parts) {
      local.merge(part.stats);
      for (std::size_t w = 0; w < n_windows; ++w) {
        out.sum[w] += part.sum[w];
        out.count[w] += part.count[w];
      }
    }
  }
  for (const auto& [day, buf] : mem_) {
    for (const auto& ev : buf) {
      if (ev.id == id && range.contains(ev.t)) {
        const auto w =
            static_cast<std::size_t>((ev.t - range.begin) / window);
        out.sum[w] += static_cast<double>(ev.value);
        ++out.count[w];
      }
    }
  }
  if (stats != nullptr) stats->merge(local);
  return out;
}

std::vector<telemetry::MetricId> Store::metrics() const {
  std::set<telemetry::MetricId> ids;
  const SegmentSnapshot segs = snapshot();
  for (const auto& seg : segs) {
    for (const auto& b : seg->reader.blocks()) ids.insert(b.id);
  }
  for (const auto& [day, buf] : mem_) {
    for (const auto& ev : buf) ids.insert(ev.id);
  }
  return {ids.begin(), ids.end()};
}

std::vector<SegmentMeta> Store::directory() const {
  std::lock_guard<std::mutex> lock(*mu_);
  std::vector<SegmentMeta> out;
  out.reserve(segments_.size());
  for (const auto& seg : segments_) out.push_back(seg->meta);
  return out;
}

std::uint64_t Store::estimate_blocks(
    std::span<const telemetry::MetricId> ids, util::TimeRange range) const {
  if (ids.empty() || range.begin >= range.end) return 0;
  const std::unordered_set<telemetry::MetricId> want(ids.begin(), ids.end());
  std::uint64_t blocks = 0;
  const SegmentSnapshot segs = snapshot();
  for (const auto& seg : segs) {
    if (!seg->reader.bounds().overlaps(range)) continue;
    for (const telemetry::MetricId id : want) {
      blocks += seg->reader.count_blocks(id, range);
    }
  }
  return blocks;
}

util::TimeRange Store::bounds() const {
  util::TimeRange hull{0, 0};
  bool first = true;
  auto grow = [&](util::TimeSec lo, util::TimeSec hi) {
    hull.begin = first ? lo : std::min(hull.begin, lo);
    hull.end = first ? hi : std::max(hull.end, hi);
    first = false;
  };
  const SegmentSnapshot segs = snapshot();
  for (const auto& seg : segs) {
    grow(seg->reader.bounds().begin, seg->reader.bounds().end);
  }
  for (const auto& [day, buf] : mem_) {
    for (const auto& ev : buf) grow(ev.t, ev.t + 1);
  }
  return hull;
}

std::size_t Store::day_partitions() const {
  std::set<std::int64_t> days;
  const SegmentSnapshot segs = snapshot();
  for (const auto& seg : segs) days.insert(seg->meta.day);
  for (const auto& [day, buf] : mem_) {
    if (!buf.empty()) days.insert(day);
  }
  return days.size();
}

double Store::compression_ratio() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return stored_bytes_ == 0
             ? 0.0
             : static_cast<double>(sealed_events_ *
                                   telemetry::kRawEventBytes) /
                   static_cast<double>(stored_bytes_);
}

ts::Series reduce_cluster_sum(std::span<const ts::StatSeries> per_node,
                              util::TimeRange range, util::TimeSec window,
                              std::vector<double>* counts) {
  const auto n_windows =
      static_cast<std::size_t>((range.duration() + window - 1) / window);
  std::vector<double> sum(n_windows, 0.0);
  std::vector<double> cnt(n_windows, 0.0);
  for (const auto& stat : per_node) {
    for (std::size_t w = 0; w < stat.size() && w < n_windows; ++w) {
      if (stat[w].count > 0) {
        sum[w] += stat[w].mean;
        cnt[w] += 1.0;
      }
    }
  }
  if (counts != nullptr) *counts = std::move(cnt);
  return ts::Series(range.begin, window, std::move(sum));
}

std::vector<ts::StatSeries> coarsen_nodes(
    const Store& store, const std::vector<machine::NodeId>& nodes,
    int channel, util::TimeRange range, util::TimeSec window,
    util::ThreadPool* pool, QueryStats* stats) {
  struct NodeScan {
    ts::StatSeries stat;
    QueryStats stats;
  };
  // Same shape as telemetry::cluster_sum — per-node scans fan out, the
  // caller reduces in node order, so the result is bit-identical to the
  // in-memory path on an identical event stream.
  auto per_node = util::parallel_map(
      nodes.size(),
      [&](std::size_t i) {
        NodeScan scan;
        const auto samples =
            store.query(telemetry::metric_id(nodes[i], channel), range,
                        &scan.stats);
        scan.stat = ts::coarsen(samples, window, range);
        return scan;
      },
      pool != nullptr ? *pool : util::ThreadPool::global());
  std::vector<ts::StatSeries> stats_only;
  stats_only.reserve(per_node.size());
  for (auto& scan : per_node) {
    if (stats != nullptr) stats->merge(scan.stats);
    stats_only.push_back(std::move(scan.stat));
  }
  return stats_only;
}

MetricRun window_means(telemetry::MetricId id, const ts::StatSeries& stat) {
  MetricRun run;
  run.id = id;
  for (std::size_t w = 0; w < stat.size(); ++w) {
    if (stat[w].count > 0) {
      run.samples.push_back({stat.time_at(w), stat[w].mean});
    }
  }
  return run;
}

ts::Series cluster_sum(const Store& store,
                       const std::vector<machine::NodeId>& nodes, int channel,
                       util::TimeRange range, util::TimeSec window,
                       std::vector<double>* counts, util::ThreadPool* pool,
                       QueryStats* stats) {
  return reduce_cluster_sum(
      coarsen_nodes(store, nodes, channel, range, window, pool, stats), range,
      window, counts);
}

}  // namespace exawatt::store
