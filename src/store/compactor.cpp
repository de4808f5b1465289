#include "store/compactor.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>

#include "store/manifest.hpp"
#include "store/segment.hpp"
#include "store/store.hpp"
#include "util/crc32.hpp"
#include "util/parallel.hpp"
#include "util/retry.hpp"

namespace exawatt::store {

namespace {

constexpr const char* kMagicLine = "exawatt-compact 1";
constexpr const char* kJournalSuffix = ".compact";

[[nodiscard]] std::string rest_of(const std::string& line,
                                  const std::string& tag) {
  const std::string prefix = tag + " ";
  if (line.size() <= prefix.size() ||
      line.compare(0, prefix.size(), prefix) != 0) {
    throw StoreError("compaction journal: malformed line: " + line);
  }
  return line.substr(prefix.size());
}

}  // namespace

// -------------------------------------------------------------- planning

CompactionPlan plan_compaction(const std::vector<SegmentMeta>& directory,
                               const CompactionOptions& opts) {
  CompactionPlan plan;
  const util::TimeSec cutoff = opts.retention.drop_before;
  std::map<std::int64_t, CompactionRound> rounds;
  std::map<std::int64_t, bool> forced;
  for (const auto& meta : directory) {
    // Every event at or past t_max has aged out → the whole segment has.
    if (cutoff > 0 && meta.t_max < cutoff) {
      plan.drop.push_back(meta.file);
      continue;
    }
    const bool small = meta.events < opts.small_segment_events;
    // A segment straddling the cutoff must rewrite to shed its expired
    // prefix, regardless of size or how many neighbors it has.
    const bool straddles = cutoff > 0 && meta.t_min < cutoff;
    if (!small && !straddles) continue;
    auto& round = rounds[meta.day];
    round.day = meta.day;
    round.inputs.push_back(meta.file);
    if (straddles) forced[meta.day] = true;
  }
  for (auto& [day, round] : rounds) {
    // A lone small segment is left alone — merging it with nothing is
    // pure write amplification — unless retention forces the rewrite.
    if (!forced[day] && round.inputs.size() < opts.min_merge_inputs) {
      continue;
    }
    plan.rounds.push_back(std::move(round));
  }
  return plan;
}

// --------------------------------------------------------------- journal

std::string CompactionJournal::path_for(const std::string& root,
                                        const std::string& output) {
  return root + "/" + output + kJournalSuffix;
}

std::string CompactionJournal::encode() const {
  std::ostringstream body;
  body << kMagicLine << '\n';
  body << "state " << (state == State::kFlipped ? "flipped" : "copying")
       << '\n';
  body << "day " << day << '\n';
  body << "output " << output << '\n';
  body << "drop_before " << drop_before << '\n';
  for (const auto& in : inputs) body << "input " << in << '\n';
  const std::string payload = body.str();
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc %08" PRIx32 "\n",
                util::crc32(payload));
  return payload + crc_line;
}

CompactionJournal CompactionJournal::decode(const std::string& text) {
  const std::size_t crc_pos = text.rfind("crc ");
  if (crc_pos == std::string::npos || crc_pos == 0 ||
      text[crc_pos - 1] != '\n') {
    throw StoreError("compaction journal: missing crc line");
  }
  const std::string payload = text.substr(0, crc_pos);
  std::uint32_t want = 0;
  if (std::sscanf(text.c_str() + crc_pos, "crc %" SCNx32, &want) != 1 ||
      util::crc32(payload) != want) {
    throw StoreError("compaction journal: checksum mismatch");
  }
  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line) || line != kMagicLine) {
    throw StoreError("compaction journal: bad magic line");
  }
  CompactionJournal j;
  if (!std::getline(in, line)) {
    throw StoreError("compaction journal: truncated");
  }
  const std::string state = rest_of(line, "state");
  if (state == "copying") {
    j.state = State::kCopying;
  } else if (state == "flipped") {
    j.state = State::kFlipped;
  } else {
    throw StoreError("compaction journal: unknown state: " + state);
  }
  if (!std::getline(in, line)) {
    throw StoreError("compaction journal: truncated");
  }
  j.day = std::stoll(rest_of(line, "day"));
  if (!std::getline(in, line)) {
    throw StoreError("compaction journal: truncated");
  }
  j.output = rest_of(line, "output");
  if (!std::getline(in, line)) {
    throw StoreError("compaction journal: truncated");
  }
  j.drop_before = std::stoll(rest_of(line, "drop_before"));
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    j.inputs.push_back(rest_of(line, "input"));
  }
  if (j.output.empty() || j.inputs.empty()) {
    throw StoreError("compaction journal: missing output/inputs");
  }
  return j;
}

void CompactionJournal::save(const std::string& root, util::Vfs& vfs) const {
  const std::string path = path_for(root, output);
  const std::string tmp = path + ".tmp";
  auto out = vfs.create(tmp);
  out->write_text(encode());
  out->close();
  vfs.rename(tmp, path);
}

// ------------------------------------------------------- Store::compact

CompactionReport Store::compact(const CompactionOptions& opts) {
  // Passes serialize against each other; queries and appends keep
  // running — every mutation of the live set happens under *mu_ and
  // in-flight snapshots keep their refcounted segments alive.
  std::lock_guard<std::mutex> compact_lock(*compact_mu_);
  CompactionReport report;
  reap();

  CompactionPlan plan;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    // A journal on disk that no graveyard entry explains is a previous
    // pass that died between its commit point and its cleanup: starting
    // a new pass over the same inputs could duplicate events. Recovery
    // (reopen) replays it; refuse until then.
    std::vector<std::string> names;
    try {
      names = vfs_->list(root_);
    } catch (const util::VfsError& e) {
      throw StoreError("store: cannot list root " + root_ + ": " + e.what());
    }
    for (const auto& name : names) {
      if (!name.ends_with(kJournalSuffix)) continue;
      const std::string jpath = root_ + "/" + name;
      const bool tracked = std::any_of(
          graveyard_.begin(), graveyard_.end(),
          [&](const Grave& g) { return g.journal == jpath; });
      if (!tracked) {
        throw StoreError(
            "compact: unfinished compaction journal present (" + name +
            ") — reopen the store to recover");
      }
    }
    std::vector<SegmentMeta> dir;
    dir.reserve(segments_.size());
    for (const auto& s : segments_) dir.push_back(s->meta);
    plan = plan_compaction(dir, opts);
  }
  if (plan.empty()) return report;

  // Retire the named segments from the live set + manifest in one locked
  // step; their files stay until reap() sees the last reader gone.
  auto retire_locked = [&](const std::vector<std::string>& files,
                           const std::string& journal) {
    for (const auto& file : files) {
      const auto it = std::find_if(
          segments_.begin(), segments_.end(),
          [&](const std::shared_ptr<const LiveSegment>& s) {
            return s->meta.file == file;
          });
      if (it == segments_.end()) continue;
      sealed_events_ -= (*it)->meta.events;
      stored_bytes_ -= (*it)->meta.bytes;
      graveyard_.push_back({*it, root_ + "/" + file, journal});
      segments_.erase(it);
    }
  };

  if (!plan.drop.empty()) {
    std::lock_guard<std::mutex> lock(*mu_);
    retire_locked(plan.drop, "");
    save_manifest_locked();
    report.dropped_segments += plan.drop.size();
  }

  util::ThreadPool& pool =
      opts.pool != nullptr ? *opts.pool : util::ThreadPool::global();

  for (const auto& round : plan.rounds) {
    // Resolve the planned inputs against the current live set — an input
    // another caller retired since planning just shrinks the round.
    std::vector<std::shared_ptr<const LiveSegment>> inputs;
    {
      std::lock_guard<std::mutex> lock(*mu_);
      for (const auto& file : round.inputs) {
        const auto it = std::find_if(
            segments_.begin(), segments_.end(),
            [&](const std::shared_ptr<const LiveSegment>& s) {
              return s->meta.file == file;
            });
        if (it != segments_.end()) inputs.push_back(*it);
      }
    }
    if (inputs.empty()) {
      ++report.rounds_skipped;
      continue;
    }

    // Decode every input strictly (merge must never launder damage into
    // a "clean" output); one damaged input abandons the round, leaving
    // the day exactly as it was.
    struct Decoded {
      std::vector<telemetry::MetricEvent> events;
      bool ok = true;
    };
    auto decoded = util::parallel_map(
        inputs.size(),
        [&](std::size_t i) {
          Decoded d;
          try {
            const SegmentReader& r = inputs[i]->reader;
            d.events.reserve(static_cast<std::size_t>(r.events()));
            for (const auto& b : r.blocks()) {
              const auto evs = r.read_block(b);
              d.events.insert(d.events.end(), evs.begin(), evs.end());
            }
          } catch (const StoreError&) {
            d.ok = false;
          }
          return d;
        },
        pool);
    if (std::any_of(decoded.begin(), decoded.end(),
                    [](const Decoded& d) { return !d.ok; })) {
      ++report.rounds_skipped;
      continue;
    }

    std::size_t events_in = 0;
    for (const auto& d : decoded) events_in += d.events.size();
    report.events_in += events_in;

    std::vector<telemetry::MetricEvent> keep;
    keep.reserve(events_in);
    for (const auto& d : decoded) {
      for (const auto& ev : d.events) {
        if (opts.retention.keeps(ev.t)) keep.push_back(ev);
      }
    }
    report.events_expired += events_in - keep.size();

    std::vector<std::string> input_files;
    input_files.reserve(inputs.size());
    for (const auto& in : inputs) input_files.push_back(in->meta.file);

    if (keep.empty()) {
      // Retention emptied the whole round: retire the inputs outright,
      // same crash shape as a planned drop (a crash can only resurrect
      // already-expired data, never lose live data).
      std::lock_guard<std::mutex> lock(*mu_);
      retire_locked(input_files, "");
      save_manifest_locked();
      report.dropped_segments += input_files.size();
      continue;
    }

    std::string out_name;
    {
      std::lock_guard<std::mutex> lock(*mu_);
      out_name = next_segment_name(round.day);
    }
    const std::string jpath = CompactionJournal::path_for(root_, out_name);
    const std::string incoming = root_ + "/" + out_name + ".incoming";
    const std::string final_path = root_ + "/" + out_name;

    CompactionJournal j;
    j.state = CompactionJournal::State::kCopying;
    j.day = round.day;
    j.output = out_name;
    j.drop_before = opts.retention.drop_before;
    j.inputs = input_files;

    bool flipped = false;
    try {
      j.save(root_, *vfs_);
      SegmentWriter writer(incoming, round.day, options_.block_events, vfs_);
      const std::uint64_t events_out = keep.size();
      writer.add(std::move(keep));
      SegmentMeta meta =
          util::retry_transient(options_.retry, *clock_, retry_rng_,
                                [&] { return writer.seal(); });
      // Validate through a full reader before committing — the flip must
      // only ever point at a segment recovery would accept.
      {
        SegmentReader check(incoming, vfs_);
        if (check.events() != events_out) {
          throw StoreError("compaction output event count mismatch: " +
                           incoming);
        }
      }
      j.state = CompactionJournal::State::kFlipped;
      j.save(root_, *vfs_);  // THE commit point
      flipped = true;

      vfs_->rename(incoming, final_path);
      SegmentReader reader(final_path, vfs_);
      meta.file = out_name;
      {
        std::lock_guard<std::mutex> lock(*mu_);
        retire_locked(input_files, jpath);
        adopt_locked(std::move(meta), std::move(reader));
        save_manifest_locked();
      }
      ++report.rounds;
      report.merged_inputs += input_files.size();
      report.events_out += events_out;
    } catch (const util::VfsError& e) {
      if (!flipped) {
        // Uncommitted: discard the partial output and the journal; the
        // inputs were never touched. Best-effort — under a simulated
        // crash every later write also fails and recovery rolls back.
        try {
          if (vfs_->exists(incoming)) vfs_->remove(incoming);
        } catch (const util::VfsError&) {
        }
        try {
          if (vfs_->exists(jpath)) vfs_->remove(jpath);
        } catch (const util::VfsError&) {
        }
      }
      // Committed-but-unfinished stays on disk: the flipped journal is
      // the recovery contract, and the inputs are still live in this
      // process, so nothing is lost either way.
      throw StoreError(std::string("compaction round failed: ") + e.what());
    } catch (const StoreError&) {
      if (!flipped) {
        try {
          if (vfs_->exists(incoming)) vfs_->remove(incoming);
        } catch (const util::VfsError&) {
        }
        try {
          if (vfs_->exists(jpath)) vfs_->remove(jpath);
        } catch (const util::VfsError&) {
        }
      }
      throw;
    }
  }

  reap();
  return report;
}

// ------------------------------------------- Store::recover_compactions

void Store::recover_compactions() {
  std::vector<std::string> names;
  try {
    names = vfs_->list(root_);
  } catch (const util::VfsError&) {
    return;  // recover() reports the listing failure with context
  }

  for (const std::string& name : names) {
    // Torn journal saves: the tmp never became the journal, so the round
    // it described never committed. Sweep it.
    if (name.ends_with(std::string(".compact") + ".tmp")) {
      try {
        vfs_->remove(root_ + "/" + name);
      } catch (const util::VfsError&) {
      }
    }
  }

  for (const std::string& name : names) {
    if (!name.ends_with(".compact")) continue;
    const std::string jpath = root_ + "/" + name;

    CompactionJournal j;
    bool valid = true;
    try {
      const auto bytes = vfs_->read_all(jpath);
      j = CompactionJournal::decode(std::string(bytes.begin(), bytes.end()));
    } catch (const StoreError&) {
      valid = false;
    } catch (const util::VfsError&) {
      valid = false;
    }
    // The journal is named after its output, so even an unreadable one
    // tells us which .incoming to discard.
    const std::string output =
        valid ? j.output : name.substr(0, name.size() - 8);
    const std::string incoming = root_ + "/" + output + ".incoming";
    const std::string final_path = root_ + "/" + output;

    auto rollback = [&] {
      try {
        if (vfs_->exists(incoming)) vfs_->remove(incoming);
      } catch (const util::VfsError&) {
      }
      try {
        if (vfs_->exists(jpath)) vfs_->remove(jpath);
      } catch (const util::VfsError&) {
      }
      ++recovery_.compactions_rolled_back;
    };

    if (!valid || j.state == CompactionJournal::State::kCopying) {
      rollback();
      continue;
    }

    // Flipped: the output was sealed and validated before the commit
    // point, so roll forward — finish the rename, then retire the input
    // files. Each step checks before acting; a crash mid-replay replays
    // cleanly next open.
    try {
      if (vfs_->exists(incoming) && !vfs_->exists(final_path)) {
        vfs_->rename(incoming, final_path);
      }
      bool final_ok = false;
      if (vfs_->exists(final_path)) {
        try {
          SegmentReader check(final_path, vfs_);
          final_ok = check.events() > 0 || check.blocks().empty();
        } catch (const StoreError&) {
          final_ok = false;
        }
      }
      if (final_ok) {
        for (const auto& in : j.inputs) {
          const std::string path = root_ + "/" + in;
          if (vfs_->exists(path)) vfs_->remove(path);
        }
        if (vfs_->exists(jpath)) vfs_->remove(jpath);
        ++recovery_.compactions_finished;
      } else {
        // The committed output is gone or damaged (bit rot after
        // validation). Keep the inputs — they still hold every event —
        // and set a damaged output aside for the autopsy.
        if (vfs_->exists(final_path)) {
          try {
            vfs_->rename(final_path, final_path + ".bad");
          } catch (const util::VfsError&) {
          }
        }
        rollback();
      }
    } catch (const util::VfsError&) {
      // Leave the journal in place: the next open replays it.
    }
  }
}

}  // namespace exawatt::store
