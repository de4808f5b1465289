#include "server/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>

#include "telemetry/codec.hpp"
#include "util/check.hpp"

namespace exawatt::server::wire {

namespace {

/// Bounded little-endian writer/reader pair. Every read checks the
/// remaining byte count first — a response decoded by the client and a
/// request decoded by the server both treat the payload as adversarial.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void doubles(std::span<const double> v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> in) : in_(in) {}

  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

  std::uint8_t u8() {
    need(1);
    return in_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in_[pos_++]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  /// View of the next n raw bytes (no copy; valid while the payload is).
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const std::span<const std::uint8_t> v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  /// Element count declared for `elem_bytes`-sized items; rejected when
  /// it exceeds what the remaining payload can physically hold, so a
  /// hostile count can never size an allocation.
  std::size_t count(std::size_t elem_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / elem_bytes) {
      throw WireError("declared count exceeds payload");
    }
    return static_cast<std::size_t>(n);
  }
  std::vector<double> doubles() {
    const std::size_t n = count(8);
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }

 private:
  void need(std::size_t n) {
    if (remaining() < n) throw WireError("truncated payload");
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

void write_series(Writer& w, const ts::Series& s) {
  w.i64(s.start());
  w.i64(s.dt());
  w.doubles(s.values());
}

ts::Series read_series(Reader& r) {
  const util::TimeSec start = r.i64();
  const util::TimeSec dt = r.i64();
  std::vector<double> values = r.doubles();
  if (values.empty()) return {};
  if (dt <= 0) throw WireError("series dt must be positive");
  return ts::Series(start, dt, std::move(values));
}

void write_stats(Writer& w, const store::QueryStats& s) {
  w.u64(s.lost_segments);
  w.u64(s.lost_blocks);
  w.u64(s.cache_hits);
  w.u64(s.cache_misses);
}

store::QueryStats read_stats(Reader& r) {
  store::QueryStats s;
  s.lost_segments = static_cast<std::size_t>(r.u64());
  s.lost_blocks = static_cast<std::size_t>(r.u64());
  s.cache_hits = static_cast<std::size_t>(r.u64());
  s.cache_misses = static_cast<std::size_t>(r.u64());
  return s;
}

Method read_method(Reader& r) {
  const std::uint8_t m = r.u8();
  if (m > static_cast<std::uint8_t>(Method::kNodeMeans)) {
    throw WireError("unknown method " + std::to_string(int{m}));
  }
  return static_cast<Method>(m);
}

/// The cooling tunables a spec flagged `has_cooling` carries, in wire
/// order: one list for the encoder and the decoder.
template <typename Cooling, typename Field>
void for_each_tunable(Cooling& c, Field&& field) {
  field(c.mtw_supply_setpoint_c);
  field(c.tower_approach_c);
  field(c.tower_fade_band_c);
  field(c.stage_up_tau_s);
  field(c.stage_down_tau_s);
  field(c.supply_tau_s);
  field(c.loop_w_per_c);
  field(c.return_delay_s);
  field(c.pump_power_w);
  field(c.distribution_loss_frac);
  field(c.tower_fan_w_per_w);
  field(c.chiller_w_per_w);
}

/// Name, flags, power cap, wet-bulb offset, weather seed (32 fixed bytes
/// besides the name), then, only with `has_cooling`, the 12 tunables as
/// doubles.
void write_spec(Writer& w, const scenario::ScenarioSpec& spec) {
  w.str(spec.name);
  std::uint32_t flags = 0;
  if (spec.force_chillers) flags |= 1u;
  if (spec.has_weather_seed) flags |= 2u;
  if (spec.has_cooling) flags |= 4u;
  w.u32(flags);
  w.f64(spec.power_cap_w);
  w.f64(spec.wet_bulb_offset_c);
  w.u64(spec.weather_seed);
  if (spec.has_cooling) {
    for_each_tunable(spec.cooling, [&w](const auto& v) {
      w.f64(static_cast<double>(v));
    });
  }
}

scenario::ScenarioSpec read_spec(Reader& r) {
  scenario::ScenarioSpec spec;
  spec.name = r.str();
  const std::uint32_t flags = r.u32();
  spec.force_chillers = (flags & 1u) != 0;
  spec.has_weather_seed = (flags & 2u) != 0;
  spec.has_cooling = (flags & 4u) != 0;
  spec.power_cap_w = r.f64();
  spec.wet_bulb_offset_c = r.f64();
  spec.weather_seed = r.u64();
  if (spec.has_cooling) {
    for_each_tunable(spec.cooling, [&r](auto& v) {
      v = static_cast<std::remove_reference_t<decltype(v)>>(r.f64());
    });
  }
  return spec;
}

void write_summary(Writer& w, const scenario::ScenarioSummary& s) {
  w.str(s.name);
  w.u64(s.windows);
  w.f64(s.energy_j);
  w.f64(s.baseline_energy_j);
  w.f64(s.mean_pue);
  w.f64(s.baseline_mean_pue);
  w.f64(s.peak_power_w);
  w.f64(s.baseline_peak_power_w);
  w.f64(s.max_power_delta_w);
  w.f64(s.max_pue_delta);
}

scenario::ScenarioSummary read_summary(Reader& r) {
  scenario::ScenarioSummary s;
  s.name = r.str();
  s.windows = r.u64();
  s.energy_j = r.f64();
  s.baseline_energy_j = r.f64();
  s.mean_pue = r.f64();
  s.baseline_mean_pue = r.f64();
  s.peak_power_w = r.f64();
  s.baseline_peak_power_w = r.f64();
  s.max_power_delta_w = r.f64();
  s.max_pue_delta = r.f64();
  return s;
}

}  // namespace

const char* method_name(Method m) {
  switch (m) {
    case Method::kPing: return "ping";
    case Method::kWindowSum: return "window_sum";
    case Method::kScan: return "scan";
    case Method::kClusterSum: return "cluster_sum";
    case Method::kPueRollup: return "pue_rollup";
    case Method::kSubscribe: return "subscribe";
    case Method::kServerStats: return "server_stats";
    case Method::kDirectory: return "directory";
    case Method::kScenario: return "scenario";
    case Method::kScenarioSweep: return "scenario_sweep";
    case Method::kScanBlocks: return "scan_blocks";
    case Method::kNodeMeans: return "node_means";
  }
  return "unknown";
}

std::optional<double> ServerStatsWire::get(std::string_view name) const {
  for (const Counter& c : counters) {
    if (c.name == name) return c.value;
  }
  return std::nullopt;
}

std::string format_server_stats(const ServerStatsWire& stats) {
  std::string out;
  std::string_view group;
  for (const ServerStatsWire::Counter& c : stats.counters) {
    const std::string_view name = c.name;
    const std::size_t dot = name.rfind('.');  // npos + 1 == 0 below
    const std::string_view g = name.substr(0, dot == name.npos ? 0 : dot);
    if (out.empty() || g != group) {
      out.append(out.empty() ? "" : "\n").append(g).append(":");
      group = g;
    } else {
      out += ',';
    }
    const bool whole =
        std::fabs(c.value) < 1e15 && c.value == std::trunc(c.value);
    char value[32];
    std::snprintf(value, sizeof(value), whole ? " %.0f" : " %.4g", c.value);
    out.append(" ").append(name.substr(dot + 1)).append(value);
  }
  return out.empty() ? out : out + '\n';
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case Status::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Status::kCancelled: return "CANCELLED";
    case Status::kInvalidArgument: return "INVALID_ARGUMENT";
    case Status::kUnimplemented: return "UNIMPLEMENTED";
    case Status::kInternal: return "INTERNAL";
    case Status::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

std::vector<std::uint8_t> encode_request(const Request& req) {
  // Every request opens with the same 18 bytes: method, deadline and the
  // per-call options, whatever the method.
  Writer w;
  w.u8(static_cast<std::uint8_t>(req.method));
  w.u32(req.deadline_ms);
  w.u32(req.chunk_bytes);
  w.u8(req.want_scan_blocks ? 1 : 0);
  w.u32(req.qos_class);
  w.u32(req.tenant);
  switch (req.method) {
    case Method::kPing:
    case Method::kServerStats:
    case Method::kDirectory:
      break;
    case Method::kWindowSum:
      w.u32(req.metric);
      w.i64(req.range.begin);
      w.i64(req.range.end);
      w.i64(req.window);
      break;
    case Method::kScan:
      w.u64(req.metrics.size());
      for (const telemetry::MetricId id : req.metrics) w.u32(id);
      w.i64(req.range.begin);
      w.i64(req.range.end);
      break;
    case Method::kClusterSum:
    case Method::kPueRollup:
    case Method::kNodeMeans:
      w.u64(req.nodes.size());
      for (const machine::NodeId n : req.nodes) w.u32(static_cast<std::uint32_t>(n));
      w.u32(static_cast<std::uint32_t>(req.channel));
      w.i64(req.range.begin);
      w.i64(req.range.end);
      w.i64(req.window);
      break;
    case Method::kSubscribe:
      w.u8(req.subscribe_mask);
      break;
    case Method::kScenario:
    case Method::kScenarioSweep:
      w.u64(req.nodes.size());
      for (const machine::NodeId n : req.nodes) w.u32(static_cast<std::uint32_t>(n));
      w.i64(req.range.begin);
      w.i64(req.range.end);
      w.i64(req.window);
      w.u8(req.subscribe_mask);
      w.u64(req.scenarios.size());
      for (const scenario::ScenarioSpec& spec : req.scenarios) {
        write_spec(w, spec);
      }
      break;
    case Method::kScanBlocks:
      throw WireError("scan_blocks is response-only (request as kScan)");
  }
  return w.take();
}

Request decode_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  Request req;
  req.method = read_method(r);
  req.deadline_ms = r.u32();
  req.chunk_bytes = r.u32();
  req.want_scan_blocks = r.u8() != 0;
  req.qos_class = r.u32();
  req.tenant = r.u32();
  switch (req.method) {
    case Method::kPing:
    case Method::kServerStats:
    case Method::kDirectory:
      break;
    case Method::kWindowSum:
      req.metric = r.u32();
      req.range.begin = r.i64();
      req.range.end = r.i64();
      req.window = r.i64();
      break;
    case Method::kScan: {
      const std::size_t n = r.count(4);
      req.metrics.reserve(n);
      for (std::size_t i = 0; i < n; ++i) req.metrics.push_back(r.u32());
      req.range.begin = r.i64();
      req.range.end = r.i64();
      break;
    }
    case Method::kClusterSum:
    case Method::kPueRollup:
    case Method::kNodeMeans: {
      const std::size_t n = r.count(4);
      req.nodes.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        req.nodes.push_back(static_cast<machine::NodeId>(r.u32()));
      }
      req.channel = static_cast<int>(r.u32());
      req.range.begin = r.i64();
      req.range.end = r.i64();
      req.window = r.i64();
      break;
    }
    case Method::kSubscribe:
      req.subscribe_mask = r.u8();
      break;
    case Method::kScenario:
    case Method::kScenarioSweep: {
      const std::size_t n = r.count(4);
      req.nodes.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        req.nodes.push_back(static_cast<machine::NodeId>(r.u32()));
      }
      req.range.begin = r.i64();
      req.range.end = r.i64();
      req.window = r.i64();
      req.subscribe_mask = r.u8();
      // 32 = the fixed bytes of one spec (see write_spec) — bounds the
      // allocation.
      const std::size_t n_specs = r.count(32);
      req.scenarios.reserve(n_specs);
      for (std::size_t i = 0; i < n_specs; ++i) {
        req.scenarios.push_back(read_spec(r));
      }
      break;
    }
    case Method::kScanBlocks:
      throw WireError("scan_blocks is response-only (request as kScan)");
  }
  if (!r.done()) throw WireError("trailing bytes after request");
  return req;
}

std::vector<std::uint8_t> encode_response(const Response& resp) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(resp.status));
  w.u8(static_cast<std::uint8_t>(resp.method));
  if (resp.status != Status::kOk) {
    w.str(resp.message);
    w.u64(resp.shed_cost_hint_us);
    return w.take();
  }
  switch (resp.method) {
    case Method::kPing:
      break;
    case Method::kWindowSum:
      w.i64(resp.window_sum.start);
      w.i64(resp.window_sum.window);
      w.doubles(resp.window_sum.sum);
      w.u64(resp.window_sum.count.size());
      for (const std::uint64_t c : resp.window_sum.count) w.u64(c);
      write_stats(w, resp.stats);
      break;
    case Method::kScan:
    case Method::kNodeMeans:
      w.u64(resp.runs.size());
      for (const store::MetricRun& run : resp.runs) {
        w.u32(run.id);
        w.u64(run.samples.size());
        for (const ts::Sample& s : run.samples) {
          w.i64(s.t);
          w.f64(s.value);
        }
      }
      write_stats(w, resp.stats);
      break;
    case Method::kClusterSum:
      write_series(w, resp.series);
      w.doubles(resp.counts);
      write_stats(w, resp.stats);
      break;
    case Method::kPueRollup:
      write_series(w, resp.series);
      write_series(w, resp.pue);
      write_stats(w, resp.stats);
      break;
    case Method::kSubscribe:
      // The OK response just acknowledges the subscription; ticks follow
      // as separate frames with the same request id.
      break;
    case Method::kServerStats:
      w.u64(resp.server.counters.size());
      for (const ServerStatsWire::Counter& c : resp.server.counters) {
        w.str(c.name);
        w.f64(c.value);
      }
      break;
    case Method::kDirectory:
      w.u64(resp.directory.total_events);
      w.u64(resp.directory.buffered_events);
      w.i64(resp.directory.bounds.begin);
      w.i64(resp.directory.bounds.end);
      w.u64(resp.directory.segments.size());
      for (const store::SegmentMeta& s : resp.directory.segments) {
        w.str(s.file);
        w.i64(s.day);
        w.u64(s.events);
        w.u64(s.bytes);
        w.i64(s.t_min);
        w.i64(s.t_max);
      }
      break;
    case Method::kScenario:
      write_series(w, resp.series);
      write_series(w, resp.pue);
      write_series(w, resp.baseline_power);
      write_series(w, resp.baseline_pue);
      w.u64(resp.scenarios.size());
      for (const scenario::ScenarioSummary& s : resp.scenarios) {
        write_summary(w, s);
      }
      write_stats(w, resp.stats);
      break;
    case Method::kScenarioSweep:
      // Summaries only: a sweep's full series fan back as kVariantWindow
      // ticks when the client asked for them, not as an N-fold response.
      w.u64(resp.scenarios.size());
      for (const scenario::ScenarioSummary& s : resp.scenarios) {
        write_summary(w, s);
      }
      write_stats(w, resp.stats);
      break;
    case Method::kScanBlocks:
      // Materialized fallback (roundtrip tests, abort paths): each run
      // travels as one loose-sample batch. Byte-compatible with the
      // streamed form, which mixes raw block pieces in.
      w.u64(resp.runs.size());
      for (const store::MetricRun& run : resp.runs) {
        w.u32(run.id);
        w.u8(0);
        w.u64(run.samples.size());
        for (const ts::Sample& s : run.samples) {
          w.i64(s.t);
          w.f64(s.value);
        }
        w.u8(2);
      }
      write_stats(w, resp.stats);
      break;
  }
  return w.take();
}

Response decode_response(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  Response resp;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(Status::kUnavailable)) {
    throw WireError("unknown status " + std::to_string(int{status}));
  }
  resp.status = static_cast<Status>(status);
  resp.method = read_method(r);
  if (resp.status != Status::kOk) {
    resp.message = r.str();
    resp.shed_cost_hint_us = r.u64();
    if (!r.done()) throw WireError("trailing bytes after error response");
    return resp;
  }
  switch (resp.method) {
    case Method::kPing:
      break;
    case Method::kWindowSum: {
      resp.window_sum.start = r.i64();
      resp.window_sum.window = r.i64();
      resp.window_sum.sum = r.doubles();
      const std::size_t n = r.count(8);
      resp.window_sum.count.reserve(n);
      for (std::size_t i = 0; i < n; ++i) resp.window_sum.count.push_back(r.u64());
      if (resp.window_sum.count.size() != resp.window_sum.sum.size()) {
        throw WireError("window_sum sum/count length mismatch");
      }
      resp.stats = read_stats(r);
      break;
    }
    case Method::kScan:
    case Method::kNodeMeans: {
      const std::size_t n_runs = r.count(12);
      resp.runs.reserve(n_runs);
      for (std::size_t i = 0; i < n_runs; ++i) {
        store::MetricRun run;
        run.id = r.u32();
        const std::size_t n = r.count(16);
        run.samples.reserve(n);
        for (std::size_t j = 0; j < n; ++j) {
          ts::Sample s;
          s.t = r.i64();
          s.value = r.f64();
          run.samples.push_back(s);
        }
        resp.runs.push_back(std::move(run));
      }
      resp.stats = read_stats(r);
      break;
    }
    case Method::kClusterSum:
      resp.series = read_series(r);
      resp.counts = r.doubles();
      resp.stats = read_stats(r);
      break;
    case Method::kPueRollup:
      resp.series = read_series(r);
      resp.pue = read_series(r);
      resp.stats = read_stats(r);
      break;
    case Method::kSubscribe:
      break;
    case Method::kServerStats: {
      // 12 = the fixed bytes of one counter (4-byte name length + value).
      const std::size_t n = r.count(12);
      resp.server.counters.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        ServerStatsWire::Counter c;
        c.name = r.str();
        // Printable names only: they go straight to operators' terminals,
        // and the zero-heavy bytes of any other layout never pass.
        if (c.name.empty() ||
            std::any_of(c.name.begin(), c.name.end(),
                        [](char ch) { return ch <= ' ' || ch > '~'; })) {
          throw WireError("server stats: malformed counter name");
        }
        c.value = r.f64();
        resp.server.counters.push_back(std::move(c));
      }
      break;
    }
    case Method::kDirectory: {
      resp.directory.total_events = r.u64();
      resp.directory.buffered_events = r.u64();
      resp.directory.bounds.begin = r.i64();
      resp.directory.bounds.end = r.i64();
      // 44 = the fixed bytes of one entry (4-byte name length + 5 ints);
      // a hostile count can never size an allocation past the payload.
      const std::size_t n = r.count(44);
      resp.directory.segments.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        store::SegmentMeta s;
        s.file = r.str();
        s.day = r.i64();
        s.events = r.u64();
        s.bytes = r.u64();
        s.t_min = r.i64();
        s.t_max = r.i64();
        resp.directory.segments.push_back(std::move(s));
      }
      break;
    }
    case Method::kScenario: {
      resp.series = read_series(r);
      resp.pue = read_series(r);
      resp.baseline_power = read_series(r);
      resp.baseline_pue = read_series(r);
      // 76 = fixed bytes of one summary (4-byte name length + the window
      // count + 8 doubles).
      const std::size_t n = r.count(76);
      resp.scenarios.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        resp.scenarios.push_back(read_summary(r));
      }
      resp.stats = read_stats(r);
      break;
    }
    case Method::kScenarioSweep: {
      const std::size_t n = r.count(76);
      resp.scenarios.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        resp.scenarios.push_back(read_summary(r));
      }
      resp.stats = read_stats(r);
      break;
    }
    case Method::kScanBlocks: {
      // Block-form scan: decode raw codec blocks right here so callers
      // see the same MetricRuns a kScan response carries. Per-run
      // re-sort with sample_less reproduces the kScan byte order —
      // the sorted run is a pure function of the sample multiset.
      const std::size_t n_runs = r.count(5);  // u32 id + end marker
      resp.runs.reserve(n_runs);
      for (std::size_t i = 0; i < n_runs; ++i) {
        store::MetricRun run;
        run.id = r.u32();
        for (;;) {
          const std::uint8_t piece = r.u8();
          if (piece == 2) break;
          if (piece == 0) {
            const std::size_t n = r.count(16);
            run.samples.reserve(run.samples.size() + n);
            for (std::size_t j = 0; j < n; ++j) {
              ts::Sample s;
              s.t = r.i64();
              s.value = r.f64();
              run.samples.push_back(s);
            }
            continue;
          }
          if (piece != 1) throw WireError("scan_blocks: unknown piece tag");
          const std::uint32_t n_bytes = r.u32();
          const std::uint32_t n_events = r.u32();
          const std::span<const std::uint8_t> raw = r.bytes(n_bytes);
          const std::size_t before = run.samples.size();
          std::size_t total = 0;
          try {
            total = telemetry::decode_filter_into(
                telemetry::EncodedView{raw, n_events}, run.id,
                {std::numeric_limits<util::TimeSec>::min(),
                 std::numeric_limits<util::TimeSec>::max()},
                run.samples);
          } catch (const util::CheckError& e) {
            throw WireError(std::string("scan_blocks: damaged block: ") +
                            e.what());
          }
          // A whole block belongs to one metric and ships uncut, so the
          // decode must account for every declared event.
          if (total != n_events ||
              run.samples.size() - before != n_events) {
            throw WireError("scan_blocks: block event count mismatch");
          }
        }
        std::sort(run.samples.begin(), run.samples.end(),
                  store::sample_less);
        resp.runs.push_back(std::move(run));
      }
      resp.stats = read_stats(r);
      break;
    }
  }
  if (!r.done()) throw WireError("trailing bytes after response");
  return resp;
}

void scan_stream_begin(std::size_t n_runs, std::vector<std::uint8_t>* out) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u8(static_cast<std::uint8_t>(Method::kScan));
  w.u64(n_runs);
  const auto bytes = w.take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

void scan_stream_run(const store::MetricRun& run,
                     std::vector<std::uint8_t>* out) {
  Writer w;
  w.u32(run.id);
  w.u64(run.samples.size());
  for (const ts::Sample& s : run.samples) {
    w.i64(s.t);
    w.f64(s.value);
  }
  const auto bytes = w.take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

void scan_stream_end(const store::QueryStats& stats,
                     std::vector<std::uint8_t>* out) {
  Writer w;
  write_stats(w, stats);
  const auto bytes = w.take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

void scan_blocks_begin(std::size_t n_runs, std::vector<std::uint8_t>* out) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u8(static_cast<std::uint8_t>(Method::kScanBlocks));
  w.u64(n_runs);
  const auto bytes = w.take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

void scan_blocks_run_begin(telemetry::MetricId id,
                           std::vector<std::uint8_t>* out) {
  Writer w;
  w.u32(id);
  const auto bytes = w.take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

void scan_blocks_block_header(std::uint32_t n_bytes, std::uint32_t n_events,
                              std::vector<std::uint8_t>* out) {
  Writer w;
  w.u8(1);  // piece: raw encoded block (bytes follow, written separately)
  w.u32(n_bytes);
  w.u32(n_events);
  const auto bytes = w.take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

void scan_blocks_samples(std::span<const ts::Sample> samples,
                         std::vector<std::uint8_t>* out) {
  Writer w;
  w.u8(0);  // piece: loose time-sorted samples
  w.u64(samples.size());
  for (const ts::Sample& s : samples) {
    w.i64(s.t);
    w.f64(s.value);
  }
  const auto bytes = w.take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

void scan_blocks_run_end(std::vector<std::uint8_t>* out) {
  out->push_back(2);  // piece: end of run
}

void scan_blocks_end(const store::QueryStats& stats,
                     std::vector<std::uint8_t>* out) {
  Writer w;
  write_stats(w, stats);
  const auto bytes = w.take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> encode_tick(const Tick& tick) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(tick.kind));
  switch (tick.kind) {
    case TickKind::kWindow:
      w.u64(tick.index);
      w.i64(tick.t);
      w.f64(tick.power_w);
      w.f64(tick.pue);
      w.f64(tick.nodes_reporting);
      break;
    case TickKind::kAlert:
      w.u8(static_cast<std::uint8_t>(tick.alert.kind));
      w.u8(tick.alert.raised ? 1 : 0);
      w.i64(tick.alert.t);
      w.i64(tick.alert.node);
      w.f64(tick.alert.value);
      break;
    case TickKind::kEnd:
      break;
    case TickKind::kVariantWindow:
      w.u32(tick.variant);
      w.u64(tick.index);
      w.i64(tick.t);
      w.f64(tick.power_w);
      w.f64(tick.pue);
      w.f64(tick.nodes_reporting);
      break;
  }
  return w.take();
}

Tick decode_tick(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  Tick tick;
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case static_cast<std::uint8_t>(TickKind::kWindow):
      tick.kind = TickKind::kWindow;
      tick.index = r.u64();
      tick.t = r.i64();
      tick.power_w = r.f64();
      tick.pue = r.f64();
      tick.nodes_reporting = r.f64();
      break;
    case static_cast<std::uint8_t>(TickKind::kAlert): {
      tick.kind = TickKind::kAlert;
      const std::uint8_t akind = r.u8();
      if (akind > static_cast<std::uint8_t>(stream::AlertKind::kIngestDrops)) {
        throw WireError("unknown alert kind");
      }
      tick.alert.kind = static_cast<stream::AlertKind>(akind);
      tick.alert.raised = r.u8() != 0;
      tick.alert.t = r.i64();
      tick.alert.node = static_cast<machine::NodeId>(r.i64());
      tick.alert.value = r.f64();
      break;
    }
    case static_cast<std::uint8_t>(TickKind::kEnd):
      tick.kind = TickKind::kEnd;
      break;
    case static_cast<std::uint8_t>(TickKind::kVariantWindow):
      tick.kind = TickKind::kVariantWindow;
      tick.variant = r.u32();
      tick.index = r.u64();
      tick.t = r.i64();
      tick.power_w = r.f64();
      tick.pue = r.f64();
      tick.nodes_reporting = r.f64();
      break;
    default:
      throw WireError("unknown tick kind");
  }
  if (!r.done()) throw WireError("trailing bytes after tick");
  return tick;
}

std::uint64_t response_event_volume(const Response& resp) {
  if (resp.status != Status::kOk) return 0;
  std::uint64_t volume = 0;
  for (const std::uint64_t c : resp.window_sum.count) volume += c;
  for (const store::MetricRun& run : resp.runs) volume += run.samples.size();
  volume += resp.series.size();
  volume += resp.pue.size();
  volume += resp.baseline_power.size();
  volume += resp.baseline_pue.size();
  for (const scenario::ScenarioSummary& s : resp.scenarios) {
    // A sweep response carries aggregates; the replayed windows behind
    // them are its read volume (two legs: baseline + variant).
    if (resp.method == Method::kScenarioSweep) volume += 2 * s.windows;
  }
  return volume;
}

}  // namespace exawatt::server::wire
