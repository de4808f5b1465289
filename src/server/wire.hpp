#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "machine/topology.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "stream/alerts.hpp"
#include "ts/series.hpp"

namespace exawatt::server::wire {

/// Malformed request/response payload inside a structurally valid frame.
/// Unlike a framing fault this is NOT connection-fatal on the server: the
/// stream is still in sync, so the offender gets INVALID_ARGUMENT back
/// and the connection lives on.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Query methods of the service (payload byte 0 of a request frame).
enum class Method : std::uint8_t {
  kPing = 0,        ///< liveness / RTT probe; echoes an empty OK
  kWindowSum = 1,   ///< Store::window_sum of one metric
  kScan = 2,        ///< metric-range scan (Store::query_many)
  kClusterSum = 3,  ///< store::cluster_sum power roll-up across nodes
  kPueRollup = 4,   ///< streaming replay: cluster power + facility PUE
  kSubscribe = 5,   ///< stream of coarse ticks / alerts (Tick frames)
  kServerStats = 6, ///< server-side metrics counters snapshot
  kDirectory = 7,   ///< sealed-segment directory (cluster query planning)
  kScenario = 8,       ///< counterfactual replay of one ScenarioSpec
  kScenarioSweep = 9,  ///< N-variant scenario fan-out (summaries back)
  /// Response-only: a kScan answered in block form. Runs arrive as raw
  /// still-encoded codec blocks (sliced zero-copy from mapped segments
  /// server-side) plus loose boundary samples; the client decodes and
  /// re-sorts into the identical MetricRuns a kScan would carry. Asked
  /// for by `Request::want_scan_blocks` on a chunked kScan; a kScan the
  /// server does not answer in block form comes back as classic kScan,
  /// so the decoder accepts either method back.
  kScanBlocks = 10,
  /// Shard-internal leg of a clustered kClusterSum. The request has
  /// kClusterSum's layout; the answer has kScan's run encoding, one run
  /// per requested node (id `metric_id(node, channel)`, request order)
  /// whose samples are (window start, mean) for every window where the
  /// node's coarsened series holds data — all `store::reduce_cluster_sum`
  /// reads of a node. A coordinator serving as a shard answers it
  /// UNIMPLEMENTED, and its parent asks it for raw runs instead.
  kNodeMeans = 11,
};

/// A sweep request is bounded so one frame cannot demand unbounded
/// server CPU; the executor rejects larger fan-outs with
/// INVALID_ARGUMENT (split the sweep client-side instead).
inline constexpr std::size_t kMaxSweepVariants = 64;

[[nodiscard]] const char* method_name(Method m);

enum class Status : std::uint8_t {
  kOk = 0,
  kResourceExhausted = 1,  ///< admission queue full — explicit shed
  kDeadlineExceeded = 2,   ///< expired before execution finished/started
  kCancelled = 3,          ///< client disconnected while queued/running
  kInvalidArgument = 4,    ///< malformed or out-of-contract request
  kUnimplemented = 5,      ///< method not served by this endpoint
  kInternal = 6,           ///< execution threw
  kUnavailable = 7,        ///< server is draining for shutdown
};

[[nodiscard]] const char* status_name(Status s);

/// One decoded request. A tagged union flattened into optional fields —
/// `method` says which ones are meaningful (mirrors the encoders below).
struct Request {
  Method method = Method::kPing;
  /// Relative deadline; 0 = none. The server stamps an absolute deadline
  /// at admission and refuses to *start* expired work.
  std::uint32_t deadline_ms = 0;

  telemetry::MetricId metric = 0;              // kWindowSum
  std::vector<telemetry::MetricId> metrics;    // kScan
  std::vector<machine::NodeId> nodes;          // kClusterSum / kPueRollup /
                                               // kNodeMeans
  int channel = 0;                             // kClusterSum / kNodeMeans
  util::TimeRange range{0, 0};
  util::TimeSec window = 10;

  /// kSubscribe: bitmask of TickKind values the client wants. Also
  /// honored by kScenarioSweep: set the kWindow bit to stream every
  /// variant's closed windows as kVariantWindow ticks ahead of the
  /// summary response (plain call()ers leave it 0 on sweeps).
  std::uint8_t subscribe_mask = 0x3;

  /// kScenario (exactly one) / kScenarioSweep (1..kMaxSweepVariants).
  std::vector<scenario::ScenarioSpec> scenarios;

  // The per-call options below travel in every request's fixed header.

  /// Nonzero opts this request into chunked streaming responses: the
  /// server may answer with kChunk/kFinal continuation frames of about
  /// this payload size instead of one materialized response.
  std::uint32_t chunk_bytes = 0;

  /// On a chunked kScan, asks the server to answer in kScanBlocks form
  /// (raw encoded blocks instead of decoded samples — the zero-copy
  /// scan-to-wire path). Meaningful only together with `chunk_bytes`.
  bool want_scan_blocks = false;

  /// QoS priority class: 0 interactive, 1 normal, 2 batch (the service
  /// demotes any other value to batch — a tier it does not know must
  /// never jump the interactive lane).
  std::uint32_t qos_class = 1;

  /// Tenant id for per-tenant fair queueing inside a class; 0 (the
  /// default) is the anonymous tenant.
  std::uint32_t tenant = 0;
};

/// Server-side health counters (kServerStats response payload): one
/// ordered list of named values, each appended by its producer (service,
/// Server, coordinator), so adding a metric is one `add` line. Names are
/// dotted `group.counter` (DESIGN.md §10 lists them); a name the peer did
/// not send reads as absent.
struct ServerStatsWire {
  struct Counter {
    std::string name;
    double value = 0.0;
  };
  std::vector<Counter> counters;

  void add(std::string name, double value) {
    counters.push_back({std::move(name), value});
  }
  /// The value sent under `name`; nullopt when the peer sent none.
  [[nodiscard]] std::optional<double> get(std::string_view name) const;
};

/// The counters as text, one line per run of counters sharing a group
/// (`group: counter value, ...`), in the order they were added.
[[nodiscard]] std::string format_server_stats(const ServerStatsWire& stats);

/// kDirectory response payload: the store's sealed-segment directory
/// plus its live totals — everything a coordinator needs to plan a
/// scatter query (time-range pruning) and to account a dead shard's
/// overlap as `lost_segments` instead of guessing.
struct DirectoryWire {
  std::uint64_t total_events = 0;
  std::uint64_t buffered_events = 0;
  util::TimeRange bounds{0, 0};
  std::vector<store::SegmentMeta> segments;
};

/// One decoded response. `status != kOk` carries only `message`. The
/// method is echoed in the payload so the decoder knows which fields
/// follow without out-of-band context.
struct Response {
  Status status = Status::kOk;
  Method method = Method::kPing;
  std::string message;

  /// On a QoS shed (RESOURCE_EXHAUSTED), the refused request's estimated
  /// cost in microseconds — the client-side hint for backoff/splitting.
  /// Every error response carries it as a u64 after the message (0 when
  /// the error is not a shed).
  std::uint64_t shed_cost_hint_us = 0;

  store::WindowSum window_sum;          // kWindowSum
  std::vector<store::MetricRun> runs;   // kScan / kNodeMeans
  ts::Series series;                    // kClusterSum / kPueRollup power
                                        // (kScenario: variant power)
  std::vector<double> counts;           // kClusterSum contributing nodes
  ts::Series pue;                       // kPueRollup / kScenario variant
  store::QueryStats stats;              // loss/cache accounting, kOk reads
  ServerStatsWire server;               // kServerStats
  DirectoryWire directory;              // kDirectory
  ts::Series baseline_power;            // kScenario un-intervened legs
  ts::Series baseline_pue;
  /// kScenario (one entry) / kScenarioSweep (one per requested variant,
  /// in request order — full series travel only for single scenarios).
  std::vector<scenario::ScenarioSummary> scenarios;
};

enum class TickKind : std::uint8_t {
  kWindow = 1,  ///< one closed cluster roll-up window
  kAlert = 2,   ///< one alert engine transition
  kEnd = 4,     ///< subscription finished (replay reached range end)
  /// One closed window of one sweep variant (kScenarioSweep streaming;
  /// `variant` says which). Sent only when the sweep's `subscribe_mask`
  /// asked for window ticks.
  kVariantWindow = 8,
};

/// One subscription push (payload of a Tick frame).
struct Tick {
  TickKind kind = TickKind::kWindow;
  // kWindow / kVariantWindow
  std::uint64_t index = 0;
  util::TimeSec t = 0;
  double power_w = 0.0;
  double pue = 0.0;
  double nodes_reporting = 0.0;
  std::uint32_t variant = 0;  ///< kVariantWindow: index into the sweep
  // kAlert
  stream::Alert alert;
};

[[nodiscard]] std::vector<std::uint8_t> encode_request(const Request& req);
/// Throws WireError on malformed/truncated payload or absurd counts.
[[nodiscard]] Request decode_request(std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_response(const Response& resp);
[[nodiscard]] Response decode_response(std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_tick(const Tick& tick);
[[nodiscard]] Tick decode_tick(std::span<const std::uint8_t> payload);

/// Chunked-scan streaming encoders. A streamed kScan response is built
/// as begin (status, method, run count), one `run` block per metric in
/// request order, and end (the QueryStats tail); the concatenation is
/// byte-identical to `encode_response` of the materialized response —
/// bit-parity by construction, so the client-side reassembler needs no
/// streaming-aware decoder. All three append to `*out`.
void scan_stream_begin(std::size_t n_runs, std::vector<std::uint8_t>* out);
void scan_stream_run(const store::MetricRun& run,
                     std::vector<std::uint8_t>* out);
void scan_stream_end(const store::QueryStats& stats,
                     std::vector<std::uint8_t>* out);

/// Block-form streaming encoders (a kScanBlocks response). Layout after
/// the (status, method, run count) header: per run, a u32 metric id then
/// tagged pieces — 0 = one time-sorted loose-sample batch, 1 = one raw
/// encoded block (u32 byte count + u32 event count, bytes follow), 2 =
/// end of run — then the QueryStats tail. `scan_blocks_block_header`
/// writes only the 9-byte piece header: the executor hands the block
/// bytes themselves straight to the ChunkWriter, which forwards whole
/// chunks without copying them through a response buffer.
void scan_blocks_begin(std::size_t n_runs, std::vector<std::uint8_t>* out);
void scan_blocks_run_begin(telemetry::MetricId id,
                           std::vector<std::uint8_t>* out);
void scan_blocks_block_header(std::uint32_t n_bytes, std::uint32_t n_events,
                              std::vector<std::uint8_t>* out);
void scan_blocks_samples(std::span<const ts::Sample> samples,
                         std::vector<std::uint8_t>* out);
void scan_blocks_run_end(std::vector<std::uint8_t>* out);
void scan_blocks_end(const store::QueryStats& stats,
                     std::vector<std::uint8_t>* out);

/// Sum of events carried by a response (scan sample counts / window_sum
/// event counts / roll-up windows) — the loadgen's "read volume" unit.
[[nodiscard]] std::uint64_t response_event_volume(const Response& resp);

}  // namespace exawatt::server::wire
