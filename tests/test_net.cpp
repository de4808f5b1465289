// src/net + src/server: adversarial framing, wire-codec round-trips,
// deadline-aware admission control (deterministic via util::ManualClock),
// and loopback client/server integration. The framing tests treat the
// wire as hostile: truncated frames, oversized length claims, corrupt
// magic/version/CRC, and slow-loris byte-at-a-time delivery must all be
// survived — rejected with a typed error or simply waited out, never a
// crash (CI runs this suite under ASan/UBSan).

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "e2e_rig.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "server/chunk.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "server/wire.hpp"
#include "store/store.hpp"
#include "stream/replay.hpp"
#include "telemetry/codec.hpp"
#include "util/check.hpp"
#include "util/sim_time.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace exawatt;
namespace fs = std::filesystem;

// --- framing -------------------------------------------------------------

std::vector<std::uint8_t> payload_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Frame, RoundTripsThroughDecoder) {
  const auto bytes = net::encode_frame(net::FrameType::kResponse, 42,
                                       payload_of("hello wire"));
  net::FrameDecoder decoder;
  decoder.feed(bytes);
  net::Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, net::FrameType::kResponse);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, payload_of("hello wire"));
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(Frame, EmptyPayloadAndBackToBackFrames) {
  auto bytes = net::encode_frame(net::FrameType::kGoodbye, 1, {});
  const auto second =
      net::encode_frame(net::FrameType::kTick, 2, payload_of("x"));
  bytes.insert(bytes.end(), second.begin(), second.end());
  net::FrameDecoder decoder;
  decoder.feed(bytes);
  net::Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, net::FrameType::kGoodbye);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, net::FrameType::kTick);
  EXPECT_EQ(frame.request_id, 2u);
}

TEST(Frame, SlowLorisByteAtATimeStillDecodes) {
  const auto bytes = net::encode_frame(net::FrameType::kRequest, 7,
                                       payload_of("one byte at a time"));
  net::FrameDecoder decoder;
  net::Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed({&bytes[i], 1});
    EXPECT_FALSE(decoder.next(frame)) << "frame complete too early at " << i;
  }
  decoder.feed({&bytes[bytes.size() - 1], 1});
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.payload, payload_of("one byte at a time"));
}

TEST(Frame, TruncatedFrameNeverSurfaces) {
  const auto bytes =
      net::encode_frame(net::FrameType::kRequest, 9, payload_of("cut off"));
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    net::FrameDecoder decoder;
    decoder.feed({bytes.data(), keep});
    net::Frame frame;
    EXPECT_FALSE(decoder.next(frame)) << "incomplete prefix of " << keep;
    EXPECT_LE(decoder.buffered_bytes(), keep);
  }
}

void expect_fault(std::vector<std::uint8_t> bytes, net::FrameFault fault) {
  net::FrameDecoder decoder;
  try {
    decoder.feed(bytes);
    FAIL() << "corrupt frame accepted";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), fault) << e.what();
  }
  // Poisoned: even a pristine frame is refused afterwards (the stream
  // cannot be resynchronized, so reuse is a programming error).
  const auto clean = net::encode_frame(net::FrameType::kRequest, 1, {});
  EXPECT_THROW(decoder.feed(clean), util::CheckError);
}

TEST(Frame, RejectsBadMagic) {
  auto bytes = net::encode_frame(net::FrameType::kRequest, 3, {});
  bytes[0] = 'H';  // "HXWN" — say, an HTTP client dialled the wrong port
  expect_fault(std::move(bytes), net::FrameFault::kBadMagic);
}

TEST(Frame, RejectsBadVersion) {
  auto bytes = net::encode_frame(net::FrameType::kRequest, 3, {});
  bytes[4] = 99;
  expect_fault(std::move(bytes), net::FrameFault::kBadVersion);
}

TEST(Frame, RejectsBadType) {
  auto bytes = net::encode_frame(net::FrameType::kRequest, 3, {});
  bytes[5] = 0;
  expect_fault(bytes, net::FrameFault::kBadType);
  bytes[5] = 250;
  expect_fault(std::move(bytes), net::FrameFault::kBadType);
}

TEST(Frame, RejectsReservedBits) {
  // Bits 3..15 of the flags word are still reserved; the low three are
  // the chunk flags, legal only on responses.
  auto bytes = net::encode_frame(net::FrameType::kRequest, 3, {});
  bytes[7] = 1;  // bit 8: undefined
  expect_fault(std::move(bytes), net::FrameFault::kBadReserved);
}

TEST(Frame, RejectsChunkFlagsOffResponses) {
  // A chunk flag on anything but a kResponse is a protocol violation:
  // requests and ticks never stream.
  auto bytes = net::encode_frame(net::FrameType::kRequest, 3, {});
  bytes[6] = 1;  // kFrameFlagChunk on a request
  expect_fault(std::move(bytes), net::FrameFault::kBadChunkFlags);

  // More than one of {chunk, final, abort} at once is also malformed,
  // even on a response.
  auto multi = net::encode_frame(net::FrameType::kResponse, 3, {});
  multi[6] = 3;  // chunk|final
  expect_fault(std::move(multi), net::FrameFault::kBadChunkFlags);
}

TEST(Frame, RejectsOversizedLengthFromHeaderAlone) {
  // A hostile 4 GB length claim must be rejected from the 24 header
  // bytes, before any buffer is sized from it.
  auto bytes = net::encode_frame(net::FrameType::kRequest, 3, {});
  bytes[16] = bytes[17] = bytes[18] = bytes[19] = 0xff;
  bytes.resize(net::kFrameHeaderBytes);  // no payload follows — irrelevant
  expect_fault(std::move(bytes), net::FrameFault::kOversized);
}

TEST(Frame, RejectsCorruptPayloadCrc) {
  auto bytes = net::encode_frame(net::FrameType::kRequest, 3,
                                 payload_of("checksummed"));
  bytes.back() ^= 0x01;  // flip one payload bit
  expect_fault(std::move(bytes), net::FrameFault::kBadCrc);
}

// --- wire codec ----------------------------------------------------------

TEST(Wire, RequestRoundTripsEveryMethod) {
  server::wire::Request req;
  req.method = server::wire::Method::kClusterSum;
  req.deadline_ms = 250;
  req.nodes = {0, 3, 7};
  req.channel = 12;
  req.range = {100, 700};
  req.window = 10;
  const auto back = server::wire::decode_request(server::wire::encode_request(req));
  EXPECT_EQ(back.method, req.method);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.nodes, req.nodes);
  EXPECT_EQ(back.channel, req.channel);
  EXPECT_EQ(back.range.begin, req.range.begin);
  EXPECT_EQ(back.range.end, req.range.end);
  EXPECT_EQ(back.window, req.window);

  server::wire::Request scan;
  scan.method = server::wire::Method::kScan;
  scan.metrics = {5, 6, 1000000};
  scan.range = {0, 60};
  const auto scan_back =
      server::wire::decode_request(server::wire::encode_request(scan));
  EXPECT_EQ(scan_back.metrics, scan.metrics);

  server::wire::Request sub;
  sub.method = server::wire::Method::kSubscribe;
  sub.nodes = {1, 2};
  sub.subscribe_mask = 0x7;
  const auto sub_back =
      server::wire::decode_request(server::wire::encode_request(sub));
  EXPECT_EQ(sub_back.subscribe_mask, 0x7);
}

TEST(Wire, ResponseRoundTripsBitIdentically) {
  server::wire::Response resp;
  resp.method = server::wire::Method::kScan;
  resp.runs.resize(2);
  resp.runs[0].id = 11;
  resp.runs[0].samples = {{0, 1.5}, {1, -2.25}, {2, 1e-300}};
  resp.runs[1].id = 12;
  resp.runs[1].samples = {{5, 42.0}};
  resp.stats.lost_segments = 1;
  resp.stats.cache_hits = 9;
  const auto back =
      server::wire::decode_response(server::wire::encode_response(resp));
  ASSERT_EQ(back.runs.size(), 2u);
  EXPECT_EQ(back.runs[0].id, 11u);
  ASSERT_EQ(back.runs[0].samples.size(), 3u);
  // Doubles cross the wire as raw bits: exact equality is the contract.
  EXPECT_EQ(back.runs[0].samples[2].value, 1e-300);
  EXPECT_EQ(back.stats.lost_segments, 1u);
  EXPECT_EQ(back.stats.cache_hits, 9u);

  server::wire::Response err;
  err.status = server::wire::Status::kResourceExhausted;
  err.method = server::wire::Method::kPing;
  err.message = "admission queue full (256)";
  err.shed_cost_hint_us = 1234;
  const auto err_back =
      server::wire::decode_response(server::wire::encode_response(err));
  EXPECT_EQ(err_back.status, server::wire::Status::kResourceExhausted);
  EXPECT_EQ(err_back.message, err.message);
  EXPECT_EQ(err_back.shed_cost_hint_us, 1234u);
}

TEST(Wire, ServerStatsRoundTripsItsNamedCounters) {
  server::wire::Response resp;
  resp.method = server::wire::Method::kServerStats;
  resp.server.add("service.accepted", 10);
  resp.server.add("service.p99_ms", 1.5);
  resp.server.add("qos.batch.shed", 3);
  resp.server.add("stream.peak_buffered_bytes", 4194304);
  const auto back =
      server::wire::decode_response(server::wire::encode_response(resp));
  ASSERT_EQ(back.server.counters.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.server.counters[i].name, resp.server.counters[i].name);
    EXPECT_EQ(back.server.counters[i].value, resp.server.counters[i].value);
  }
  EXPECT_EQ(back.server.get("service.p99_ms"), 1.5);
  EXPECT_EQ(back.server.get("qos.batch.shed"), 3.0);
  // A counter the peer did not send reads as absent, not as zero.
  EXPECT_FALSE(back.server.get("upstream.shards").has_value());

  // A newer peer's counter this build has never heard of decodes like
  // any other, is ignored by readers and printed by the formatter.
  resp.server.add("future.widgets", 7);
  const auto newer =
      server::wire::decode_response(server::wire::encode_response(resp));
  EXPECT_EQ(newer.server.get("service.accepted"), 10.0);
  EXPECT_EQ(newer.server.get("future.widgets"), 7.0);
  EXPECT_EQ(server::wire::format_server_stats(newer.server),
            "service: accepted 10, p99_ms 1.5\n"
            "qos.batch: shed 3\n"
            "stream: peak_buffered_bytes 4194304\n"
            "future: widgets 7\n");

  // The positional layout of earlier builds (8 u64 counters, two f64
  // latencies, a count-prefixed u64 block) is not this list: it is
  // refused as a malformed payload, never misread as counters.
  std::vector<std::uint8_t> old{0, static_cast<std::uint8_t>(
                                       server::wire::Method::kServerStats)};
  const auto put_u64 = [&old](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      old.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  for (const std::uint64_t v : {10, 9, 0, 0, 1, 0, 0, 256}) put_u64(v);
  put_u64(std::bit_cast<std::uint64_t>(0.4));
  put_u64(std::bit_cast<std::uint64_t>(1.5));
  put_u64(19);
  for (int i = 0; i < 19; ++i) put_u64(static_cast<std::uint64_t>(i));
  EXPECT_THROW((void)server::wire::decode_response(old),
               server::wire::WireError);

  // So is a name that would put control bytes on an operator's terminal.
  auto control = resp;
  control.server.add("evil\x1b[2J", 1);
  EXPECT_THROW((void)server::wire::decode_response(
                   server::wire::encode_response(control)),
               server::wire::WireError);
}

TEST(Wire, TickRoundTrips) {
  server::wire::Tick tick;
  tick.kind = server::wire::TickKind::kAlert;
  tick.t = 777;
  tick.alert.kind = stream::AlertKind::kThermal;
  tick.alert.raised = true;
  tick.alert.node = 13;
  tick.alert.value = 3.5;
  const auto back = server::wire::decode_tick(server::wire::encode_tick(tick));
  EXPECT_EQ(back.kind, server::wire::TickKind::kAlert);
  EXPECT_EQ(back.alert.kind, stream::AlertKind::kThermal);
  EXPECT_EQ(back.alert.node, 13);
  EXPECT_EQ(back.alert.value, 3.5);
}

TEST(Wire, EveryTruncationIsRejectedNotCrashed) {
  server::wire::Request req;
  req.method = server::wire::Method::kScan;
  req.metrics = {1, 2, 3, 4};
  req.range = {0, 600};
  // With every per-call option set too: they are fixed fields, so no
  // prefix that stops short of them decodes as a request without them.
  server::wire::Request tagged = req;
  tagged.chunk_bytes = 4096;
  tagged.want_scan_blocks = true;
  tagged.qos_class = 2;
  tagged.tenant = 7;
  for (const server::wire::Request& q : {req, tagged}) {
    const auto req_bytes = server::wire::encode_request(q);
    for (std::size_t keep = 0; keep < req_bytes.size(); ++keep) {
      EXPECT_THROW(
          (void)server::wire::decode_request({req_bytes.data(), keep}),
          server::wire::WireError)
          << "request prefix " << keep << " of " << req_bytes.size();
    }
  }

  server::wire::Response resp;
  resp.method = server::wire::Method::kClusterSum;
  resp.series = ts::Series(0, 10, {1.0, 2.0, 3.0});
  resp.counts = {3.0, 3.0, 2.0};
  server::wire::Response stats;
  stats.method = server::wire::Method::kServerStats;
  stats.server.add("service.accepted", 10);
  stats.server.add("qos.interactive.p99_ms", 0.25);
  for (const server::wire::Response& r : {resp, stats}) {
    const auto resp_bytes = server::wire::encode_response(r);
    for (std::size_t keep = 0; keep < resp_bytes.size(); ++keep) {
      EXPECT_THROW(
          (void)server::wire::decode_response({resp_bytes.data(), keep}),
          server::wire::WireError)
          << server::wire::method_name(r.method) << " response prefix "
          << keep;
    }
  }
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

TEST(Wire, GoldenBytesPinThePayloadLayout) {
  // The frame's version byte is the wire's only compatibility check: a
  // peer on another version is refused at its first frame, and nothing
  // above it is negotiated. So a payload layout may change only together
  // with that byte. These are version 2's bytes.
  constexpr const char* kBump =
      "payload layout changed: bump net::kProtocolVersion and update these "
      "bytes";
  EXPECT_EQ(net::kProtocolVersion, 2) << kBump;

  using server::wire::Method;
  server::wire::Request base;
  base.deadline_ms = 250;
  base.chunk_bytes = 4096;
  base.want_scan_blocks = true;
  base.qos_class = 2;
  base.tenant = 7;
  const auto request = [&base](Method m) {
    server::wire::Request req = base;
    req.method = m;
    return req;
  };
  scenario::ScenarioSpec cap;
  cap.name = "cap";
  cap.power_cap_w = 1e7;
  scenario::ScenarioSpec tuned;
  tuned.name = "t";
  tuned.force_chillers = true;
  tuned.has_weather_seed = true;
  tuned.weather_seed = 99;
  tuned.has_cooling = true;

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases;
  const auto add = [&cases](const server::wire::Request& req) {
    cases.emplace_back(std::string("request ") +
                           server::wire::method_name(req.method),
                       server::wire::encode_request(req));
  };
  add(request(Method::kPing));
  auto window_sum = request(Method::kWindowSum);
  window_sum.metric = 0x10203;
  window_sum.range = {100, 700};
  window_sum.window = 10;
  add(window_sum);
  auto scan = request(Method::kScan);
  scan.metrics = {5, 6};
  scan.range = {0, 60};
  add(scan);
  for (const Method m :
       {Method::kClusterSum, Method::kPueRollup, Method::kNodeMeans}) {
    auto roll_up = request(m);
    roll_up.nodes = {0, 3};
    roll_up.channel = 12;
    roll_up.range = {100, 700};
    roll_up.window = 10;
    add(roll_up);
  }
  auto subscribe = request(Method::kSubscribe);
  subscribe.subscribe_mask = 0x5;
  add(subscribe);
  add(request(Method::kServerStats));
  add(request(Method::kDirectory));
  for (const Method m : {Method::kScenario, Method::kScenarioSweep}) {
    auto what_if = request(m);
    what_if.nodes = {1};
    what_if.range = {0, 600};
    what_if.window = 10;
    what_if.subscribe_mask = 0x1;
    what_if.scenarios = {cap};
    if (m == Method::kScenarioSweep) what_if.scenarios.push_back(tuned);
    add(what_if);
  }

  server::wire::Response ok;
  ok.method = Method::kClusterSum;
  ok.series = ts::Series(100, 10, {1.5, -2.0});
  ok.counts = {2.0, 1.0};
  ok.stats.lost_segments = 1;
  ok.stats.cache_hits = 3;
  server::wire::Response error;
  error.status = server::wire::Status::kResourceExhausted;
  error.method = Method::kScan;
  error.message = "shed";
  error.shed_cost_hint_us = 1234;
  server::wire::Response stats;
  stats.method = Method::kServerStats;
  stats.server.add("a.b", 1.0);
  for (const auto& [what, resp] :
       {std::pair{"response ok", ok}, std::pair{"response error", error},
        std::pair{"response stats", stats}}) {
    cases.emplace_back(what, server::wire::encode_response(resp));
  }

  const std::vector<std::string> golden = {
      // request ping
      "00fa00000000100000010200000007000000",
      // request window_sum
      "01fa00000000100000010200000007000000030201006400000000000000bc02"
      "0000000000000a00000000000000",
      // request scan
      "02fa000000001000000102000000070000000200000000000000050000000600"
      "000000000000000000003c00000000000000",
      // request cluster_sum
      "03fa000000001000000102000000070000000200000000000000000000000300"
      "00000c0000006400000000000000bc020000000000000a00000000000000",
      // request pue_rollup
      "04fa000000001000000102000000070000000200000000000000000000000300"
      "00000c0000006400000000000000bc020000000000000a00000000000000",
      // request node_means
      "0bfa000000001000000102000000070000000200000000000000000000000300"
      "00000c0000006400000000000000bc020000000000000a00000000000000",
      // request subscribe
      "05fa0000000010000001020000000700000005",
      // request server_stats
      "06fa00000000100000010200000007000000",
      // request directory
      "07fa00000000100000010200000007000000",
      // request scenario
      "08fa000000001000000102000000070000000100000000000000010000000000"
      "00000000000058020000000000000a0000000000000001010000000000000003"
      "0000006361700000000000000000d01263410000000000000000000000000000"
      "0000",
      // request scenario_sweep
      "09fa000000001000000102000000070000000100000000000000010000000000"
      "00000000000058020000000000000a0000000000000001020000000000000003"
      "0000006361700000000000000000d01263410000000000000000000000000000"
      "0000010000007407000000000000000000000000000000000000006300000000"
      "0000000000000000003440000000000000084000000000000010400000000000"
      "804b400000000000406540000000000080564000000000804f22410000000000"
      "004e400000000000bd0f41b81e85eb51b89e3ffca9f1d24d62a03fe17a14ae47"
      "e1ca3f",
      // response ok (cluster_sum)
      "000364000000000000000a000000000000000200000000000000000000000000"
      "f83f00000000000000c002000000000000000000000000000040000000000000"
      "f03f010000000000000000000000000000000300000000000000000000000000"
      "0000",
      // response error (shed)
      "01020400000073686564d204000000000000",
      // response stats
      "0006010000000000000003000000612e62000000000000f03f",
  };
  ASSERT_EQ(cases.size(), golden.size()) << kBump;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(hex(cases[i].second), golden[i])
        << cases[i].first << ": " << kBump;
  }
}

TEST(Wire, HostileElementCountIsRejectedBeforeAllocation) {
  // A scan request claiming 2^31 metric ids in a 46-byte payload must be
  // rejected by the count-vs-remaining-bytes check, not attempted.
  server::wire::Request req;
  req.method = server::wire::Method::kScan;
  req.metrics = {1};
  auto bytes = server::wire::encode_request(req);
  // The metric count is the u64 right after the 18-byte request header;
  // rather than hard-code that, just splat a huge count over every
  // offset and require *some* WireError (never a bad_alloc / crash).
  for (std::size_t at = 1; at + 4 <= bytes.size(); ++at) {
    auto evil = bytes;
    evil[at] = 0xff;
    evil[at + 1] = 0xff;
    evil[at + 2] = 0xff;
    evil[at + 3] = 0x7f;
    try {
      (void)server::wire::decode_request(evil);
    } catch (const server::wire::WireError&) {
      // expected for the count offset; harmless elsewhere
    }
  }

  // A kServerStats answer declaring 2^62 counters, or one counter whose
  // name claims 4 GiB, is refused by the size checks before any vector
  // or string is sized from the claim.
  server::wire::Response stats;
  stats.method = server::wire::Method::kServerStats;
  stats.server.add("service.accepted", 10);
  const auto good = server::wire::encode_response(stats);
  auto huge_count = good;
  huge_count[2 + 7] = 0x40;  // u64 entry count after status + method
  EXPECT_THROW((void)server::wire::decode_response(huge_count),
               server::wire::WireError);
  auto huge_name = good;
  for (std::size_t i = 10; i < 14; ++i) huge_name[i] = 0xff;  // name length
  EXPECT_THROW((void)server::wire::decode_response(huge_name),
               server::wire::WireError);
}

TEST(Wire, ScenarioSweepRequestRoundTripsEveryField) {
  server::wire::Request req;
  req.method = server::wire::Method::kScenarioSweep;
  req.deadline_ms = 750;
  req.nodes = {0, 5, 9};
  req.range = {100, 700};
  req.window = 10;
  req.subscribe_mask =
      static_cast<std::uint8_t>(server::wire::TickKind::kWindow);

  scenario::ScenarioSpec cap;
  cap.name = "cap-18MW";
  cap.power_cap_w = 1.8e7;
  scenario::ScenarioSpec summer;
  summer.name = "hot-summer";
  summer.wet_bulb_offset_c = 6.5;
  summer.has_weather_seed = true;
  summer.weather_seed = 99;
  scenario::ScenarioSpec outage;
  outage.name = "feb-outage";
  outage.force_chillers = true;
  outage.has_cooling = true;
  outage.cooling.tower_approach_c = 4.25;
  outage.cooling.chiller_w_per_w = 0.31;
  outage.cooling.return_delay_s = 90;
  req.scenarios = {cap, summer, outage};

  const auto back =
      server::wire::decode_request(server::wire::encode_request(req));
  EXPECT_EQ(back.method, server::wire::Method::kScenarioSweep);
  EXPECT_EQ(back.nodes, req.nodes);
  EXPECT_EQ(back.range.begin, 100);
  EXPECT_EQ(back.range.end, 700);
  EXPECT_EQ(back.subscribe_mask,
            static_cast<std::uint8_t>(server::wire::TickKind::kWindow));
  ASSERT_EQ(back.scenarios.size(), 3u);
  EXPECT_EQ(back.scenarios[0].name, "cap-18MW");
  EXPECT_EQ(back.scenarios[0].power_cap_w, 1.8e7);
  EXPECT_FALSE(back.scenarios[0].has_cooling);
  EXPECT_EQ(back.scenarios[1].wet_bulb_offset_c, 6.5);
  EXPECT_TRUE(back.scenarios[1].has_weather_seed);
  EXPECT_EQ(back.scenarios[1].weather_seed, 99u);
  EXPECT_TRUE(back.scenarios[2].force_chillers);
  ASSERT_TRUE(back.scenarios[2].has_cooling);
  // Cooling tunables cross as raw double bits: exact equality.
  EXPECT_EQ(back.scenarios[2].cooling.tower_approach_c, 4.25);
  EXPECT_EQ(back.scenarios[2].cooling.chiller_w_per_w, 0.31);
  EXPECT_EQ(back.scenarios[2].cooling.return_delay_s, 90);
}

TEST(Wire, ScenarioSummariesAndVariantTicksRoundTrip) {
  server::wire::Response resp;
  resp.method = server::wire::Method::kScenarioSweep;
  resp.scenarios.resize(2);
  resp.scenarios[0].name = "cap-18MW";
  resp.scenarios[0].windows = 360;
  resp.scenarios[0].energy_j = 4.5e12;
  resp.scenarios[0].baseline_energy_j = 4.9e12;
  resp.scenarios[0].mean_pue = 1.12;
  resp.scenarios[0].baseline_mean_pue = 1.11;
  resp.scenarios[0].peak_power_w = 1.8e7;
  resp.scenarios[0].baseline_peak_power_w = 2.4e7;
  resp.scenarios[0].max_power_delta_w = -6.0e6;
  resp.scenarios[0].max_pue_delta = 1e-300;
  resp.scenarios[1].name = "feb-outage";
  resp.scenarios[1].windows = 360;
  resp.scenarios[1].max_pue_delta = 0.19;
  const auto back =
      server::wire::decode_response(server::wire::encode_response(resp));
  ASSERT_EQ(back.scenarios.size(), 2u);
  EXPECT_EQ(back.scenarios[0].name, "cap-18MW");
  EXPECT_EQ(back.scenarios[0].windows, 360u);
  EXPECT_EQ(back.scenarios[0].max_power_delta_w, -6.0e6);
  EXPECT_EQ(back.scenarios[0].max_pue_delta, 1e-300);
  EXPECT_EQ(back.scenarios[1].name, "feb-outage");
  EXPECT_EQ(back.scenarios[1].max_pue_delta, 0.19);

  server::wire::Tick tick;
  tick.kind = server::wire::TickKind::kVariantWindow;
  tick.index = 35;
  tick.t = 350;
  tick.power_w = 1.7e7;
  tick.pue = 1.13;
  tick.nodes_reporting = 12.0;
  tick.variant = 63;  // the last slot of a maximal sweep
  const auto tick_back =
      server::wire::decode_tick(server::wire::encode_tick(tick));
  EXPECT_EQ(tick_back.kind, server::wire::TickKind::kVariantWindow);
  EXPECT_EQ(tick_back.index, 35u);
  EXPECT_EQ(tick_back.t, 350);
  EXPECT_EQ(tick_back.power_w, 1.7e7);
  EXPECT_EQ(tick_back.pue, 1.13);
  EXPECT_EQ(tick_back.variant, 63u);
}

TEST(Wire, ScenarioTruncationsAndHostileSpecsAreRejected) {
  server::wire::Request req;
  req.method = server::wire::Method::kScenarioSweep;
  req.nodes = {1, 2};
  req.range = {0, 600};
  scenario::ScenarioSpec cap;
  cap.name = "cap";
  cap.power_cap_w = 1e7;
  scenario::ScenarioSpec tuned;
  tuned.name = "tuned";
  tuned.has_cooling = true;
  req.scenarios = {cap, tuned};
  const auto req_bytes = server::wire::encode_request(req);
  for (std::size_t keep = 0; keep < req_bytes.size(); ++keep) {
    EXPECT_THROW(
        (void)server::wire::decode_request({req_bytes.data(), keep}),
        server::wire::WireError)
        << "sweep request prefix " << keep;
  }

  server::wire::Response resp;
  resp.method = server::wire::Method::kScenarioSweep;
  resp.scenarios.resize(1);
  resp.scenarios[0].name = "cap";
  resp.scenarios[0].windows = 10;
  const auto resp_bytes = server::wire::encode_response(resp);
  for (std::size_t keep = 0; keep < resp_bytes.size(); ++keep) {
    EXPECT_THROW(
        (void)server::wire::decode_response({resp_bytes.data(), keep}),
        server::wire::WireError)
        << "sweep response prefix " << keep;
  }

  // A spec whose cooling-override flag is set but which carries no
  // tunables is truncated, not zero-filled: find the flags byte (the
  // only byte force_chillers toggles) and set the has_cooling bit on an
  // encoding that carried no tunables.
  server::wire::Request plain;
  plain.method = server::wire::Method::kScenario;
  plain.nodes = {1};
  plain.range = {0, 600};
  scenario::ScenarioSpec spec;
  spec.name = "x";
  plain.scenarios = {spec};
  const auto without = server::wire::encode_request(plain);
  plain.scenarios[0].force_chillers = true;
  const auto with = server::wire::encode_request(plain);
  ASSERT_EQ(without.size(), with.size());
  std::size_t flag_at = without.size();
  for (std::size_t i = 0; i < without.size(); ++i) {
    if (without[i] != with[i]) {
      ASSERT_EQ(flag_at, without.size()) << "flags must differ in one byte";
      flag_at = i;
    }
  }
  ASSERT_LT(flag_at, without.size());
  auto evil = without;
  evil[flag_at] |= 4u;  // has_cooling, with no tunables after it
  EXPECT_THROW((void)server::wire::decode_request(evil),
               server::wire::WireError);
}

// --- admission control (deterministic, no sockets) -----------------------

std::string store_dir(const char* leaf) {
  return (fs::temp_directory_path() / "exawatt_test_net" / leaf).string();
}

/// A small store: 4 metrics at 1 Hz for 120 s.
store::Store make_store(const std::string& dir) {
  fs::remove_all(dir);
  store::Store st = store::Store::open(dir);
  std::vector<telemetry::MetricEvent> batch;
  for (util::TimeSec t = 0; t < 120; ++t) {
    for (std::uint32_t m = 0; m < 4; ++m) {
      batch.push_back({m, t, static_cast<std::int32_t>(500 + m + t % 7)});
    }
  }
  st.append(batch);
  st.flush();
  return st;
}

struct ServiceFixture {
  store::Store store;
  util::ManualClock clock;
  server::QueryService service;  ///< one fixed worker: deterministic queueing

  ServiceFixture(std::size_t queue_limit, const char* leaf)
      : store(make_store(store_dir(leaf))),
        service(store, e2e::fixed_workers(1, {.queue_limit = queue_limit,
                                              .clock = &clock})) {}

  /// Occupy the single worker until `release` is satisfied.
  std::future<void> block_worker(std::shared_future<void> release) {
    auto running = std::make_shared<std::promise<void>>();
    auto started = running->get_future();
    service.set_subscribe_source(
        [release, running](const server::wire::Request&,
                           const server::CancelToken&,
                           const server::QueryService::Emit&) {
          running->set_value();
          release.wait();
        });
    server::wire::Request req;
    req.method = server::wire::Method::kSubscribe;
    service.submit(req, server::make_cancel_token(),
                   [](const server::wire::Tick&) {},
                   [](server::wire::Response&&) {});
    return started;
  }
};

/// Metrics once every admission slot is back. A slot is freed only after
/// its `done` callback returns, so a caller already holding the response
/// can briefly still see it taken.
server::ServiceMetrics settled_metrics(const server::QueryService& service) {
  for (int spins = 0; spins < 500 && service.metrics().queue_depth != 0;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return service.metrics();
}

server::QueryService::Done capture(std::promise<server::wire::Response>& p) {
  return [&p](server::wire::Response&& resp) { p.set_value(std::move(resp)); };
}

TEST(Admission, FullQueueShedsWithResourceExhausted) {
  ServiceFixture fx(/*queue_limit=*/2, "shed");
  std::promise<void> release;
  fx.block_worker(release.get_future().share()).wait();

  // The bound is on queued work; the running blocker does not count.
  // A window_sum (priced above a ping: it decodes blocks) and a ping
  // fill the queue...
  std::promise<server::wire::Response> pricey;
  server::wire::Request sum;
  sum.method = server::wire::Method::kWindowSum;
  sum.metric = 0;
  sum.range = {0, 120};
  sum.window = 10;
  fx.service.submit(sum, server::make_cancel_token(), {}, capture(pricey));
  std::promise<server::wire::Response> first;
  server::wire::Request ping;
  ping.method = server::wire::Method::kPing;
  fx.service.submit(ping, server::make_cancel_token(), {}, capture(first));

  // ...so a second ping sheds the worst queued item — the pricier
  // window_sum, not the newest arrival — inline, with an explicit status:
  // never a silent drop.
  std::promise<server::wire::Response> second;
  fx.service.submit(ping, server::make_cancel_token(), {}, capture(second));
  auto shed_resp = pricey.get_future().get();
  EXPECT_EQ(shed_resp.status, server::wire::Status::kResourceExhausted);
  EXPECT_NE(shed_resp.message.find("request shed"), std::string::npos);
  EXPECT_EQ(fx.service.metrics().shed, 1u);

  // Among equals the youngest goes: a third ping is refused itself.
  std::promise<server::wire::Response> third;
  fx.service.submit(ping, server::make_cancel_token(), {}, capture(third));
  EXPECT_EQ(third.get_future().get().status,
            server::wire::Status::kResourceExhausted);
  EXPECT_EQ(fx.service.metrics().shed, 2u);

  release.set_value();
  EXPECT_EQ(first.get_future().get().status, server::wire::Status::kOk);
  EXPECT_EQ(second.get_future().get().status, server::wire::Status::kOk);
  const auto m = settled_metrics(fx.service);
  // Blocker, window_sum and both queued pings were admitted; the refused
  // third ping never was.
  EXPECT_EQ(m.accepted, 4u);
  EXPECT_EQ(m.served, 3u);
  EXPECT_EQ(m.queue_depth, 0u);
}

TEST(Admission, ExpiredDeadlineIsNeverExecuted) {
  ServiceFixture fx(8, "deadline");
  std::promise<void> release;
  fx.block_worker(release.get_future().share()).wait();

  std::promise<server::wire::Response> late;
  server::wire::Request req;
  req.method = server::wire::Method::kWindowSum;
  req.metric = 0;
  req.range = {0, 120};
  req.window = 10;
  req.deadline_ms = 50;
  fx.service.submit(req, server::make_cancel_token(), {}, capture(late));

  // The deadline passes while the request is still queued behind the
  // blocker; when the worker finally picks it up it must refuse to run.
  fx.clock.advance_us(51'000);
  release.set_value();
  const auto resp = late.get_future().get();
  EXPECT_EQ(resp.status, server::wire::Status::kDeadlineExceeded);
  EXPECT_NE(resp.message.find("before execution"), std::string::npos);
  EXPECT_TRUE(resp.window_sum.sum.empty()) << "expired work was executed";
  EXPECT_EQ(settled_metrics(fx.service).deadline_exceeded, 1u);
}

TEST(Admission, MetDeadlineExecutesNormally) {
  ServiceFixture fx(8, "deadline_ok");
  std::promise<server::wire::Response> done;
  server::wire::Request req;
  req.method = server::wire::Method::kWindowSum;
  req.metric = 1;
  req.range = {0, 120};
  req.window = 10;
  req.deadline_ms = 1000;  // ManualClock never advances: always in budget
  fx.service.submit(req, server::make_cancel_token(), {}, capture(done));
  const auto resp = done.get_future().get();
  EXPECT_EQ(resp.status, server::wire::Status::kOk);
  EXPECT_EQ(resp.window_sum.sum.size(), 12u);
}

TEST(Admission, DisconnectCancelsQueuedWork) {
  ServiceFixture fx(8, "cancel");
  std::promise<void> release;
  fx.block_worker(release.get_future().share()).wait();

  auto token = server::make_cancel_token();
  std::promise<server::wire::Response> doomed;
  server::wire::Request req;
  req.method = server::wire::Method::kPing;
  fx.service.submit(req, token, {}, capture(doomed));

  token->store(true);  // the peer vanished while the request was queued
  release.set_value();
  const auto resp = doomed.get_future().get();
  EXPECT_EQ(resp.status, server::wire::Status::kCancelled);
  EXPECT_EQ(settled_metrics(fx.service).cancelled, 1u);
}

TEST(Admission, DrainRejectsNewWorkAndWaitsForOld) {
  ServiceFixture fx(8, "drain");
  std::promise<server::wire::Response> ok;
  server::wire::Request req;
  req.method = server::wire::Method::kPing;
  fx.service.submit(req, server::make_cancel_token(), {}, capture(ok));
  EXPECT_EQ(ok.get_future().get().status, server::wire::Status::kOk);

  fx.service.drain();  // queue empty: returns once depth hits zero
  std::promise<server::wire::Response> rejected;
  fx.service.submit(req, server::make_cancel_token(), {}, capture(rejected));
  EXPECT_EQ(rejected.get_future().get().status,
            server::wire::Status::kUnavailable);
}

TEST(Admission, SubscriptionEmitsTicksBeforeDone) {
  ServiceFixture fx(8, "subticks");
  fx.service.set_subscribe_source(
      [](const server::wire::Request&, const server::CancelToken&,
         const server::QueryService::Emit& emit) {
        for (std::uint64_t i = 0; i < 3; ++i) {
          server::wire::Tick tick;
          tick.kind = server::wire::TickKind::kWindow;
          tick.index = i;
          emit(tick);
        }
      });
  std::vector<std::uint64_t> seen;
  std::promise<server::wire::Response> done;
  server::wire::Request req;
  req.method = server::wire::Method::kSubscribe;
  fx.service.submit(req, server::make_cancel_token(),
                    [&](const server::wire::Tick& t) {
                      seen.push_back(t.index);
                    },
                    capture(done));
  EXPECT_EQ(done.get_future().get().status, server::wire::Status::kOk);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2}));
}

// --- adversarial request bodies ------------------------------------------
// Valid frames can still carry hostile query parameters: ranges and
// windows are attacker-chosen i64s, and none of them may reach the
// store's grid arithmetic (allocation size, signed round-up) unchecked.

TEST(Execute, ClusterSumHugeGridIsRejectedNotAllocated) {
  ServiceFixture fx(4, "hostile_cluster");
  server::wire::Request req;
  req.method = server::wire::Method::kClusterSum;
  req.nodes = {0};
  // 2^40 seconds at window=1 asks for a multi-terabyte zero-filled grid.
  req.range = {0, static_cast<util::TimeSec>(1) << 40};
  req.window = 1;
  EXPECT_EQ(fx.service.execute(req).status,
            server::wire::Status::kInvalidArgument);
}

TEST(Execute, InvertedAndOverflowingRangesAreRejected) {
  ServiceFixture fx(4, "hostile_range");
  server::wire::Request req;
  req.method = server::wire::Method::kWindowSum;
  req.window = 10;

  req.range = {10, 0};  // inverted
  EXPECT_EQ(fx.service.execute(req).status,
            server::wire::Status::kInvalidArgument);

  // end - begin overflows i64; duration() must stay defined under UBSan
  // and the request must still be rejected.
  req.range = {std::numeric_limits<util::TimeSec>::min(),
               std::numeric_limits<util::TimeSec>::max()};
  EXPECT_EQ(fx.service.execute(req).status,
            server::wire::Status::kInvalidArgument);

  // Inverted by 2^64 - 1: the unsigned wrap makes duration() == +1, so
  // the begin > end check has to catch it, not the width check.
  req.range = {std::numeric_limits<util::TimeSec>::max(),
               std::numeric_limits<util::TimeSec>::min()};
  EXPECT_EQ(fx.service.execute(req).status,
            server::wire::Status::kInvalidArgument);

  req.method = server::wire::Method::kScan;
  req.metrics = {0};
  req.range = {10, 0};
  EXPECT_EQ(fx.service.execute(req).status,
            server::wire::Status::kInvalidArgument);
}

TEST(Execute, HugeWindowCannotOverflowTheRoundUp) {
  ServiceFixture fx(4, "hostile_window");
  server::wire::Request req;
  req.method = server::wire::Method::kWindowSum;
  req.range = {0, 100};
  // duration + window - 1 would overflow i64 inside the store.
  req.window = std::numeric_limits<util::TimeSec>::max();
  EXPECT_EQ(fx.service.execute(req).status,
            server::wire::Status::kInvalidArgument);

  req.method = server::wire::Method::kClusterSum;
  req.nodes = {0};
  EXPECT_EQ(fx.service.execute(req).status,
            server::wire::Status::kInvalidArgument);
}

TEST(Execute, PueRollupClampsHostileRangeToStoreBounds) {
  ServiceFixture fx(4, "hostile_pue");
  server::wire::Request req;
  req.method = server::wire::Method::kPueRollup;
  req.nodes = {0};
  // A 2^60-second replay at one iteration per simulated second would
  // occupy a worker for eons; clamped to the data it is 120 steps.
  req.range = {0, static_cast<util::TimeSec>(1) << 60};
  req.window = 10;
  const auto resp = fx.service.execute(req);
  EXPECT_EQ(resp.status, server::wire::Status::kOk);

  stream::EngineOptions opts;
  opts.range = fx.store.bounds();
  opts.window = 10;
  opts.rollup.edge_node_count = 1.0;
  const auto direct = stream::replay_rollup(fx.store, req.nodes, opts);
  EXPECT_EQ(resp.series.start(), direct.power.start());
  EXPECT_TRUE(std::ranges::equal(resp.series.values(),
                                 direct.power.values()));
  EXPECT_TRUE(std::ranges::equal(resp.pue.values(), direct.pue.values()));
}

TEST(Execute, PueRollupHonorsCancelAndDeadline) {
  ServiceFixture fx(4, "pue_interrupt");
  server::wire::Request req;
  req.method = server::wire::Method::kPueRollup;
  req.nodes = {0};
  req.range = {0, 120};
  req.window = 10;

  auto cancel = server::make_cancel_token();
  cancel->store(true);
  EXPECT_EQ(fx.service.execute(req, cancel, 0).status,
            server::wire::Status::kCancelled);

  fx.clock.advance_us(1000);  // deadline already in the past
  EXPECT_EQ(fx.service.execute(req, nullptr, 500).status,
            server::wire::Status::kDeadlineExceeded);
}

// --- loopback integration ------------------------------------------------

struct LoopbackFixture {
  store::Store store;
  e2e::LoopbackServer loopback;
  server::Server& server = loopback.server();

  explicit LoopbackFixture(const char* leaf)
      : store(make_store(store_dir(leaf))), loopback(store, {}) {}

  server::ClientOptions client_options() const {
    return loopback.client_options();
  }
};

TEST(Loopback, ResponsesAreBitIdenticalToDirectCalls) {
  LoopbackFixture fx("loopback");
  server::Client client(fx.client_options());

  server::wire::Request req;
  req.method = server::wire::Method::kWindowSum;
  req.metric = 2;
  req.range = {0, 120};
  req.window = 10;
  const auto wire_resp = client.call(req);
  const auto direct = fx.server.service().execute(req);
  ASSERT_EQ(wire_resp.status, server::wire::Status::kOk);
  EXPECT_EQ(wire_resp.window_sum.start, direct.window_sum.start);
  EXPECT_EQ(wire_resp.window_sum.sum, direct.window_sum.sum);
  EXPECT_EQ(wire_resp.window_sum.count, direct.window_sum.count);

  req = {};
  req.method = server::wire::Method::kServerStats;
  const auto stats = client.call(req);
  ASSERT_EQ(stats.status, server::wire::Status::kOk);
  EXPECT_GE(stats.server.get("service.accepted").value_or(0), 1.0);
  EXPECT_EQ(stats.server.get("service.queue_limit"), 256.0);
}

TEST(Loopback, MalformedRequestBodyKeepsConnectionAlive) {
  LoopbackFixture fx("badbody");
  auto stream = net::TcpStream::connect("127.0.0.1", fx.server.port(), 2000);
  // Structurally valid frame, garbage payload: per-request error only.
  const auto bad = net::encode_frame(net::FrameType::kRequest, 5,
                                     payload_of("\xff\xff not a request"));
  stream.write_all(bad.data(), bad.size(), 2000);

  net::FrameDecoder decoder;
  net::Frame frame;
  std::uint8_t chunk[4096];
  while (!decoder.next(frame)) {
    ASSERT_TRUE(stream.wait_readable(2000));
    const auto r = stream.read_some(chunk, sizeof(chunk));
    ASSERT_EQ(r.status, net::IoStatus::kOk);
    decoder.feed({chunk, r.n});
  }
  EXPECT_EQ(frame.type, net::FrameType::kResponse);
  EXPECT_EQ(frame.request_id, 5u);
  const auto resp = server::wire::decode_response(frame.payload);
  EXPECT_EQ(resp.status, server::wire::Status::kInvalidArgument);

  // Same connection still serves a well-formed request afterwards.
  server::wire::Request ping;
  ping.method = server::wire::Method::kPing;
  const auto good = net::encode_frame(net::FrameType::kRequest, 6,
                                      server::wire::encode_request(ping));
  stream.write_all(good.data(), good.size(), 2000);
  while (!decoder.next(frame)) {
    ASSERT_TRUE(stream.wait_readable(2000));
    const auto r = stream.read_some(chunk, sizeof(chunk));
    ASSERT_EQ(r.status, net::IoStatus::kOk);
    decoder.feed({chunk, r.n});
  }
  EXPECT_EQ(frame.request_id, 6u);
  EXPECT_EQ(server::wire::decode_response(frame.payload).status,
            server::wire::Status::kOk);
}

TEST(Loopback, UnknownFutureMethodIsTypedErrorNotConnectionFatal) {
  // A method id this server has never heard of (the slot after the last
  // known one) in a well-formed frame must get a typed per-request error
  // back, and the connection must keep serving.
  server::wire::Request ping;
  ping.method = server::wire::Method::kPing;
  auto payload = server::wire::encode_request(ping);
  payload[0] =  // one past the known method range
      static_cast<std::uint8_t>(server::wire::Method::kNodeMeans) + 1;
  EXPECT_THROW((void)server::wire::decode_request(payload),
               server::wire::WireError);

  LoopbackFixture fx("futuremethod");
  auto stream = net::TcpStream::connect("127.0.0.1", fx.server.port(), 2000);
  const auto skewed =
      net::encode_frame(net::FrameType::kRequest, 21, payload);
  stream.write_all(skewed.data(), skewed.size(), 2000);

  net::FrameDecoder decoder;
  net::Frame frame;
  std::uint8_t chunk[4096];
  while (!decoder.next(frame)) {
    ASSERT_TRUE(stream.wait_readable(2000));
    const auto r = stream.read_some(chunk, sizeof(chunk));
    ASSERT_EQ(r.status, net::IoStatus::kOk);
    decoder.feed({chunk, r.n});
  }
  EXPECT_EQ(frame.type, net::FrameType::kResponse);
  EXPECT_EQ(frame.request_id, 21u);
  const auto resp = server::wire::decode_response(frame.payload);
  EXPECT_EQ(resp.status, server::wire::Status::kInvalidArgument);
  EXPECT_NE(resp.message.find("method"), std::string::npos);

  // Same connection, same-version request afterwards: still served.
  const auto good = net::encode_frame(net::FrameType::kRequest, 22,
                                      server::wire::encode_request(ping));
  stream.write_all(good.data(), good.size(), 2000);
  while (!decoder.next(frame)) {
    ASSERT_TRUE(stream.wait_readable(2000));
    const auto r = stream.read_some(chunk, sizeof(chunk));
    ASSERT_EQ(r.status, net::IoStatus::kOk);
    decoder.feed({chunk, r.n});
  }
  EXPECT_EQ(frame.request_id, 22u);
  EXPECT_EQ(server::wire::decode_response(frame.payload).status,
            server::wire::Status::kOk);
}

TEST(Loopback, GarbageBytesGetGoodbyeAndCloseButServerSurvives) {
  LoopbackFixture fx("garbage");
  server::wire::Request ping;
  ping.method = server::wire::Method::kPing;
  // A stray HTTP client, and a well-formed ping from a peer one protocol
  // version behind: neither is ever parsed as a request.
  const std::string http = "GET / HTTP/1.1\r\nHost: summit\r\n\r\n";
  auto old_version = net::encode_frame(net::FrameType::kRequest, 1,
                                       server::wire::encode_request(ping));
  old_version[4] = static_cast<std::uint8_t>(net::kProtocolVersion - 1);
  const std::vector<std::vector<std::uint8_t>> inputs = {
      {http.begin(), http.end()}, old_version};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto stream =
        net::TcpStream::connect("127.0.0.1", fx.server.port(), 2000);
    stream.write_all(inputs[i].data(), inputs[i].size(), 2000);
    // The server must answer with a goodbye frame and close; reading to
    // EOF must not hang.
    net::FrameDecoder decoder;
    net::Frame frame;
    bool got_goodbye = false;
    bool closed = false;
    std::uint8_t chunk[4096];
    while (!closed && stream.wait_readable(5000)) {
      const auto r = stream.read_some(chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kClosed) {
        closed = true;
        break;
      }
      ASSERT_EQ(r.status, net::IoStatus::kOk);
      decoder.feed({chunk, r.n});
      while (decoder.next(frame)) {
        if (frame.type == net::FrameType::kGoodbye) got_goodbye = true;
      }
    }
    EXPECT_TRUE(got_goodbye) << "input " << i;
    EXPECT_TRUE(closed) << "input " << i;
    EXPECT_GE(fx.server.loop_stats().protocol_errors, i + 1);

    // A fresh, polite client is served as if nothing happened.
    server::Client client(fx.client_options());
    EXPECT_EQ(client.call(ping).status, server::wire::Status::kOk);
  }
}

TEST(Loopback, ClientRefusesAnAnswerInAnotherProtocolVersion) {
  // An endpoint one protocol version behind: it answers every request
  // with an OK ping response framed as its own version.
  net::TcpListener listener = net::TcpListener::bind(0, true);
  const std::uint16_t port = listener.local_port();
  std::atomic<bool> stop{false};
  std::thread endpoint([&] {
    net::TcpStream peer;
    while (!stop.load() && !peer.valid()) {
      peer = listener.accept();
      if (!peer.valid()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    net::FrameDecoder decoder;
    std::uint8_t chunk[4096];
    while (!stop.load()) {
      if (!peer.wait_readable(50)) continue;
      const auto r = peer.read_some(chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kWouldBlock) continue;
      if (r.status != net::IoStatus::kOk) return;
      decoder.feed({chunk, r.n});
      net::Frame frame;
      while (decoder.next(frame)) {
        server::wire::Response resp;  // OK ping
        auto out =
            net::encode_frame(net::FrameType::kResponse, frame.request_id,
                              server::wire::encode_response(resp));
        out[4] = static_cast<std::uint8_t>(net::kProtocolVersion - 1);
        peer.write_all(out.data(), out.size(), 2000);
      }
    }
  });

  server::ClientOptions copts;
  copts.port = port;
  copts.max_reconnects = 0;
  server::Client client(copts);
  server::wire::Request ping;
  ping.method = server::wire::Method::kPing;
  try {
    (void)client.call(ping);
    ADD_FAILURE() << "an answer in another protocol version was accepted";
  } catch (const net::NetError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported protocol version"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(client.connected());

  stop.store(true);
  endpoint.join();
}

TEST(Loopback, SlowLorisRequestIsAnsweredOnceComplete) {
  LoopbackFixture fx("loris");
  auto stream = net::TcpStream::connect("127.0.0.1", fx.server.port(), 2000);
  server::wire::Request ping;
  ping.method = server::wire::Method::kPing;
  const auto bytes = net::encode_frame(net::FrameType::kRequest, 11,
                                       server::wire::encode_request(ping));
  // Dribble the frame a few bytes at a time; the server must neither
  // time out internally nor misparse across chunk boundaries.
  for (std::size_t i = 0; i < bytes.size(); i += 3) {
    const std::size_t n = std::min<std::size_t>(3, bytes.size() - i);
    stream.write_all(bytes.data() + i, n, 2000);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  net::FrameDecoder decoder;
  net::Frame frame;
  std::uint8_t chunk[4096];
  while (!decoder.next(frame)) {
    ASSERT_TRUE(stream.wait_readable(5000));
    const auto r = stream.read_some(chunk, sizeof(chunk));
    ASSERT_EQ(r.status, net::IoStatus::kOk);
    decoder.feed({chunk, r.n});
  }
  EXPECT_EQ(frame.request_id, 11u);
  EXPECT_EQ(server::wire::decode_response(frame.payload).status,
            server::wire::Status::kOk);
}

TEST(Loopback, SubscriptionStreamsAndDisconnectCancels) {
  LoopbackFixture fx("subscribe");
  std::atomic<bool> saw_cancel{false};
  fx.server.service().set_subscribe_source(
      [&](const server::wire::Request&, const server::CancelToken& cancel,
          const server::QueryService::Emit& emit) {
        for (std::uint64_t i = 0; i < 1000; ++i) {
          if (cancel != nullptr && cancel->load()) {
            saw_cancel.store(true);
            return;
          }
          server::wire::Tick tick;
          tick.kind = server::wire::TickKind::kWindow;
          tick.index = i;
          emit(tick);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  {
    server::wire::Request req;
    req.method = server::wire::Method::kSubscribe;
    server::Subscription sub(fx.client_options(), req);
    // Take a few ticks, then vanish without so much as a FIN wave.
    for (int i = 0; i < 3; ++i) {
      const auto tick = sub.next(5000);
      ASSERT_TRUE(tick.has_value());
      EXPECT_EQ(tick->kind, server::wire::TickKind::kWindow);
    }
    sub.close();
  }
  // The server-side replay must notice the tripped token and stop early.
  for (int spins = 0; spins < 500 && !saw_cancel.load(); ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_cancel.load());
}

TEST(Loopback, ClientReconnectsAfterServerSideClose) {
  LoopbackFixture fx("reconnect");
  server::Client client(fx.client_options());
  server::wire::Request ping;
  ping.method = server::wire::Method::kPing;
  ASSERT_EQ(client.call(ping).status, server::wire::Status::kOk);
  client.disconnect();  // simulate a dropped connection
  EXPECT_EQ(client.call(ping).status, server::wire::Status::kOk);
}

// --- chunked stream reassembly -------------------------------------------

net::Frame make_chunk(std::uint64_t id, std::uint16_t flags,
                      const std::string& payload,
                      net::FrameType type = net::FrameType::kResponse) {
  net::Frame f;
  f.type = type;
  f.request_id = id;
  f.flags = flags;
  f.payload = payload_of(payload);
  return f;
}

TEST(Chunk, ReassemblesSlicesAndClearsFlags) {
  net::ChunkAssembler assembler;
  net::Frame a = make_chunk(7, net::kFrameFlagChunk, "abc");
  net::Frame b = make_chunk(7, net::kFrameFlagChunk, "def");
  net::Frame c = make_chunk(7, net::kFrameFlagFinal, "gh");
  EXPECT_FALSE(assembler.feed(a));
  EXPECT_TRUE(assembler.streaming());
  EXPECT_FALSE(assembler.feed(b));
  EXPECT_EQ(assembler.buffered_bytes(), 6u);
  ASSERT_TRUE(assembler.feed(c));
  EXPECT_EQ(c.payload, payload_of("abcdefgh"));
  EXPECT_EQ(c.flags, 0u);  // callers never see chunking happened
  EXPECT_FALSE(assembler.streaming());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  assembler.finish();  // idle assembler: EOF is fine
}

TEST(Chunk, PassesThroughUnrelatedFramesMidStream) {
  net::ChunkAssembler assembler;
  net::Frame open = make_chunk(7, net::kFrameFlagChunk, "part");
  EXPECT_FALSE(assembler.feed(open));
  // A tick for the same request interleaves legally (sweeps stream
  // window ticks ahead of their chunked final response)...
  net::Frame tick = make_chunk(7, 0, "tick", net::FrameType::kTick);
  EXPECT_TRUE(assembler.feed(tick));
  EXPECT_EQ(tick.payload, payload_of("tick"));
  // ...and so does a complete response for a *different* request.
  net::Frame other = make_chunk(8, 0, "whole");
  EXPECT_TRUE(assembler.feed(other));
  EXPECT_TRUE(assembler.streaming());  // the open stream is untouched
}

TEST(Chunk, TruncatedMidStreamIsTypedFault) {
  // An unchunked response for the id of the open stream means the sender
  // abandoned the stream without kFinal/kAbort: the tail is lost.
  net::ChunkAssembler assembler;
  net::Frame open = make_chunk(7, net::kFrameFlagChunk, "part");
  EXPECT_FALSE(assembler.feed(open));
  net::Frame plain = make_chunk(7, 0, "whole");
  try {
    (void)assembler.feed(plain);
    FAIL() << "truncated stream accepted";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), net::FrameFault::kChunkTruncated) << e.what();
  }
}

TEST(Chunk, MissingFinalAtEofIsTypedFault) {
  net::ChunkAssembler assembler;
  net::Frame open = make_chunk(7, net::kFrameFlagChunk, "part");
  EXPECT_FALSE(assembler.feed(open));
  try {
    assembler.finish();  // connection ended with the stream open
    FAIL() << "EOF inside a stream accepted";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), net::FrameFault::kChunkTruncated) << e.what();
  }
}

TEST(Chunk, InterleavedStreamsAreTypedFault) {
  // One connection carries one response stream at a time (the server
  // serializes chunked sends per connection); a second id chunking
  // mid-stream can only be a corrupt or hostile sender.
  net::ChunkAssembler assembler;
  net::Frame a = make_chunk(7, net::kFrameFlagChunk, "aaa");
  EXPECT_FALSE(assembler.feed(a));
  net::Frame b = make_chunk(8, net::kFrameFlagChunk, "bbb");
  try {
    (void)assembler.feed(b);
    FAIL() << "interleaved stream accepted";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), net::FrameFault::kChunkInterleaved) << e.what();
  }
}

TEST(Chunk, AbortReplacesThePartialStream) {
  net::ChunkAssembler assembler;
  net::Frame a = make_chunk(7, net::kFrameFlagChunk, "doomed bytes");
  EXPECT_FALSE(assembler.feed(a));
  server::wire::Response err;
  err.status = server::wire::Status::kDeadlineExceeded;
  err.method = server::wire::Method::kScan;
  err.message = "deadline expired during scan";
  const auto err_bytes = server::wire::encode_response(err);
  net::Frame abort = make_chunk(7, net::kFrameFlagAbort, "");
  abort.payload = err_bytes;
  ASSERT_TRUE(assembler.feed(abort));
  EXPECT_EQ(abort.payload, err_bytes);  // buffered fragments discarded
  EXPECT_EQ(abort.flags, 0u);
  EXPECT_FALSE(assembler.streaming());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  const auto decoded = server::wire::decode_response(abort.payload);
  EXPECT_EQ(decoded.status, server::wire::Status::kDeadlineExceeded);
}

TEST(Chunk, OversizedAssemblyIsTypedFault) {
  net::ChunkAssembler assembler(/*max_bytes=*/16);
  net::Frame a = make_chunk(7, net::kFrameFlagChunk, "0123456789");
  EXPECT_FALSE(assembler.feed(a));
  net::Frame b = make_chunk(7, net::kFrameFlagChunk, "0123456789");
  try {
    (void)assembler.feed(b);
    FAIL() << "oversized assembly accepted";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), net::FrameFault::kChunkOversized) << e.what();
  }
}

// --- backpressure (deterministic: stub sink, no sockets) -----------------

/// Collects every frame a ChunkWriter flushes, acquiring budget from a
/// real StreamGate but releasing only when the test says the "peer"
/// drained — the socketless stand-in for EventLoop's gated outbox.
struct StubSink {
  net::StreamGate gate;
  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> frames;

  explicit StubSink(std::size_t budget) : gate(budget) {}

  server::ChunkWriter::Sink sink() {
    server::ChunkWriter::Sink s;
    s.acquire = [this](std::size_t n, const std::function<bool()>& cancelled) {
      return gate.acquire(n, cancelled);
    };
    s.send = [this](std::vector<std::uint8_t>&& bytes) {
      std::lock_guard lk(mu);
      frames.push_back(std::move(bytes));
      return true;
    };
    return s;
  }

  /// Reassemble everything sent so far as a client would see it.
  std::vector<std::uint8_t> reassembled() {
    net::FrameDecoder decoder;
    net::ChunkAssembler assembler;
    {
      std::lock_guard lk(mu);
      for (const auto& f : frames) decoder.feed(f);
    }
    net::Frame frame;
    while (decoder.next(frame)) {
      if (assembler.feed(frame)) return frame.payload;
    }
    return {};
  }

  std::size_t sent() {
    std::lock_guard lk(mu);
    return frames.size();
  }
  std::size_t sent_bytes_of(std::size_t i) {
    std::lock_guard lk(mu);
    return frames.at(i).size();
  }
};

std::vector<std::uint8_t> pattern_payload(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 31 + 7) & 0xff);
  }
  return bytes;
}

TEST(Backpressure, WriterSlicesAndStreamReassemblesBitIdentically) {
  StubSink sink(/*budget=*/std::size_t{1} << 20);
  server::ChunkWriter writer(42, /*chunk_bytes=*/512, sink.sink(),
                             [] { return false; });
  const auto payload = pattern_payload(10'000);
  // Dribble in uneven slices: chunk boundaries must not depend on write
  // granularity.
  for (std::size_t off = 0; off < payload.size(); off += 777) {
    const std::size_t n = std::min<std::size_t>(777, payload.size() - off);
    ASSERT_TRUE(writer.write({payload.data() + off, n}));
  }
  ASSERT_TRUE(writer.finish());
  EXPECT_TRUE(writer.terminated());
  EXPECT_GE(writer.chunks(), 10'000u / 512);
  EXPECT_EQ(sink.reassembled(), payload);
  // Everything acquired must be in flight (nothing released yet), and
  // never beyond one frame past the budget.
  EXPECT_GT(sink.gate.in_flight(), payload.size());
}

TEST(Backpressure, SaturatedGatePausesThenResumesBitIdentically) {
  // Budget of ~2 frames: the producer must pause, and every drained
  // frame must wake it for exactly one more.
  StubSink sink(/*budget=*/1200);
  server::ChunkWriter writer(42, /*chunk_bytes=*/512, sink.sink(),
                             [] { return false; });
  const auto payload = pattern_payload(8'000);
  std::atomic<bool> finished{false};
  std::thread producer([&] {
    ASSERT_TRUE(writer.write(payload));
    ASSERT_TRUE(writer.finish());
    finished.store(true);
  });

  // The producer must park on the gate, not spin frames out.
  for (int spins = 0; spins < 500 && sink.gate.stats().pauses == 0; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(sink.gate.stats().pauses, 1u);
  EXPECT_FALSE(finished.load());

  // Drain like the loop thread would: release each frame as it "reaches
  // the socket"; the producer finishes and the bytes match exactly.
  std::size_t drained = 0;
  for (int spins = 0; spins < 5000 && !finished.load(); ++spins) {
    while (drained < sink.sent()) {
      sink.gate.release(sink.sent_bytes_of(drained));
      ++drained;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();
  ASSERT_TRUE(finished.load());
  const net::StreamGateStats gs = sink.gate.stats();
  EXPECT_GE(gs.resumes, 1u);
  EXPECT_EQ(gs.resumes, gs.pauses);  // every pause ended in a resume
  EXPECT_EQ(sink.reassembled(), payload);
  // Peak stayed near the budget: one frame may straddle the line, but
  // the result-sized blowup the gate exists to prevent cannot happen.
  EXPECT_LE(gs.peak_buffered, 1200u + 512u + net::kFrameHeaderBytes);
}

TEST(Backpressure, CancelWhileParkedUnblocksWithoutAResume) {
  StubSink sink(/*budget=*/600);
  std::atomic<bool> cancelled{false};
  server::ChunkWriter writer(
      42, /*chunk_bytes=*/512, sink.sink(),
      [&] { return cancelled.load(); });
  std::atomic<bool> write_ok{true};
  std::thread producer([&] {
    write_ok.store(writer.write(pattern_payload(8'000)));
  });
  for (int spins = 0; spins < 500 && sink.gate.stats().pauses == 0; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(sink.gate.stats().pauses, 1u);
  cancelled.store(true);  // peer's token trips while the producer sleeps
  producer.join();
  EXPECT_FALSE(write_ok.load());  // the stream reported itself dead
  EXPECT_TRUE(writer.terminated());
  EXPECT_EQ(sink.gate.stats().resumes, 0u);  // a cancel is not a resume
  // Terminated writers swallow later writes instead of corrupting state.
  EXPECT_FALSE(writer.write(pattern_payload(8)));
  EXPECT_FALSE(writer.finish());
}

TEST(Backpressure, GateCloseFreesTheParkedProducer) {
  StubSink sink(/*budget=*/600);
  server::ChunkWriter writer(42, /*chunk_bytes=*/512, sink.sink(),
                             [] { return false; });
  std::atomic<bool> write_ok{true};
  std::thread producer([&] {
    write_ok.store(writer.write(pattern_payload(8'000)));
  });
  for (int spins = 0; spins < 500 && sink.gate.stats().pauses == 0; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(sink.gate.stats().pauses, 1u);
  sink.gate.close();  // the connection died under the stream
  producer.join();
  EXPECT_FALSE(write_ok.load());
  // The abort path must still get the error out through a closed gate
  // (it bypasses acquire by contract)... but the writer is terminated,
  // so even abort is a no-op now; nothing hangs either way.
  server::wire::Response err;
  err.status = server::wire::Status::kCancelled;
  EXPECT_FALSE(writer.abort(err));
}

TEST(Backpressure, CancelWhileParkedFreesTheAdmissionSlot) {
  // Full service-level conservation: a streaming scan paused on a gate
  // its peer never drains is cancelled, the executor aborts the stream,
  // and the admission slot comes back — queue depth to zero, the request
  // accounted as cancelled, never a ghost occupying the worker.
  store::Store store = make_store(store_dir("cancel_slot"));
  server::QueryService service(store,
                               e2e::fixed_workers(1, {.queue_limit = 4}));

  StubSink sink(/*budget=*/600);
  auto token = server::make_cancel_token();
  server::ChunkWriter writer(
      1, /*chunk_bytes=*/512, sink.sink(),
      [token] { return token->load(std::memory_order_relaxed); });

  server::wire::Request req;
  req.method = server::wire::Method::kScan;
  req.metrics = {0, 1, 2, 3};
  req.range = {0, 120};
  req.chunk_bytes = 512;
  std::promise<server::wire::Response> done;
  service.submit(req, token, {}, capture(done), &writer);

  for (int spins = 0; spins < 500 && sink.gate.stats().pauses == 0; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(sink.gate.stats().pauses, 1u);
  EXPECT_EQ(service.metrics().queue_depth, 1u);

  token->store(true);  // the peer vanished
  auto fut = done.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  const auto resp = fut.get();
  EXPECT_EQ(resp.status, server::wire::Status::kCancelled);
  const auto m = settled_metrics(service);
  EXPECT_EQ(m.queue_depth, 0u);  // the slot is free again
  EXPECT_EQ(m.cancelled, 1u);
  EXPECT_EQ(m.accepted, m.served + m.shed + m.deadline_exceeded +
                            m.cancelled + m.failed + m.queue_depth);
}

/// Drain with a `done` parked on a peer that never reads. The executor
/// ignores the stream, as the cluster coordinator's does, and answers
/// far more than the stream budget; the server chunks that answer in
/// `done` on a worker, which parks on the connection's gate once the
/// socket buffers fill. `stop_loop` picks the shutdown shape: shutdown()
/// then drain() (the test rigs), or run(until) returning then drain()
/// (`exawatt_sim serve` on a signal).
void drain_with_parked_done(bool stop_loop) {
  server::QueryService service(
      [](const server::wire::Request& req, const server::CancelToken&,
         std::int64_t, const server::QueryService::Emit&,
         server::ChunkWriter*) {
        server::wire::Response resp;
        resp.method = req.method;
        resp.counts.assign(std::size_t{2} << 20, 1.0);  // 16 MiB encoded
        return resp;
      });
  server::ServerOptions options;
  options.loop.stream_budget_bytes = std::size_t{64} << 10;
  server::Server server(service, options);
  std::atomic<bool> until{false};
  std::thread loop([&] {
    if (stop_loop) {
      server.run();
    } else {
      server.run([&] { return until.load(); }, 20);
    }
  });

  auto peer = net::TcpStream::connect("127.0.0.1", server.port(), 2000);
  server::wire::Request req;
  req.method = server::wire::Method::kClusterSum;
  req.chunk_bytes = std::uint32_t{64} << 10;
  const auto frame = net::encode_frame(net::FrameType::kRequest, 1,
                                       server::wire::encode_request(req));
  peer.write_all(frame.data(), frame.size(), 2000);
  for (int spins = 0; spins < 1000 && server.loop_stats().stream_pauses == 0;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server.loop_stats().stream_pauses, 1u);
  EXPECT_EQ(service.metrics().queue_depth, 1u);

  auto drained = std::async(std::launch::async, [&] {
    if (stop_loop) {
      server.shutdown();
    } else {
      until.store(true);
    }
    loop.join();
    server.drain(/*max_flush_ms=*/200);
  });
  if (drained.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    // The parked worker can never be joined, so neither can the
    // service's pool at teardown. Report and leave.
    ADD_FAILURE() << "drain() did not return with a peer that stopped "
                     "reading";
    std::fflush(stdout);
    std::_Exit(1);
  }
  const auto m = service.metrics();
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.accepted, 1u);
  EXPECT_EQ(m.accepted, m.served + m.shed + m.deadline_exceeded +
                            m.cancelled + m.failed + m.queue_depth);
}

TEST(Drain, StoppedLoopGivesUpAPeerThatStoppedReading) {
  drain_with_parked_done(/*stop_loop=*/true);
}

TEST(Drain, ReturnedLoopGivesUpAPeerThatStoppedReading) {
  drain_with_parked_done(/*stop_loop=*/false);
}

TEST(Drain, FlushesAnAnswerQueuedAtShutdownToAReadingPeer) {
  // An answer larger than the socket buffers is still queued in the loop
  // when shutdown() stops it; drain() must keep writing it to a peer
  // that reads, not drop it.
  server::QueryService service(
      [](const server::wire::Request& req, const server::CancelToken&,
         std::int64_t, const server::QueryService::Emit&,
         server::ChunkWriter*) {
        server::wire::Response resp;
        resp.method = req.method;
        resp.counts.assign(std::size_t{2} << 20, 1.0);  // 16 MiB encoded
        return resp;
      });
  server::Server server(service);
  std::thread loop([&] { server.run(); });

  auto peer = net::TcpStream::connect("127.0.0.1", server.port(), 2000);
  server::wire::Request req;
  req.method = server::wire::Method::kClusterSum;
  const auto frame = net::encode_frame(net::FrameType::kRequest, 1,
                                       server::wire::encode_request(req));
  peer.write_all(frame.data(), frame.size(), 2000);
  // The peer reads nothing yet: the answer fills the socket buffers and
  // the rest waits in the loop.
  for (int spins = 0; spins < 1000 && service.metrics().served == 0;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(service.metrics().served, 1u);
  server.shutdown();
  loop.join();

  auto answer = std::async(std::launch::async, [&peer] {
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> buf(std::size_t{64} << 10);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    net::Frame got;
    while (std::chrono::steady_clock::now() < give_up) {
      if (decoder.next(got)) return std::optional<net::Frame>(got);
      if (!peer.wait_readable(50)) continue;
      const auto r = peer.read_some(buf.data(), buf.size());
      if (r.status == net::IoStatus::kWouldBlock) continue;
      if (r.status != net::IoStatus::kOk) break;
      decoder.feed({buf.data(), r.n});
    }
    return std::optional<net::Frame>();
  });
  server.drain();
  const std::optional<net::Frame> got = answer.get();
  ASSERT_TRUE(got.has_value()) << "the queued answer never arrived whole";
  const auto resp = server::wire::decode_response(got->payload);
  EXPECT_EQ(resp.status, server::wire::Status::kOk);
  EXPECT_EQ(resp.counts.size(), std::size_t{2} << 20);
}

// --- roll-ups on a default server ----------------------------------------

TEST(Rollups, ConcurrentClusterSumsOnADefaultServerAllComplete) {
  // store::cluster_sum fans its per-node scans out on the process-global
  // pool. A service whose request workers are that pool's own threads
  // deadlocks once it runs as many roll-ups as the pool has threads:
  // every worker waits on sub-tasks queued behind itself. A default
  // server runs its own workers, so every call must complete.
  const std::string dir = store_dir("rollup_clients");
  fs::remove_all(dir);
  store::Store store = store::Store::open(dir);
  server::wire::Request req;
  req.method = server::wire::Method::kClusterSum;
  req.channel = e2e::kPowerChannel;
  req.range = {0, 300};
  req.window = 10;
  {
    std::vector<telemetry::MetricEvent> batch;
    for (machine::NodeId node = 0; node < 64; ++node) {
      req.nodes.push_back(node);
      for (util::TimeSec t = 0; t < req.range.end; ++t) {
        batch.push_back({telemetry::metric_id(node, e2e::kPowerChannel), t,
                         static_cast<std::int32_t>(300 + node + t % 11)});
      }
    }
    store.append(batch);
    store.flush();
  }
  std::vector<double> expected_counts;
  const ts::Series expected =
      store::cluster_sum(store, req.nodes, req.channel, req.range,
                         req.window, &expected_counts);

  e2e::LoopbackServer server(store);
  server::ClientOptions copts = server.client_options();
  copts.request_timeout_ms = 30'000;  // a wedged server fails, not hangs
  copts.max_reconnects = 0;
  const std::size_t clients =
      std::min<std::size_t>(64, 2 * util::ThreadPool::global().size());
  constexpr int kCallsPerClient = 4;
  std::atomic<int> ok{0};
  std::atomic<int> wrong{0};
  std::atomic<int> timed_out{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      server::Client client(copts);
      for (int i = 0; i < kCallsPerClient; ++i) {
        try {
          const server::wire::Response resp = client.call(req);
          if (resp.status == server::wire::Status::kOk &&
              resp.series.start() == expected.start() &&
              e2e::series_equal(resp.series, expected) &&
              resp.counts == expected_counts) {
            ++ok;
          } else {
            ++wrong;
          }
        } catch (const net::NetError&) {
          ++timed_out;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (timed_out.load() > 0) {
    // A deadlocked pool can never be joined: neither the server's drain
    // nor the pool's destructor at exit would return. Report and leave.
    ADD_FAILURE() << timed_out.load() << " of " << clients
                  << " clients timed out: the roll-ups deadlocked";
    std::fflush(stdout);
    std::_Exit(1);
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ok.load(), static_cast<int>(clients) * kCallsPerClient);
}

// --- chunked loopback ----------------------------------------------------

/// Bit-parity modulo cache warmth: hit/miss attribution depends on which
/// call decoded a block first, so it is zeroed before comparing. Loss
/// accounting (the correctness-bearing stats) must still match exactly.
std::vector<std::uint8_t> canonical_bytes(server::wire::Response resp) {
  resp.stats.cache_hits = 0;
  resp.stats.cache_misses = 0;
  return server::wire::encode_response(resp);
}

TEST(ChunkedLoopback, ScanMatchesUnchunkedBitForBit) {
  LoopbackFixture fx("chunked_scan");
  server::Client client(fx.client_options());

  server::wire::Request req;
  req.method = server::wire::Method::kScan;
  req.metrics = {0, 1, 2, 3};
  req.range = {0, 120};
  const auto plain = client.call(req);
  ASSERT_EQ(plain.status, server::wire::Status::kOk);

  req.chunk_bytes = 600;  // many chunks over a 480-sample archive
  const auto chunked = client.call(req);
  ASSERT_EQ(chunked.status, server::wire::Status::kOk);
  EXPECT_EQ(canonical_bytes(chunked), canonical_bytes(plain));

  server::wire::Request stats_req;
  stats_req.method = server::wire::Method::kServerStats;
  const auto stats = client.call(stats_req);
  ASSERT_EQ(stats.status, server::wire::Status::kOk);
  EXPECT_GE(stats.server.get("stream.responses").value_or(0), 1.0);
  EXPECT_GE(stats.server.get("stream.chunks").value_or(0), 3.0);
}

TEST(ChunkedLoopback, MaterializedMethodsChunkAtTheWireToo) {
  // pue_rollup (and every other method) materializes its response, but a
  // negotiated chunk size still slices it at the wire — same bytes, just
  // framed in gated pieces.
  LoopbackFixture fx("chunked_pue");
  server::Client client(fx.client_options());

  server::wire::Request req;
  req.method = server::wire::Method::kPueRollup;
  req.nodes = {0, 1};
  req.range = {0, 120};
  req.window = 10;
  const auto plain = client.call(req);
  ASSERT_EQ(plain.status, server::wire::Status::kOk);
  req.chunk_bytes = 512;
  const auto chunked = client.call(req);
  ASSERT_EQ(chunked.status, server::wire::Status::kOk);
  EXPECT_EQ(canonical_bytes(chunked), canonical_bytes(plain));

  // Hostile ask on a method that cannot stream incrementally must not
  // change the answer either — chunking is transport, not semantics.
  server::wire::Request sum;
  sum.method = server::wire::Method::kWindowSum;
  sum.metric = 2;
  sum.range = {0, 120};
  sum.window = 10;
  const auto sum_plain = client.call(sum);
  sum.chunk_bytes = 512;
  const auto sum_chunked = client.call(sum);
  EXPECT_EQ(canonical_bytes(sum_chunked), canonical_bytes(sum_plain));
}

TEST(ChunkedLoopback, FullArchiveScanStaysUnderTheStreamBudget) {
  // The acceptance bound: peak resident response-buffer bytes for a full
  // archive scan are capped by the per-connection budget, not the result
  // size. Budget 2 KiB, result ~7.8 KiB encoded — impossible without
  // streaming.
  server::ServerOptions sopts;
  sopts.loop.stream_budget_bytes = 2 << 10;
  store::Store st = make_store(store_dir("budget_scan"));
  e2e::LoopbackServer loopback(st, sopts);
  server::Client client(loopback.client_options());
  server::wire::Request req;
  req.method = server::wire::Method::kScan;
  req.metrics = {0, 1, 2, 3};
  req.range = {0, 120};
  const auto plain = client.call(req);
  req.chunk_bytes = 512;
  const auto chunked = client.call(req);
  ASSERT_EQ(chunked.status, server::wire::Status::kOk);
  EXPECT_EQ(canonical_bytes(chunked), canonical_bytes(plain));
  EXPECT_GT(server::wire::encode_response(plain).size(),
            sopts.loop.stream_budget_bytes);

  const net::LoopStats ls = loopback.server().loop_stats();
  EXPECT_GT(ls.stream_peak_buffered, 0u);
  // One in-flight frame may straddle the budget line; past that the gate
  // must have paused the scan rather than buffer the result.
  EXPECT_LE(ls.stream_peak_buffered,
            sopts.loop.stream_budget_bytes + 512 + net::kFrameHeaderBytes);
}

TEST(ChunkedLoopback, HostileChunkFlagsFailOneConnectionNotTheNeighbor) {
  LoopbackFixture fx("hostile_flags");
  server::Client neighbor(fx.client_options());
  server::wire::Request ping;
  ping.method = server::wire::Method::kPing;
  ASSERT_EQ(neighbor.call(ping).status, server::wire::Status::kOk);

  {
    // A request frame wearing a continuation flag: requests never
    // stream, so this is a framing violation — goodbye and close.
    auto stream =
        net::TcpStream::connect("127.0.0.1", fx.server.port(), 2000);
    auto bytes = net::encode_frame(net::FrameType::kRequest, 5,
                                   server::wire::encode_request(ping));
    bytes[6] = net::kFrameFlagChunk;  // CRC covers the payload, not this
    stream.write_all(bytes.data(), bytes.size(), 2000);

    net::FrameDecoder decoder;
    net::Frame frame;
    bool got_goodbye = false;
    bool closed = false;
    std::uint8_t chunk[4096];
    while (!closed && stream.wait_readable(5000)) {
      const auto r = stream.read_some(chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kClosed) {
        closed = true;
        break;
      }
      ASSERT_EQ(r.status, net::IoStatus::kOk);
      decoder.feed({chunk, r.n});
      while (decoder.next(frame)) {
        if (frame.type == net::FrameType::kGoodbye) {
          got_goodbye = true;
          const std::string why(frame.payload.begin(), frame.payload.end());
          EXPECT_NE(why.find("invalid chunk flags"), std::string::npos);
        }
      }
    }
    EXPECT_TRUE(got_goodbye);
    EXPECT_TRUE(closed);
  }
  EXPECT_GE(fx.server.loop_stats().protocol_errors, 1u);
  // The neighbor never noticed.
  EXPECT_EQ(neighbor.call(ping).status, server::wire::Status::kOk);
}

// --- many-connection harness ---------------------------------------------

std::size_t open_fd_count() {
  std::size_t n = 0;
  for (auto it = fs::directory_iterator("/proc/self/fd");
       it != fs::directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

struct HerdParam {
  std::size_t workers;
  std::size_t connections;
};

/// miniMarl-style fixture: a live server at an ephemeral port, swept
/// over {worker threads} x {connection count}, with TearDown proving no
/// leak survived the herd — file descriptors return to the baseline and
/// every admission slot is conserved.
class WithServerAt : public ::testing::TestWithParam<HerdParam> {
 protected:
  void SetUp() override {
    // 1024 sockets on each side of the loopback plus the archive needs
    // headroom beyond the default 1024 soft cap.
    rlimit lim{};
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &lim), 0);
    const rlim_t want = 8192;
    if (lim.rlim_cur < want) {
      rlimit raise = lim;
      raise.rlim_cur = std::min<rlim_t>(want, lim.rlim_max);
      ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &raise), 0);
    }
    const auto p = GetParam();
    store_ = std::make_unique<store::Store>(make_store(store_dir(
        ("herd_" + std::to_string(p.workers) + "_" +
         std::to_string(p.connections))
            .c_str())));
    fds_before_ = open_fd_count();
    service_ = std::make_unique<server::QueryService>(
        *store_,
        e2e::fixed_workers(p.workers, {.queue_limit = p.connections + 8}));
    server_ = std::make_unique<e2e::LoopbackServer>(*service_);
  }

  void TearDown() override {
    // Admission-slot conservation: whatever the herd did, accepted
    // requests all reached a terminal bucket and the queue is empty.
    const auto m = settled_metrics(*service_);
    EXPECT_EQ(m.queue_depth, 0u);
    EXPECT_EQ(m.accepted,
              m.served + m.shed + m.deadline_exceeded + m.cancelled + m.failed);

    server_.reset();
    service_.reset();

    // Leak check: with the loop (epoll fd, wake pipe, listener, every
    // connection) torn down, the process is back to its baseline.
    std::size_t fds_after = open_fd_count();
    for (int spins = 0; spins < 500 && fds_after > fds_before_; ++spins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      fds_after = open_fd_count();
    }
    EXPECT_LE(fds_after, fds_before_);
    store_.reset();
  }

  server::ClientOptions client_options() const {
    return server_->client_options();
  }

  std::unique_ptr<store::Store> store_;
  std::unique_ptr<server::QueryService> service_;
  std::unique_ptr<e2e::LoopbackServer> server_;
  std::size_t fds_before_ = 0;
};

TEST_P(WithServerAt, HerdGetsBitIdenticalAnswersAndLeaksNothing) {
  const auto p = GetParam();
  server::wire::Request req;
  req.method = server::wire::Method::kWindowSum;
  req.metric = 1;
  req.range = {0, 120};
  req.window = 10;
  const auto expected = canonical_bytes(service_->execute(req));

  // Open the whole herd first — the loop must hold every connection
  // concurrently — then work it, a mix of held-open idlers and callers.
  std::vector<std::unique_ptr<server::Client>> herd;
  herd.reserve(p.connections);
  for (std::size_t i = 0; i < p.connections; ++i) {
    herd.push_back(std::make_unique<server::Client>(client_options()));
  }
  for (auto& client : herd) {
    auto got = client->call(req);
    ASSERT_EQ(got.status, server::wire::Status::kOk);
    // Bit-parity at every point of the sweep, chunked and plain alike.
    EXPECT_EQ(canonical_bytes(got), expected);
  }
  // Every 8th connection re-asks over the chunked path.
  server::wire::Request chunked = req;
  chunked.chunk_bytes = 512;
  for (std::size_t i = 0; i < herd.size(); i += 8) {
    const auto got = herd[i]->call(chunked);
    ASSERT_EQ(got.status, server::wire::Status::kOk);
    EXPECT_EQ(canonical_bytes(got), expected);
  }
  for (int spins = 0;
       spins < 500 && server_->server().loop_stats().accepted < p.connections;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(server_->server().loop_stats().accepted, p.connections);
  herd.clear();  // TearDown proves the close wave leaks nothing
}

INSTANTIATE_TEST_SUITE_P(
    Herd, WithServerAt,
    ::testing::Values(HerdParam{1, 1}, HerdParam{1, 16}, HerdParam{4, 16},
                      HerdParam{2, 256}, HerdParam{4, 256},
                      HerdParam{4, 1024}),
    [](const ::testing::TestParamInfo<HerdParam>& info) {
      // Appended piecewise: g++ 12 -O3 misreads `"w" + std::string&&`
      // as an overlapping memcpy (-Wrestrict).
      std::string name = "w";
      name += std::to_string(info.param.workers);
      name += "_c";
      name += std::to_string(info.param.connections);
      return name;
    });

// --- scan_blocks wire form ------------------------------------------------

TEST(ScanBlocksWire, RequestExtensionRoundTrips) {
  server::wire::Request req;
  req.method = server::wire::Method::kScan;
  req.metrics = {1, 2};
  req.range = {0, 120};
  req.chunk_bytes = 4096;
  req.want_scan_blocks = true;
  const auto both =
      server::wire::decode_request(server::wire::encode_request(req));
  EXPECT_EQ(both.method, server::wire::Method::kScan);
  EXPECT_EQ(both.chunk_bytes, 4096u);
  EXPECT_TRUE(both.want_scan_blocks);

  // The block form is a field of its own, independent of chunking.
  req.chunk_bytes = 0;
  const auto lone =
      server::wire::decode_request(server::wire::encode_request(req));
  EXPECT_EQ(lone.chunk_bytes, 0u);
  EXPECT_TRUE(lone.want_scan_blocks);

  // kScanBlocks is a response-only method: a request asks with kScan
  // plus `want_scan_blocks`, never with the method itself.
  server::wire::Request bad;
  bad.method = server::wire::Method::kScanBlocks;
  EXPECT_THROW((void)server::wire::encode_request(bad),
               server::wire::WireError);
}

TEST(ScanBlocksWire, MaterializedResponseRoundTrips) {
  server::wire::Response resp;
  resp.status = server::wire::Status::kOk;
  resp.method = server::wire::Method::kScanBlocks;
  store::MetricRun a;
  a.id = 7;
  a.samples = {{1, 4.0}, {2, 5.0}, {2, 6.0}};
  store::MetricRun b;
  b.id = 9;  // empty run: begin + end, no pieces
  resp.runs = {a, b};
  resp.stats.lost_blocks = 1;
  resp.stats.cache_misses = 3;

  const auto back =
      server::wire::decode_response(server::wire::encode_response(resp));
  EXPECT_EQ(back.status, server::wire::Status::kOk);
  EXPECT_EQ(back.method, server::wire::Method::kScanBlocks);
  ASSERT_EQ(back.runs.size(), 2u);
  EXPECT_EQ(back.runs[0].id, 7u);
  ASSERT_EQ(back.runs[0].samples.size(), 3u);
  EXPECT_EQ(back.runs[0].samples[1].t, 2);
  EXPECT_EQ(back.runs[0].samples[1].value, 5.0);
  EXPECT_EQ(back.runs[1].id, 9u);
  EXPECT_TRUE(back.runs[1].samples.empty());
  EXPECT_EQ(back.stats.lost_blocks, 1u);
  EXPECT_EQ(back.stats.cache_misses, 3u);
}

TEST(ScanBlocksWire, StreamedRawBlockDecodesToSamples) {
  // Assemble the exact byte stream the streaming service produces: one
  // run carrying a still-encoded codec block plus a loose tail sample.
  std::vector<telemetry::MetricEvent> events;
  for (int i = 0; i < 64; ++i) {
    events.push_back({5, 10 + i, 100 - i});
  }
  const telemetry::EncodedBlock block = telemetry::encode_events(events);

  std::vector<std::uint8_t> bytes;
  server::wire::scan_blocks_begin(1, &bytes);
  server::wire::scan_blocks_run_begin(5, &bytes);
  server::wire::scan_blocks_block_header(
      static_cast<std::uint32_t>(block.bytes.size()), 64, &bytes);
  bytes.insert(bytes.end(), block.bytes.begin(), block.bytes.end());
  const ts::Sample loose{200, 1.0};
  server::wire::scan_blocks_samples({&loose, 1}, &bytes);
  server::wire::scan_blocks_run_end(&bytes);
  store::QueryStats stats;
  stats.cache_misses = 2;
  server::wire::scan_blocks_end(stats, &bytes);

  const auto resp = server::wire::decode_response(bytes);
  EXPECT_EQ(resp.method, server::wire::Method::kScanBlocks);
  ASSERT_EQ(resp.runs.size(), 1u);
  const auto& run = resp.runs[0];
  EXPECT_EQ(run.id, 5u);
  ASSERT_EQ(run.samples.size(), 65u);  // 64 decoded + 1 loose, sorted
  EXPECT_EQ(run.samples.front().t, 10);
  EXPECT_EQ(run.samples.front().value, 100.0);
  EXPECT_EQ(run.samples.back().t, 200);
  EXPECT_TRUE(std::is_sorted(run.samples.begin(), run.samples.end(),
                             store::sample_less));
  EXPECT_EQ(resp.stats.cache_misses, 2u);

  // A block whose declared event count disagrees with its payload is a
  // protocol violation, not a silent miscount.
  std::vector<std::uint8_t> tampered;
  server::wire::scan_blocks_begin(1, &tampered);
  server::wire::scan_blocks_run_begin(5, &tampered);
  server::wire::scan_blocks_block_header(
      static_cast<std::uint32_t>(block.bytes.size()), 63, &tampered);
  tampered.insert(tampered.end(), block.bytes.begin(), block.bytes.end());
  server::wire::scan_blocks_run_end(&tampered);
  server::wire::scan_blocks_end(stats, &tampered);
  EXPECT_THROW((void)server::wire::decode_response(tampered),
               server::wire::WireError);

  // So is an unknown piece tag.
  std::vector<std::uint8_t> unknown;
  server::wire::scan_blocks_begin(1, &unknown);
  server::wire::scan_blocks_run_begin(5, &unknown);
  unknown.push_back(7);
  server::wire::scan_blocks_end(stats, &unknown);
  EXPECT_THROW((void)server::wire::decode_response(unknown),
               server::wire::WireError);
}

TEST(ChunkedLoopback, BlockFormScanMatchesClassicRunForRun) {
  LoopbackFixture fx("scan_blocks");
  server::Client client(fx.client_options());

  // Full-range: every block lies wholly inside, so the server ships raw
  // encoded blocks and the client decodes them. Partial range: boundary
  // blocks decode server-side into loose samples. Both must reproduce
  // the classic scan exactly.
  for (const util::TimeRange range :
       {util::TimeRange{0, 120}, util::TimeRange{30, 90}}) {
    server::wire::Request req;
    req.method = server::wire::Method::kScan;
    req.metrics = {0, 1, 2, 3};
    req.range = range;
    const auto classic = client.call(req);
    ASSERT_EQ(classic.status, server::wire::Status::kOk);

    req.chunk_bytes = 600;
    req.want_scan_blocks = true;
    const auto blocks = client.call(req);
    ASSERT_EQ(blocks.status, server::wire::Status::kOk);
    EXPECT_EQ(blocks.method, server::wire::Method::kScanBlocks);
    ASSERT_EQ(blocks.runs.size(), classic.runs.size());
    for (std::size_t i = 0; i < classic.runs.size(); ++i) {
      EXPECT_EQ(blocks.runs[i].id, classic.runs[i].id);
      ASSERT_EQ(blocks.runs[i].samples.size(),
                classic.runs[i].samples.size())
          << "run " << i << " range [" << range.begin << ", " << range.end
          << ")";
      for (std::size_t j = 0; j < classic.runs[i].samples.size(); ++j) {
        EXPECT_EQ(blocks.runs[i].samples[j].t, classic.runs[i].samples[j].t);
        EXPECT_EQ(blocks.runs[i].samples[j].value,
                  classic.runs[i].samples[j].value);
      }
    }
    EXPECT_EQ(blocks.stats.lost_segments, 0u);
    EXPECT_EQ(blocks.stats.lost_blocks, 0u);
  }

  server::wire::Request stats_req;
  stats_req.method = server::wire::Method::kServerStats;
  const auto stats = client.call(stats_req);
  ASSERT_EQ(stats.status, server::wire::Status::kOk);
  EXPECT_GE(stats.server.get("stream.responses").value_or(0), 2.0);
}

}  // namespace
