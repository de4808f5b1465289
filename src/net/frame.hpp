#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace exawatt::net {

/// Wire framing of the query service (all integers little-endian):
///
///   [4]  magic "EXWN"
///   [1]  u8  protocol version (kProtocolVersion)
///   [1]  u8  frame type (FrameType)
///   [2]  u16 flags (chunked-stream continuation bits; 0 on every other
///        frame)
///   [8]  u64 request id (echoed on responses/ticks of that request)
///   [4]  u32 payload length (bounded by kMaxPayload)
///   [4]  u32 CRC-32 of the payload (util::crc32, the store's checksum)
///   [..] payload
///
/// The decoder treats the wire as adversarial: every field is validated
/// before a single payload byte is trusted, lengths are bounded before
/// buffering, and any violation surfaces as a typed FrameError — the
/// server answers with a goodbye frame and closes, it never crashes.
inline constexpr std::uint8_t kFrameMagic[4] = {'E', 'X', 'W', 'N'};
/// The whole compatibility policy of the wire. Any change to a frame or
/// payload layout (a field added, removed or moved in a request,
/// response or tick) bumps it. A peer on another version is refused at
/// its first frame with a kBadVersion goodbye; no field is negotiated.
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Generous for any sane response (a day of 10 s windows is ~70 KB) but
/// small enough that a hostile length can't balloon server memory.
/// Responses larger than this must travel as a chunked stream.
inline constexpr std::size_t kMaxPayload = std::size_t{32} << 20;

/// Continuation flags of a chunked response stream. Exactly one may be
/// set, and only on kResponse frames; they appear on the wire only when
/// the request asked for chunking (`wire::Request::chunk_bytes`).
inline constexpr std::uint16_t kFrameFlagChunk = 0x1;  ///< fragment, more follow
inline constexpr std::uint16_t kFrameFlagFinal = 0x2;  ///< last fragment
/// Stream aborted mid-flight: the payload is a complete error response
/// that REPLACES every fragment streamed so far (a scan that hit its
/// deadline after three chunks cannot be unsent; it can be disowned).
inline constexpr std::uint16_t kFrameFlagAbort = 0x4;
inline constexpr std::uint16_t kFrameFlagMask = 0x7;

/// Reassembly cap: chunking exists to stream results *larger* than one
/// frame, but the assembled response must still be bounded somewhere.
inline constexpr std::size_t kMaxAssembledResponse = std::size_t{256} << 20;

enum class FrameType : std::uint8_t {
  kRequest = 1,   ///< client -> server; payload is a wire::Request
  kResponse = 2,  ///< server -> client; payload is a wire::Response
  kTick = 3,      ///< server -> client subscription push; wire::Tick
  kGoodbye = 4,   ///< connection-fatal notice; payload is a reason string
};

[[nodiscard]] const char* frame_type_name(FrameType type);

/// Why a frame (or stream) was rejected.
enum class FrameFault : std::uint8_t {
  kBadMagic = 0,
  kBadVersion,
  kBadType,
  kBadReserved,  ///< undefined flag bits set
  kOversized,    ///< declared payload length exceeds kMaxPayload
  kBadCrc,
  /// Continuation flags somewhere they cannot mean anything: a non-
  /// response frame, or more than one of chunk/final/abort at once.
  kBadChunkFlags,
  kChunkInterleaved,  ///< a chunk of another request inside an open stream
  kChunkTruncated,    ///< stream ended without its kFinal fragment
  kChunkOversized,    ///< assembled stream exceeds kMaxAssembledResponse
};

[[nodiscard]] const char* frame_fault_name(FrameFault fault);

/// Protocol-level framing violation. Once framing is lost there is no
/// way to resynchronize a byte stream, so every FrameFault is
/// connection-fatal (answered with kGoodbye, then close).
class FrameError : public std::runtime_error {
 public:
  FrameError(FrameFault fault, const std::string& detail)
      : std::runtime_error(std::string(frame_fault_name(fault)) +
                           (detail.empty() ? "" : ": " + detail)),
        fault_(fault) {}
  [[nodiscard]] FrameFault fault() const { return fault_; }

 private:
  FrameFault fault_;
};

struct Frame {
  FrameType type = FrameType::kRequest;
  std::uint64_t request_id = 0;
  std::uint16_t flags = 0;  ///< kFrameFlag* continuation bits
  std::vector<std::uint8_t> payload;
};

/// Serialize one frame (header + CRC + payload).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t request_id,
    std::span<const std::uint8_t> payload);
/// Same, with continuation flags (kResponse frames of a chunked stream).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t request_id,
    std::span<const std::uint8_t> payload, std::uint16_t flags);

/// Incremental, bounds-checked frame parser. Feed arbitrary byte chunks
/// (as the socket delivers them — possibly one byte at a time, the
/// slow-loris case); complete validated frames pop out of `next()`.
/// Header fields are validated as soon as the header is complete, so a
/// hostile length is rejected *before* any buffering is sized from it.
class FrameDecoder {
 public:
  /// Append bytes from the wire. Throws FrameError on any violation;
  /// after a throw the decoder is poisoned and must be discarded (the
  /// stream cannot be resynchronized).
  void feed(std::span<const std::uint8_t> bytes);

  /// Pop the next complete frame; false when more bytes are needed.
  [[nodiscard]] bool next(Frame& out);

  /// Bytes buffered but not yet popped (partial frame + queued frames).
  [[nodiscard]] std::size_t buffered_bytes() const;

 private:
  void validate_header();

  std::vector<std::uint8_t> buf_;  ///< header + payload of the open frame
  std::deque<Frame> ready_;
  std::size_t ready_bytes_ = 0;
  bool header_valid_ = false;
  bool poisoned_ = false;
  FrameType type_ = FrameType::kRequest;
  std::uint64_t request_id_ = 0;
  std::uint16_t flags_ = 0;
  std::uint32_t payload_len_ = 0;
  std::uint32_t payload_crc_ = 0;
};

/// Receive side of chunked response streams: feed every decoded frame
/// through it; chunk fragments are buffered (keyed by the single open
/// stream this connection may carry) and the completed response pops out
/// as one logical frame whose payload is byte-identical to the unchunked
/// encoding. Non-chunked frames — ticks interleaved with a stream,
/// responses to other requests, goodbyes — pass straight through.
///
/// Stream contract it enforces (violations throw a typed FrameError,
/// which is connection-fatal like every framing fault — a neighbor
/// connection's reassembly is untouched):
///  - fragments of one response are contiguous: a chunk/final/abort for a
///    different request id while a stream is open is kChunkInterleaved;
///  - a flag-less response for the open stream's id is kChunkTruncated
///    (the stream lost its kFinal), as is `finish()` with a stream open;
///  - the assembled payload is bounded by `max_bytes` (kChunkOversized).
class ChunkAssembler {
 public:
  explicit ChunkAssembler(std::size_t max_bytes = kMaxAssembledResponse)
      : max_bytes_(max_bytes) {}

  /// Consume one decoded frame. True: `frame` now holds a complete
  /// logical frame for the caller (possibly just reassembled, flags
  /// cleared). False: the fragment was buffered, read on.
  [[nodiscard]] bool feed(Frame& frame);

  /// Orderly end of the byte stream: throws kChunkTruncated when a chunk
  /// stream is still open (the peer hung up mid-response).
  void finish() const;

  [[nodiscard]] bool streaming() const { return open_; }
  [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size(); }

 private:
  std::size_t max_bytes_ = kMaxAssembledResponse;
  bool open_ = false;
  std::uint64_t stream_id_ = 0;
  std::vector<std::uint8_t> buf_;
};

}  // namespace exawatt::net
