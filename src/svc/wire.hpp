// Length-prefixed binary frame protocol spoken between `repro-cli serve`
// and its clients (docs/SERVICE.md, docs/FORMATS.md "Wire frames").
//
// Every message — request or response — is one frame:
//
//   offset  size  field
//   0       4     magic "RSVC"
//   4       2     version (little-endian u16, currently 2; v1 frames are
//                          still accepted — v2 only adds the TIMELINE_CHUNK
//                          continuation frame and the final-chunk flag)
//   6       2     code    (request: Opcode; response: WireStatus;
//                          chunked-response continuation: Opcode
//                          kTimelineChunk with the response flag set)
//   8       4     flags   (bit 0: response, bit 1: payload is JSON,
//                          bit 2: trace-context trailer follows payload,
//                          bit 3: final chunk of a streamed response)
//   12      4     payload_bytes (payload only; excludes the trailer)
//   16      8     request_id (echoed verbatim in the response)
//   24      payload_bytes of payload
//   +0      24    optional trace-context trailer (only when bit 2 is set):
//                 trace_id lo u64, trace_id hi u64, parent_span_id u64
//
// All integers are little-endian regardless of host order. The fixed-size
// header makes framing trivial to validate before any payload is buffered:
// a reader can reject garbage (bad magic/version) after 8 bytes and
// oversized frames after 16, without allocating payload space — the
// daemon's first line of defense against malformed or hostile peers.
// The trailer is strictly optional: peers that never set kFlagTraceContext
// interoperate with trace-aware peers unchanged, and the flags field is
// decodable from the same 16-byte prefix, so the early oversize rejection
// accounts for trailer bytes too.
//
// The payload codecs every peer shares live here too: the `{"error":...}`
// body of error replies and the binary WATCH_PUSH digest payload.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "merkle/flat.hpp"

namespace repro::svc {

inline constexpr std::uint8_t kWireMagic[4] = {'R', 'S', 'V', 'C'};
inline constexpr std::uint16_t kWireVersion = 2;
/// Oldest protocol revision decode_frame still accepts. v1 peers never emit
/// chunked responses, so their byte streams parse identically under v2.
inline constexpr std::uint16_t kWireMinVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;

/// Default cap on one frame's total size (header + payload). Requests are
/// small JSON documents; responses are bounded reports. Anything larger is
/// a protocol violation, not a big request.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 16u << 20;

inline constexpr std::uint32_t kFlagResponse = 1u << 0;
inline constexpr std::uint32_t kFlagJsonPayload = 1u << 1;
/// A 24-byte trace-context trailer follows the payload.
inline constexpr std::uint32_t kFlagTraceContext = 1u << 2;
/// Marks the last TIMELINE_CHUNK frame of a streamed response. A streamed
/// response is a run of kTimelineChunk frames sharing one request id whose
/// payload slices concatenate to the full (JSON) reply; every frame but the
/// last has this bit clear. Single-frame responses never set it.
inline constexpr std::uint32_t kFlagFinalChunk = 1u << 3;

/// Size of the optional trace-context trailer.
inline constexpr std::size_t kTraceContextBytes = 24;

/// Wire form of a propagated trace context: a 128-bit trace id plus the
/// sender's span id (which becomes the receiver's parent span). A context
/// with an all-zero trace id is meaningless; encoders must not emit one and
/// decoders reject it (DecodeOutcome::kBadTraceContext).
struct WireTraceContext {
  std::uint64_t trace_lo = 0;        ///< trace_id bytes [0, 8), LE
  std::uint64_t trace_hi = 0;        ///< trace_id bytes [8, 16), LE
  std::uint64_t parent_span_id = 0;  ///< trailer bytes [16, 24), LE

  [[nodiscard]] bool valid() const noexcept {
    return (trace_lo | trace_hi) != 0;
  }
};

enum class Opcode : std::uint16_t {
  kPing = 1,      ///< liveness probe; empty payload
  kLoadRun = 2,   ///< pre-warm the metadata cache with one run's sidecars
  kCompare = 3,   ///< two-stage compare of one checkpoint pair
  kTimeline = 4,  ///< first-divergence sweep over two runs' histories
  kStats = 5,     ///< cache + request counters
  kShutdown = 6,  ///< begin graceful drain
  // RSVC v2 verb set: live divergence monitoring (docs/SERVICE.md).
  kWatchOpen = 7,   ///< open a watch session against a reference run
  kWatchPush = 8,   ///< push one iteration's digests (binary RMFD entries)
  kWatchClose = 9,  ///< close the watch session; summary reply
  kMetrics = 10,    ///< Prometheus 0.0.4 text exposition of the registry
  // RSVC v2: streamed partial results (docs/FORMATS.md "Chunked responses").
  kTimelineChunk = 11,  ///< one bounded slice of a streamed TIMELINE reply;
                        ///< carried with kFlagResponse set, terminated by
                        ///< kFlagFinalChunk
};

enum class WireStatus : std::uint16_t {
  kOk = 0,
  kBadRequest = 1,       ///< malformed payload / unknown opcode
  kNotFound = 2,         ///< named run / checkpoint does not exist
  kTooManyRequests = 3,  ///< per-client in-flight cap hit (backpressure)
  kDeadlineExceeded = 4, ///< request timed out server-side
  kShuttingDown = 5,     ///< daemon is draining; retry against a new one
  kInternal = 6,         ///< handler failed; payload carries the status
};

[[nodiscard]] const char* opcode_name(Opcode op) noexcept;
[[nodiscard]] const char* wire_status_name(WireStatus status) noexcept;

struct FrameHeader {
  std::uint16_t version = kWireVersion;
  std::uint16_t code = 0;
  std::uint32_t flags = 0;
  std::uint32_t payload_bytes = 0;
  std::uint64_t request_id = 0;

  [[nodiscard]] bool is_response() const noexcept {
    return (flags & kFlagResponse) != 0;
  }
  [[nodiscard]] bool has_trace_context() const noexcept {
    return (flags & kFlagTraceContext) != 0;
  }
};

/// Appends one complete frame (header + payload, plus the trace-context
/// trailer when `trace` is non-null and valid — the flag bit is set
/// automatically). A null or invalid `trace` emits exactly the pre-trailer
/// byte stream.
void append_frame(std::vector<std::uint8_t>& out, const FrameHeader& header,
                  std::string_view payload,
                  const WireTraceContext* trace = nullptr);

/// Request frame: code = opcode, JSON payload flag set when non-empty and
/// `json` (WATCH_PUSH requests carry a binary digest payload instead).
/// `trace`, when non-null and valid, appends the trace-context trailer.
void append_request(std::vector<std::uint8_t>& out, Opcode op,
                    std::uint64_t request_id, std::string_view payload,
                    bool json = true,
                    const WireTraceContext* trace = nullptr);

/// Response frame: code = status, response flag set. `json` controls the
/// payload-format flag: METRICS replies carry Prometheus text, not JSON.
void append_response(std::vector<std::uint8_t>& out, WireStatus status,
                     std::uint64_t request_id, std::string_view payload,
                     bool json = true);

/// One continuation frame of a streamed (chunked) response: code =
/// kTimelineChunk with the response flag set, `slice` holding the next run
/// of payload bytes. `final` sets kFlagFinalChunk on the terminating frame.
/// The JSON flag is set on every chunk — it describes the reassembled
/// payload, not the individual slice.
void append_chunk(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                  std::string_view slice, bool final);

struct DecodedFrame {
  FrameHeader header;
  std::string payload;
  /// Trailer contents; valid() only when the frame carried one.
  WireTraceContext trace;
  /// Total bytes consumed from the buffer (header + payload + trailer).
  std::size_t frame_bytes = 0;
};

enum class DecodeOutcome {
  kNeedMoreData,  ///< prefix is consistent, frame incomplete
  kFrame,         ///< one complete frame decoded into *frame
  kBadMagic,      ///< stream is not speaking this protocol
  kBadVersion,    ///< protocol version mismatch
  kOversized,     ///< declared size exceeds max_frame_bytes; decoded header
                  ///< fields are valid in *frame for error replies
                  ///< (request_id when its 8 bytes have arrived, else 0)
  kBadTraceContext,  ///< trailer flag set but the trace id is all-zero —
                     ///< a malformed trailer, treated like bad framing
};

/// Attempts to decode one frame from the front of `buffer`. Garbage is
/// detected as early as the prefix allows: magic after 4 bytes, version
/// after 6, oversize after 16 (trailer bytes included in the size check,
/// since the flags live in the same prefix) — before any payload
/// accumulates.
[[nodiscard]] DecodeOutcome decode_frame(std::span<const std::uint8_t> buffer,
                                         std::uint32_t max_frame_bytes,
                                         DecodedFrame* frame);

/// The JSON payload of every error reply: `{"error":"<message>"}`.
[[nodiscard]] std::string error_payload(std::string_view message);

/// WATCH_PUSH binary payload (docs/FORMATS.md "WATCH_PUSH payload"):
///
///   offset  size  field
///   0       8     iteration (u64 LE)
///   8       4     flags (bit 0: delta — entries are relative to the
///                 previous pushed iteration; clear: full node array)
///   12      4     entry_count (u32 LE)
///   16      entry_count x 24 B  {u64 node_index, u64 digest_lo, u64
///                 digest_hi} — the RMFD entry encoding, strictly
///                 ascending by node index
inline constexpr std::size_t kWatchPushHeaderBytes = 16;
inline constexpr std::size_t kWatchPushEntryBytes = 24;
inline constexpr std::uint32_t kWatchPushFlagDelta = 1u << 0;

struct WatchPushFrame {
  std::uint64_t iteration = 0;
  bool delta = false;
  std::vector<merkle::DeltaNode> entries;
};

/// Encodes `frame` as a WATCH_PUSH payload (appended to `out`).
void encode_watch_push(std::vector<std::uint8_t>& out,
                       const WatchPushFrame& frame);

/// Decodes and validates one WATCH_PUSH payload. Errors (invalid argument)
/// on truncation, a declared count that disagrees with the payload size,
/// zero entries, more than `max_entries`, or unsorted node indices.
repro::Result<WatchPushFrame> decode_watch_push(
    std::span<const std::uint8_t> payload, std::uint64_t max_entries);

}  // namespace repro::svc
