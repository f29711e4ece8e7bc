#include "svc/wire.hpp"

#include <cstring>

#include "common/json.hpp"

namespace repro::svc {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value & 0xff));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = (value << 8) | p[i];
  return value;
}

}  // namespace

const char* opcode_name(Opcode op) noexcept {
  switch (op) {
    case Opcode::kPing: return "PING";
    case Opcode::kLoadRun: return "LOAD_RUN";
    case Opcode::kCompare: return "COMPARE";
    case Opcode::kTimeline: return "TIMELINE";
    case Opcode::kStats: return "STATS";
    case Opcode::kShutdown: return "SHUTDOWN";
    case Opcode::kWatchOpen: return "WATCH_OPEN";
    case Opcode::kWatchPush: return "WATCH_PUSH";
    case Opcode::kWatchClose: return "WATCH_CLOSE";
    case Opcode::kMetrics: return "METRICS";
    case Opcode::kTimelineChunk: return "TIMELINE_CHUNK";
  }
  return "UNKNOWN";
}

const char* wire_status_name(WireStatus status) noexcept {
  switch (status) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kBadRequest: return "BAD_REQUEST";
    case WireStatus::kNotFound: return "NOT_FOUND";
    case WireStatus::kTooManyRequests: return "TOO_MANY_REQUESTS";
    case WireStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WireStatus::kShuttingDown: return "SHUTTING_DOWN";
    case WireStatus::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

void append_frame(std::vector<std::uint8_t>& out, const FrameHeader& header,
                  std::string_view payload, const WireTraceContext* trace) {
  const bool with_trace = trace != nullptr && trace->valid();
  // Grow geometrically when appending to a nonempty buffer: an exact-size
  // reserve per frame would defeat amortized growth and make repeated
  // appends to one backlogged tx buffer quadratic.
  const std::size_t needed = out.size() + kFrameHeaderBytes + payload.size() +
                             (with_trace ? kTraceContextBytes : 0);
  if (needed > out.capacity()) {
    out.reserve(std::max(needed, out.capacity() * 2));
  }
  out.insert(out.end(), kWireMagic, kWireMagic + 4);
  put_u16(out, header.version);
  put_u16(out, header.code);
  put_u32(out, with_trace ? header.flags | kFlagTraceContext
                          : header.flags & ~kFlagTraceContext);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out, header.request_id);
  out.insert(out.end(), payload.begin(), payload.end());
  if (with_trace) {
    put_u64(out, trace->trace_lo);
    put_u64(out, trace->trace_hi);
    put_u64(out, trace->parent_span_id);
  }
}

void append_request(std::vector<std::uint8_t>& out, Opcode op,
                    std::uint64_t request_id, std::string_view payload,
                    bool json, const WireTraceContext* trace) {
  FrameHeader header;
  header.code = static_cast<std::uint16_t>(op);
  header.flags = payload.empty() || !json ? 0 : kFlagJsonPayload;
  header.request_id = request_id;
  append_frame(out, header, payload, trace);
}

void append_response(std::vector<std::uint8_t>& out, WireStatus status,
                     std::uint64_t request_id, std::string_view payload,
                     bool json) {
  FrameHeader header;
  header.code = static_cast<std::uint16_t>(status);
  header.flags =
      kFlagResponse | (payload.empty() || !json ? 0 : kFlagJsonPayload);
  header.request_id = request_id;
  append_frame(out, header, payload);
}

void append_chunk(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                  std::string_view slice, bool final) {
  FrameHeader header;
  header.code = static_cast<std::uint16_t>(Opcode::kTimelineChunk);
  header.flags =
      kFlagResponse | kFlagJsonPayload | (final ? kFlagFinalChunk : 0);
  header.request_id = request_id;
  append_frame(out, header, slice);
}

DecodeOutcome decode_frame(std::span<const std::uint8_t> buffer,
                           std::uint32_t max_frame_bytes,
                           DecodedFrame* frame) {
  if (buffer.empty()) return DecodeOutcome::kNeedMoreData;
  if (buffer.size() < 4) {
    // Reject wrong magic as soon as the mismatch is visible — a peer
    // speaking HTTP should not be able to stall us waiting for 24 bytes.
    if (std::memcmp(buffer.data(), kWireMagic, buffer.size()) != 0) {
      return DecodeOutcome::kBadMagic;
    }
    return DecodeOutcome::kNeedMoreData;
  }
  if (std::memcmp(buffer.data(), kWireMagic, 4) != 0) {
    return DecodeOutcome::kBadMagic;
  }
  if (buffer.size() < 6) return DecodeOutcome::kNeedMoreData;
  frame->header.version = get_u16(buffer.data() + 4);
  if (frame->header.version < kWireMinVersion ||
      frame->header.version > kWireVersion) {
    return DecodeOutcome::kBadVersion;
  }
  if (buffer.size() < 16) return DecodeOutcome::kNeedMoreData;
  frame->header.code = get_u16(buffer.data() + 6);
  frame->header.flags = get_u32(buffer.data() + 8);
  frame->header.payload_bytes = get_u32(buffer.data() + 12);
  // request_id occupies bytes [16, 24); when the oversize rejection below
  // fires from a 16-byte prefix those bytes may not have arrived yet, so
  // the error reply falls back to id 0.
  frame->header.request_id = buffer.size() >= kFrameHeaderBytes
                                 ? get_u64(buffer.data() + 16)
                                 : 0;
  // The flags field lives in the 16-byte prefix, so trailer bytes are part
  // of the early oversize check: a hostile peer cannot smuggle extra bytes
  // past max_frame_bytes by flagging a trailer.
  const std::uint64_t trailer_bytes =
      frame->header.has_trace_context() ? kTraceContextBytes : 0;
  const std::uint64_t total =
      kFrameHeaderBytes +
      static_cast<std::uint64_t>(frame->header.payload_bytes) + trailer_bytes;
  if (total > max_frame_bytes) return DecodeOutcome::kOversized;
  if (buffer.size() < kFrameHeaderBytes) return DecodeOutcome::kNeedMoreData;
  if (buffer.size() < total) return DecodeOutcome::kNeedMoreData;
  frame->payload.assign(
      reinterpret_cast<const char*>(buffer.data()) + kFrameHeaderBytes,
      frame->header.payload_bytes);
  frame->trace = WireTraceContext{};
  if (trailer_bytes != 0) {
    const std::uint8_t* trailer =
        buffer.data() + kFrameHeaderBytes + frame->header.payload_bytes;
    frame->trace.trace_lo = get_u64(trailer);
    frame->trace.trace_hi = get_u64(trailer + 8);
    frame->trace.parent_span_id = get_u64(trailer + 16);
    if (!frame->trace.valid()) return DecodeOutcome::kBadTraceContext;
  }
  frame->frame_bytes = static_cast<std::size_t>(total);
  return DecodeOutcome::kFrame;
}

std::string error_payload(std::string_view message) {
  std::string out = "{\"error\":";
  json_append_string(out, message);
  out += '}';
  return out;
}

void encode_watch_push(std::vector<std::uint8_t>& out,
                       const WatchPushFrame& frame) {
  out.reserve(out.size() + kWatchPushHeaderBytes +
              frame.entries.size() * kWatchPushEntryBytes);
  put_u64(out, frame.iteration);
  put_u32(out, frame.delta ? kWatchPushFlagDelta : 0);
  put_u32(out, static_cast<std::uint32_t>(frame.entries.size()));
  for (const merkle::DeltaNode& entry : frame.entries) {
    put_u64(out, entry.index);
    put_u64(out, entry.digest.lo);
    put_u64(out, entry.digest.hi);
  }
}

repro::Result<WatchPushFrame> decode_watch_push(
    std::span<const std::uint8_t> payload, std::uint64_t max_entries) {
  if (payload.size() < kWatchPushHeaderBytes) {
    return repro::invalid_argument("WATCH_PUSH payload truncated");
  }
  WatchPushFrame frame;
  frame.iteration = get_u64(payload.data());
  const std::uint32_t flags = get_u32(payload.data() + 8);
  frame.delta = (flags & kWatchPushFlagDelta) != 0;
  const std::uint64_t count = get_u32(payload.data() + 12);
  if (count == 0) {
    return repro::invalid_argument("WATCH_PUSH carries no entries");
  }
  if (count > max_entries) {
    return repro::invalid_argument("WATCH_PUSH entry count exceeds cap");
  }
  if (payload.size() !=
      kWatchPushHeaderBytes + count * kWatchPushEntryBytes) {
    return repro::invalid_argument(
        "WATCH_PUSH entry count disagrees with payload size");
  }
  frame.entries.resize(count);
  const std::uint8_t* p = payload.data() + kWatchPushHeaderBytes;
  for (std::uint64_t i = 0; i < count; ++i, p += kWatchPushEntryBytes) {
    frame.entries[i].index = get_u64(p);
    frame.entries[i].digest.lo = get_u64(p + 8);
    frame.entries[i].digest.hi = get_u64(p + 16);
    if (i > 0 && frame.entries[i].index <= frame.entries[i - 1].index) {
      return repro::invalid_argument(
          "WATCH_PUSH entries not strictly ascending by node index");
    }
  }
  return frame;
}

}  // namespace repro::svc
