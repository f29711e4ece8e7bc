#include "svc/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace repro::svc {
namespace {

TEST(WireTest, RequestRoundTrip) {
  std::vector<std::uint8_t> buf;
  append_request(buf, Opcode::kCompare, 42,
                 R"({"file_a":"a.ckpt","file_b":"b.ckpt"})");
  ASSERT_GT(buf.size(), kFrameHeaderBytes);

  DecodedFrame frame;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kFrame);
  EXPECT_EQ(frame.header.version, kWireVersion);
  EXPECT_EQ(frame.header.code,
            static_cast<std::uint16_t>(Opcode::kCompare));
  EXPECT_EQ(frame.header.request_id, 42U);
  EXPECT_FALSE(frame.header.is_response());
  EXPECT_NE(frame.header.flags & kFlagJsonPayload, 0U);
  EXPECT_EQ(frame.payload, R"({"file_a":"a.ckpt","file_b":"b.ckpt"})");
  EXPECT_EQ(frame.frame_bytes, buf.size());
}

TEST(WireTest, ResponseRoundTrip) {
  std::vector<std::uint8_t> buf;
  append_response(buf, WireStatus::kNotFound, 7, R"({"error":"gone"})");

  DecodedFrame frame;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kFrame);
  EXPECT_TRUE(frame.header.is_response());
  EXPECT_EQ(frame.header.code,
            static_cast<std::uint16_t>(WireStatus::kNotFound));
  EXPECT_EQ(frame.header.request_id, 7U);
  EXPECT_EQ(frame.payload, R"({"error":"gone"})");
}

TEST(WireTest, EmptyPayloadClearsJsonFlag) {
  std::vector<std::uint8_t> buf;
  append_request(buf, Opcode::kPing, 1, "");
  DecodedFrame frame;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kFrame);
  EXPECT_EQ(frame.header.flags & kFlagJsonPayload, 0U);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(frame.frame_bytes, kFrameHeaderBytes);
}

TEST(WireTest, PartialHeaderNeedsMoreData) {
  std::vector<std::uint8_t> buf;
  append_request(buf, Opcode::kStats, 3, "{}");
  DecodedFrame frame;
  // Every consistent prefix short of the full frame asks for more bytes.
  for (std::size_t len = 0; len < buf.size(); ++len) {
    ASSERT_EQ(decode_frame({buf.data(), len}, kDefaultMaxFrameBytes, &frame),
              DecodeOutcome::kNeedMoreData)
        << "prefix length " << len;
  }
  EXPECT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kFrame);
}

TEST(WireTest, GarbageRejectedBeforeFullHeader) {
  // An HTTP request is recognizably not RSVC after four bytes.
  const std::string garbage = "GET / HTTP/1.1\r\n";
  DecodedFrame frame;
  EXPECT_EQ(
      decode_frame({reinterpret_cast<const std::uint8_t*>(garbage.data()),
                    garbage.size()},
                   kDefaultMaxFrameBytes, &frame),
      DecodeOutcome::kBadMagic);
  // Even a two-byte prefix that already mismatches is rejected early.
  const std::uint8_t two[] = {'G', 'E'};
  EXPECT_EQ(decode_frame({two, 2}, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kBadMagic);
}

TEST(WireTest, MatchingMagicPrefixWaitsForMore) {
  const std::uint8_t prefix[] = {'R', 'S'};
  DecodedFrame frame;
  EXPECT_EQ(decode_frame({prefix, 2}, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kNeedMoreData);
}

TEST(WireTest, VersionMismatchRejected) {
  std::vector<std::uint8_t> buf;
  append_request(buf, Opcode::kPing, 9, "");
  buf[4] = 0xFF;  // clobber the version field
  buf[5] = 0xFF;
  DecodedFrame frame;
  EXPECT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kBadVersion);
}

TEST(WireTest, OversizedFrameKeepsRequestIdForErrorReply) {
  std::vector<std::uint8_t> buf;
  append_request(buf, Opcode::kCompare, 1234, std::string(1024, 'x'));
  DecodedFrame frame;
  // A 64-byte cap rejects the kilobyte payload, but the decoded header
  // still carries the request id so the server can address its error.
  EXPECT_EQ(decode_frame(buf, 64, &frame), DecodeOutcome::kOversized);
  EXPECT_EQ(frame.header.request_id, 1234U);
  EXPECT_EQ(frame.header.code,
            static_cast<std::uint16_t>(Opcode::kCompare));
}

TEST(WireTest, OversizedFrameDetectedFromSixteenBytePrefix) {
  std::vector<std::uint8_t> buf;
  append_request(buf, Opcode::kCompare, 77, std::string(1024, 'x'));
  DecodedFrame frame;
  // The size declaration ends at offset 16; rejection must not wait for
  // the request id (docs/FORMATS.md: "oversize after 16").
  EXPECT_EQ(decode_frame({buf.data(), 16}, 64, &frame),
            DecodeOutcome::kOversized);
  EXPECT_EQ(frame.header.request_id, 0U);  // id bytes not buffered yet
  // Once the full header is present the id is decoded for the reply.
  EXPECT_EQ(decode_frame({buf.data(), kFrameHeaderBytes}, 64, &frame),
            DecodeOutcome::kOversized);
  EXPECT_EQ(frame.header.request_id, 77U);
}

TEST(WireTest, BackToBackFramesDecodeSequentially) {
  std::vector<std::uint8_t> buf;
  append_request(buf, Opcode::kPing, 1, "");
  append_request(buf, Opcode::kStats, 2, R"({"verbose":true})");

  DecodedFrame first;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &first),
            DecodeOutcome::kFrame);
  EXPECT_EQ(first.header.request_id, 1U);

  std::span<const std::uint8_t> rest{buf.data() + first.frame_bytes,
                                     buf.size() - first.frame_bytes};
  DecodedFrame second;
  ASSERT_EQ(decode_frame(rest, kDefaultMaxFrameBytes, &second),
            DecodeOutcome::kFrame);
  EXPECT_EQ(second.header.request_id, 2U);
  EXPECT_EQ(second.payload, R"({"verbose":true})");
  EXPECT_EQ(first.frame_bytes + second.frame_bytes, buf.size());
}

TEST(WireTest, TraceContextTrailerRoundTrip) {
  std::vector<std::uint8_t> buf;
  const WireTraceContext trace{0x1122334455667788ULL, 0x99aabbccddeeff00ULL,
                               0x0123456789abcdefULL};
  append_request(buf, Opcode::kCompare, 55, R"({"file_a":"a"})", true,
                 &trace);

  DecodedFrame frame;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kFrame);
  EXPECT_NE(frame.header.flags & kFlagTraceContext, 0U);
  EXPECT_TRUE(frame.header.has_trace_context());
  EXPECT_TRUE(frame.trace.valid());
  EXPECT_EQ(frame.trace.trace_lo, trace.trace_lo);
  EXPECT_EQ(frame.trace.trace_hi, trace.trace_hi);
  EXPECT_EQ(frame.trace.parent_span_id, trace.parent_span_id);
  EXPECT_EQ(frame.payload, R"({"file_a":"a"})");
  // payload_bytes excludes the trailer; frame_bytes includes it.
  EXPECT_EQ(frame.header.payload_bytes, frame.payload.size());
  EXPECT_EQ(frame.frame_bytes,
            kFrameHeaderBytes + frame.payload.size() + kTraceContextBytes);
  EXPECT_EQ(frame.frame_bytes, buf.size());
}

TEST(WireTest, InvalidTraceContextEmitsTrailerlessFrame) {
  // A null or all-zero trace context must produce exactly the byte stream
  // a trailer-unaware peer would: interop is bytewise, not best-effort.
  std::vector<std::uint8_t> plain;
  append_request(plain, Opcode::kPing, 3, "");
  std::vector<std::uint8_t> zeroed;
  const WireTraceContext invalid{};  // all-zero trace id: not valid()
  append_request(zeroed, Opcode::kPing, 3, "", true, &invalid);
  EXPECT_EQ(plain, zeroed);
}

TEST(WireTest, TraceContextTrailerEveryPrefixNeedsMoreData) {
  // The trailer extends the frame past header + payload; a truncated
  // trailer must never decode as a complete frame (or worse, as the next
  // frame's header).
  std::vector<std::uint8_t> buf;
  const WireTraceContext trace{7, 0, 9};
  append_request(buf, Opcode::kStats, 4, "{}", true, &trace);
  DecodedFrame frame;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    ASSERT_EQ(decode_frame({buf.data(), len}, kDefaultMaxFrameBytes, &frame),
              DecodeOutcome::kNeedMoreData)
        << "prefix length " << len;
  }
  EXPECT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kFrame);
}

TEST(WireTest, ZeroTraceIdTrailerIsBadTraceContext) {
  // Hand-craft a frame whose trailer flag is set but whose trace id is
  // all-zero: the decoder must flag it (the server answers one BAD_REQUEST
  // and closes) rather than hand the handler a meaningless identity.
  std::vector<std::uint8_t> buf;
  const WireTraceContext trace{1, 0, 2};
  append_request(buf, Opcode::kPing, 88, "", true, &trace);
  // Zero the 16 trace-id bytes (trailer starts right after the header —
  // the PING payload is empty).
  for (std::size_t i = kFrameHeaderBytes; i < kFrameHeaderBytes + 16; ++i) {
    buf[i] = 0;
  }
  DecodedFrame frame;
  EXPECT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kBadTraceContext);
  // The request id survives for the error reply.
  EXPECT_EQ(frame.header.request_id, 88U);
}

TEST(WireTest, TrailerCountsTowardOversizeFromSixteenBytePrefix) {
  // A frame whose payload alone fits the cap but whose trailer pushes the
  // total past it must be rejected — from the 16-byte prefix, where both
  // the size and the flags are known.
  std::vector<std::uint8_t> buf;
  const WireTraceContext trace{11, 22, 33};
  const std::string payload(40, 'p');  // 24 + 40 = 64 fits; + 24 does not
  append_request(buf, Opcode::kCompare, 5, payload, true, &trace);
  DecodedFrame frame;
  EXPECT_EQ(decode_frame({buf.data(), 16}, 64, &frame),
            DecodeOutcome::kOversized);
  // Without the trailer the same payload squeaks under the cap.
  std::vector<std::uint8_t> plain;
  append_request(plain, Opcode::kCompare, 5, payload);
  EXPECT_EQ(decode_frame(plain, 64, &frame), DecodeOutcome::kFrame);
}

TEST(WireTest, ResponsesNeverCarryTrailer) {
  std::vector<std::uint8_t> buf;
  append_response(buf, WireStatus::kOk, 12, "{}");
  DecodedFrame frame;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kFrame);
  EXPECT_EQ(frame.header.flags & kFlagTraceContext, 0U);
  EXPECT_FALSE(frame.trace.valid());
}

TEST(WireTest, NamesAreStable) {
  EXPECT_STREQ(opcode_name(Opcode::kCompare), "COMPARE");
  EXPECT_STREQ(opcode_name(Opcode::kShutdown), "SHUTDOWN");
  EXPECT_STREQ(opcode_name(Opcode::kTimelineChunk), "TIMELINE_CHUNK");
  EXPECT_STREQ(wire_status_name(WireStatus::kOk), "OK");
  EXPECT_STREQ(wire_status_name(WireStatus::kTooManyRequests),
               "TOO_MANY_REQUESTS");
}

TEST(WireTest, ChunkFrameRoundTrip) {
  std::vector<std::uint8_t> buf;
  append_chunk(buf, 99, R"({"part":)", /*final=*/false);
  append_chunk(buf, 99, "1}", /*final=*/true);

  DecodedFrame first;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &first),
            DecodeOutcome::kFrame);
  EXPECT_TRUE(first.header.is_response());
  EXPECT_EQ(first.header.code,
            static_cast<std::uint16_t>(Opcode::kTimelineChunk));
  EXPECT_EQ(first.header.request_id, 99U);
  EXPECT_NE(first.header.flags & kFlagJsonPayload, 0U);
  EXPECT_EQ(first.header.flags & kFlagFinalChunk, 0U);
  EXPECT_EQ(first.payload, R"({"part":)");

  DecodedFrame last;
  const std::span<const std::uint8_t> rest{buf.data() + first.frame_bytes,
                                           buf.size() - first.frame_bytes};
  ASSERT_EQ(decode_frame(rest, kDefaultMaxFrameBytes, &last),
            DecodeOutcome::kFrame);
  EXPECT_NE(last.header.flags & kFlagFinalChunk, 0U);
  EXPECT_EQ(last.header.request_id, 99U);
  // The slices concatenate to the full logical payload.
  EXPECT_EQ(first.payload + last.payload, R"({"part":1})");
}

TEST(WireTest, Version1FramesStillAccepted) {
  // v1 peers predate chunked streaming; the v2 decoder must keep
  // accepting their frames (kWireMinVersion).
  std::vector<std::uint8_t> buf;
  append_request(buf, Opcode::kPing, 5, "");
  const std::uint16_t v1 = 1;
  std::memcpy(buf.data() + 4, &v1, sizeof(v1));
  DecodedFrame frame;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kFrame);
  EXPECT_EQ(frame.header.version, 1U);
  EXPECT_EQ(frame.header.request_id, 5U);

  const std::uint16_t v3 = 3;
  std::memcpy(buf.data() + 4, &v3, sizeof(v3));
  EXPECT_EQ(decode_frame(buf, kDefaultMaxFrameBytes, &frame),
            DecodeOutcome::kBadVersion);
}

WatchPushFrame push_frame(std::uint64_t iteration, bool delta,
                          std::vector<std::uint64_t> indices) {
  WatchPushFrame frame;
  frame.iteration = iteration;
  frame.delta = delta;
  for (const std::uint64_t index : indices) {
    frame.entries.push_back({index, {index * 3 + 1, ~index}});
  }
  return frame;
}

std::vector<std::uint8_t> encoded(const WatchPushFrame& frame) {
  std::vector<std::uint8_t> out;
  encode_watch_push(out, frame);
  return out;
}

TEST(WatchPushCodecTest, FullAndDeltaFramesRoundTrip) {
  for (const bool delta : {false, true}) {
    const WatchPushFrame sent = push_frame(delta ? 12 : 10, delta, {0, 2, 9});
    const std::vector<std::uint8_t> payload = encoded(sent);
    ASSERT_EQ(payload.size(), kWatchPushHeaderBytes + 3 * kWatchPushEntryBytes);
    const auto got = decode_watch_push(payload, 16);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value().iteration, sent.iteration);
    EXPECT_EQ(got.value().delta, delta);
    EXPECT_EQ(got.value().entries, sent.entries);
  }
}

TEST(WatchPushCodecTest, RejectsEveryMalformedPayload) {
  const std::vector<std::uint8_t> good = encoded(push_frame(4, true, {1, 5}));
  auto rejected = [](std::span<const std::uint8_t> payload,
                     std::uint64_t max_entries) {
    const auto got = decode_watch_push(payload, max_entries);
    return !got.is_ok() &&
           got.status().code() == repro::StatusCode::kInvalidArgument;
  };
  ASSERT_FALSE(rejected(good, 2));

  // Truncated header.
  EXPECT_TRUE(rejected(std::span(good).first(kWatchPushHeaderBytes - 1), 2));
  // Zero entries.
  EXPECT_TRUE(rejected(encoded(push_frame(4, true, {})), 2));
  // More entries than the cap.
  EXPECT_TRUE(rejected(good, 1));
  // A count that disagrees with the payload size, short and long.
  EXPECT_TRUE(rejected(std::span(good).first(good.size() - 1), 2));
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_TRUE(rejected(padded, 2));
  // Node indices that do not strictly ascend.
  EXPECT_TRUE(rejected(encoded(push_frame(4, true, {5, 1})), 2));
  EXPECT_TRUE(rejected(encoded(push_frame(4, true, {3, 3})), 2));
}

}  // namespace
}  // namespace repro::svc
