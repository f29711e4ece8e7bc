// Blocking client for the reprod compare daemon.
//
// One Client owns one connection. call() is the synchronous happy path —
// send a request, wait (bounded by ClientOptions::timeout) for the
// response with the matching direction flag. send_request()/
// recv_response() are split out so callers can pipeline several requests
// onto one connection (the loopback test uses this to provoke the
// server's per-client in-flight cap).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "io/retry.hpp"
#include "svc/wire.hpp"

namespace repro::svc {

struct ClientOptions {
  /// Unix-domain socket path; when empty, TCP to host:port.
  std::filesystem::path socket_path;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Per-call deadline covering connect, send, and the response wait.
  std::chrono::milliseconds timeout{30000};
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Connect-time retry: ECONNREFUSED / a not-yet-bound unix socket during
  /// daemon startup is a race, not an error, so connect() retries with the
  /// policy's capped backoff before surfacing the failure. Each retry bumps
  /// the `svc.client.connect_retries` counter. RetryPolicy::none() restores
  /// the old fail-on-first-attempt behavior.
  io::RetryPolicy connect_retry = {};
};

struct Response {
  WireStatus status = WireStatus::kInternal;
  std::uint64_t request_id = 0;
  std::string payload;
  /// Number of TIMELINE_CHUNK frames this response was reassembled from;
  /// 0 for an ordinary single-frame response.
  std::uint32_t chunks = 0;

  [[nodiscard]] bool ok() const noexcept {
    return status == WireStatus::kOk;
  }
};

/// Builds per-endpoint ClientOptions from `base`: "host:port" when the
/// endpoint has a ':' and no '/', otherwise a unix-socket path (a
/// colon-less endpoint like "w0.sock" can only be a relative socket path —
/// a bare TCP host without a port has nothing to connect to).
[[nodiscard]] ClientOptions endpoint_client_options(
    std::string_view endpoint, const ClientOptions& base);

class Client {
 public:
  static repro::Result<Client> connect(const ClientOptions& options);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Sends one request and blocks for its response. `json` clears the
  /// payload-format flag for binary payloads (WATCH_PUSH). While tracing
  /// is enabled the call is wrapped in a `svc.client.call` TraceSpan whose
  /// identity travels to the daemon in the frame's trace-context trailer,
  /// so server-side handler spans link under this client span.
  repro::Result<Response> call(Opcode op, std::string_view payload,
                               bool json = true);

  /// WATCH session lifecycle (docs/SERVICE.md "Live monitoring").
  /// watch_open takes the session spec as a JSON document; watch_push
  /// encodes the frame's digest entries into the binary WATCH_PUSH
  /// payload; watch_close returns the session summary.
  repro::Result<Response> watch_open(std::string_view json_payload);
  repro::Result<Response> watch_push(const WatchPushFrame& frame);
  repro::Result<Response> watch_close();

  /// Pipelining primitives: send without waiting / wait for the next
  /// response frame on the wire (responses arrive in completion order;
  /// match them up via Response::request_id). `trace`, when non-null and
  /// valid, rides as the frame's trace-context trailer.
  repro::Status send_request(Opcode op, std::uint64_t request_id,
                             std::string_view payload, bool json = true,
                             const WireTraceContext* trace = nullptr);
  /// Returns the next complete response. TIMELINE_CHUNK continuation
  /// frames are reassembled transparently: slices accumulate per request
  /// id (other responses may interleave between a stream's chunks) and the
  /// stream surfaces as one kOk Response when its final-chunk frame lands.
  repro::Result<Response> recv_response();

  /// Closes the socket (further calls fail). Idempotent.
  void close() noexcept;

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  explicit Client(int fd, ClientOptions options)
      : options_(std::move(options)), fd_(fd) {}

  struct ChunkAccum {
    std::string payload;
    std::uint32_t chunks = 0;
  };

  ClientOptions options_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::vector<std::uint8_t> rx_;
  /// In-flight chunked responses keyed by request id.
  std::unordered_map<std::uint64_t, ChunkAccum> chunk_rx_;
};

}  // namespace repro::svc
