#include "svc/client.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <span>
#include <thread>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "io/retry.hpp"
#include "svc/socket.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace repro::svc {

namespace {

repro::Result<int> connect_once(const ClientOptions& options) {
  REPRO_ASSIGN_OR_RETURN(
      const SocketAddress address,
      socket_address(options.socket_path, options.host, options.port));
  const int fd =
      ::socket(address.storage.ss_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return repro::internal_error(std::string("socket: ") +
                                 std::strerror(errno));
  }
  if (::connect(fd, address.get(), address.length) != 0) {
    const int err = errno;
    ::close(fd);
    return repro::unavailable("connect(" + address.name +
                              "): " + std::strerror(err));
  }
  return fd;
}

}  // namespace

ClientOptions endpoint_client_options(std::string_view endpoint,
                                      const ClientOptions& base) {
  ClientOptions options = base;
  options.socket_path.clear();
  options.port = 0;
  const std::size_t colon = endpoint.rfind(':');
  if (endpoint.find('/') != std::string_view::npos ||
      colon == std::string_view::npos) {
    options.socket_path = std::filesystem::path(endpoint);
    return options;
  }
  options.host = std::string(endpoint.substr(0, colon));
  options.port = static_cast<std::uint16_t>(
      std::strtoul(std::string(endpoint.substr(colon + 1)).c_str(),
                   nullptr, 10));
  return options;
}

repro::Result<Client> Client::connect(const ClientOptions& options) {
  // A refused or not-yet-bound socket at connect time is usually a startup
  // race against the daemon, not a dead daemon: retry with the policy's
  // capped backoff before giving up. Misconfiguration (bad address, too-long
  // path) fails immediately — no amount of waiting fixes it.
  static auto& connect_retries = [] () -> telemetry::Counter& {
    auto& registry = telemetry::MetricsRegistry::global();
    registry.describe("svc.client.connect_retries",
                      "client connect attempts retried after a transient "
                      "connect failure");
    return registry.counter("svc.client.connect_retries");
  }();
  const io::RetryPolicy& policy = options.connect_retry;
  const unsigned attempts = std::max(1u, policy.max_attempts);
  repro::Result<int> fd = connect_once(options);
  for (unsigned attempt = 1; !fd.is_ok() && attempt < attempts; ++attempt) {
    if (fd.status().code() == repro::StatusCode::kInvalidArgument) break;
    connect_retries.increment();
    io::backoff_sleep(policy, attempt);
    fd = connect_once(options);
  }
  REPRO_RETURN_IF_ERROR(fd.status());
  return Client(fd.value(), options);
}

Client::Client(Client&& other) noexcept
    : options_(std::move(other.options_)),
      fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      rx_(std::move(other.rx_)),
      chunk_rx_(std::move(other.chunk_rx_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    options_ = std::move(other.options_);
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    rx_ = std::move(other.rx_);
    chunk_rx_ = std::move(other.chunk_rx_);
  }
  return *this;
}

Client::~Client() { close(); }

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

repro::Status Client::send_request(Opcode op, std::uint64_t request_id,
                                   std::string_view payload, bool json,
                                   const WireTraceContext* trace) {
  if (fd_ < 0) return repro::failed_precondition("client is closed");
  std::vector<std::uint8_t> frame;
  append_request(frame, op, request_id, payload, json, trace);
  return send_all(fd_, frame);
}

repro::Result<Response> Client::recv_response() {
  if (fd_ < 0) return repro::failed_precondition("client is closed");
  const auto deadline =
      std::chrono::steady_clock::now() + options_.timeout;
  while (true) {
    DecodedFrame frame;
    const auto outcome = decode_frame(
        std::span<const std::uint8_t>(rx_.data(), rx_.size()),
        options_.max_frame_bytes, &frame);
    if (outcome == DecodeOutcome::kFrame) {
      rx_.erase(rx_.begin(),
                rx_.begin() + static_cast<std::ptrdiff_t>(frame.frame_bytes));
      if (frame.header.is_response() &&
          frame.header.code ==
              static_cast<std::uint16_t>(Opcode::kTimelineChunk)) {
        // One slice of a streamed response. Other responses may interleave
        // between a stream's chunks, so slices accumulate per request id
        // until the final-chunk frame completes the reassembly.
        ChunkAccum& accum = chunk_rx_[frame.header.request_id];
        accum.payload += frame.payload;
        ++accum.chunks;
        if ((frame.header.flags & kFlagFinalChunk) == 0) continue;
        Response response;
        response.status = WireStatus::kOk;
        response.request_id = frame.header.request_id;
        response.payload = std::move(accum.payload);
        response.chunks = accum.chunks;
        chunk_rx_.erase(frame.header.request_id);
        return response;
      }
      Response response;
      response.status = static_cast<WireStatus>(frame.header.code);
      response.request_id = frame.header.request_id;
      response.payload = std::move(frame.payload);
      return response;
    }
    if (outcome != DecodeOutcome::kNeedMoreData) {
      return repro::internal_error("malformed response frame from server");
    }

    const auto remaining = std::chrono::duration_cast<
        std::chrono::milliseconds>(deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return repro::unavailable("timed out waiting for response");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (io::errno_is_interrupt(errno)) continue;
      return repro::internal_error(std::string("poll: ") +
                                   std::strerror(errno));
    }
    if (ready == 0) {
      return repro::unavailable("timed out waiting for response");
    }
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      rx_.insert(rx_.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      return repro::unavailable("server closed the connection");
    }
    if (io::errno_is_interrupt(errno)) continue;
    return repro::unavailable(std::string("recv: ") + std::strerror(errno));
  }
}

repro::Result<Response> Client::call(Opcode op, std::string_view payload,
                                     bool json) {
  const std::uint64_t request_id = next_request_id_++;
  // The client-side request span is the root of the distributed trace: its
  // identity rides to the daemon in the trace-context trailer, where the
  // handler span adopts the trace id and links under this span. With
  // tracing disabled new_root() is invalid, no trailer is sent, and the
  // wire bytes are identical to a trailer-less peer's.
  telemetry::TraceSpan span("svc.client.call",
                            telemetry::TraceContext::new_root());
  span.arg("op", opcode_name(op)).arg("id", request_id);
  WireTraceContext trace;
  const telemetry::TraceContext ctx = span.context();
  if (ctx.valid()) {
    trace.trace_lo = ctx.trace_lo;
    trace.trace_hi = ctx.trace_hi;
    trace.parent_span_id = ctx.span_id;
  }
  REPRO_RETURN_IF_ERROR(send_request(op, request_id, payload, json,
                                     trace.valid() ? &trace : nullptr));
  // Responses on this connection are matched by request id; call() keeps
  // one request outstanding, so the next frame is ours — but skip any
  // stale frame defensively (a timed-out predecessor's late reply).
  while (true) {
    REPRO_ASSIGN_OR_RETURN(Response response, recv_response());
    if (response.request_id == request_id || response.request_id == 0) {
      span.arg("status", wire_status_name(response.status));
      return response;
    }
  }
}

repro::Result<Response> Client::watch_open(std::string_view json_payload) {
  return call(Opcode::kWatchOpen, json_payload);
}

repro::Result<Response> Client::watch_push(const WatchPushFrame& frame) {
  std::vector<std::uint8_t> payload;
  encode_watch_push(payload, frame);
  return call(Opcode::kWatchPush,
              std::string_view(reinterpret_cast<const char*>(payload.data()),
                               payload.size()),
              /*json=*/false);
}

repro::Result<Response> Client::watch_close() {
  return call(Opcode::kWatchClose, {});
}

}  // namespace repro::svc
