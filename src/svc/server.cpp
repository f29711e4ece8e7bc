#include "svc/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ckpt/history.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "common/build_info.hpp"
#include "merkle/nodestore.hpp"
#include "par/thread_pool.hpp"
#include "svc/log_file.hpp"
#include "svc/monitor.hpp"
#include "svc/socket.hpp"
#include "telemetry/json_parse.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/trace.hpp"

namespace repro::svc {

namespace {

// ---------------------------------------------------------------------------
// Telemetry sites (registered once, process lifetime).

/// Microseconds from `from` to `to` (fractional).
double us_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) noexcept {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Per-request phase breakdown (docs/OBSERVABILITY.md). The six phases
/// partition a request's server-side wall time: queue wait, then the
/// handler's time split into cache lookup / sidecar load / compute /
/// serialize, then tx flush from handler done to reply written (for
/// dispatched verbs that includes the completion-queue hop to the loop
/// thread). Each boundary is one clock read shared by the phases on both
/// sides of it and by wall_us, so the phases add up to wall_us exactly.
struct RequestTimings {
  double queue_us = 0;
  double cache_lookup_us = 0;
  double sidecar_load_us = 0;
  double compute_us = 0;
  double serialize_us = 0;
  double tx_flush_us = 0;

  /// Closes the handler phase. Whatever the finer stopwatches did not
  /// claim (payload parse, catalog walks, the compare itself) is compute.
  void finish_handler(double handler_us) noexcept {
    compute_us = std::max(
        0.0, handler_us - cache_lookup_us - sidecar_load_us - serialize_us);
  }
};

struct SvcMetrics {
  telemetry::Counter& requests;
  telemetry::Counter& errors;
  telemetry::Counter& rejected_frames;
  telemetry::Counter& accept_errors;
  telemetry::Histogram& request_seconds;
  telemetry::Histogram& phase_queue;
  telemetry::Histogram& phase_cache_lookup;
  telemetry::Histogram& phase_sidecar_load;
  telemetry::Histogram& phase_compute;
  telemetry::Histogram& phase_serialize;
  telemetry::Histogram& phase_tx_flush;
  telemetry::Gauge& connections_open;
  telemetry::Gauge& requests_inflight;
  telemetry::Gauge& cache_bytes;

  void record_phases(const RequestTimings& t) noexcept {
    phase_queue.record(t.queue_us);
    phase_cache_lookup.record(t.cache_lookup_us);
    phase_sidecar_load.record(t.sidecar_load_us);
    phase_compute.record(t.compute_us);
    phase_serialize.record(t.serialize_us);
    phase_tx_flush.record(t.tx_flush_us);
  }

  static SvcMetrics& get() {
    static SvcMetrics* metrics = [] {
      auto& registry = telemetry::MetricsRegistry::global();
      registry.describe("svc.request.phase.queue_us",
                        "Microseconds a request waited between frame decode "
                        "and a worker picking it up.");
      registry.describe("svc.request.phase.cache_lookup_us",
                        "Microseconds spent in metadata-cache lookups "
                        "(excluding loader time on a miss).");
      registry.describe("svc.request.phase.sidecar_load_us",
                        "Microseconds spent loading and mapping sidecars on "
                        "cache misses.");
      registry.describe("svc.request.phase.compute_us",
                        "Microseconds of handler compute: payload parse, "
                        "compare and timeline work.");
      registry.describe("svc.request.phase.serialize_us",
                        "Microseconds spent building the response payload.");
      registry.describe("svc.request.phase.tx_flush_us",
                        "Microseconds from handler done to the response "
                        "written to the socket by the loop thread.");
      return new SvcMetrics{
          registry.counter("svc.requests"),
          registry.counter("svc.errors"),
          registry.counter("svc.rejected_frames"),
          registry.counter("svc.accept.errors"),
          registry.histogram("svc.request.seconds",
                             telemetry::latency_buckets_seconds()),
          registry.histogram("svc.request.phase.queue_us",
                             telemetry::micros_buckets()),
          registry.histogram("svc.request.phase.cache_lookup_us",
                             telemetry::micros_buckets()),
          registry.histogram("svc.request.phase.sidecar_load_us",
                             telemetry::micros_buckets()),
          registry.histogram("svc.request.phase.compute_us",
                             telemetry::micros_buckets()),
          registry.histogram("svc.request.phase.serialize_us",
                             telemetry::micros_buckets()),
          registry.histogram("svc.request.phase.tx_flush_us",
                             telemetry::micros_buckets()),
          registry.gauge("svc.connections.open"),
          registry.gauge("svc.requests.inflight"),
          registry.gauge("svc.cache.bytes"),
      };
    }();
    return *metrics;
  }
};

// ---------------------------------------------------------------------------
// Readiness: level-triggered epoll over the listener, the wake pipe and the
// client sockets.

class Epoll {
 public:
  Epoll() = default;
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;
  ~Epoll() {
    if (fd_ >= 0) ::close(fd_);
  }

  repro::Status open() {
    fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (fd_ < 0) {
      return repro::internal_error(std::string("epoll_create1: ") +
                                   std::strerror(errno));
    }
    return repro::Status::ok();
  }

  void add(int fd, bool want_write) { ctl(EPOLL_CTL_ADD, fd, want_write); }
  void update(int fd, bool want_write) { ctl(EPOLL_CTL_MOD, fd, want_write); }
  void remove(int fd) { ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Blocks up to timeout_ms (-1 = forever); EINTR returns no events.
  std::span<const epoll_event> wait(int timeout_ms) {
    const int n = ::epoll_wait(fd_, events_, kMaxEvents, timeout_ms);
    return {events_, static_cast<std::size_t>(std::max(n, 0))};
  }

 private:
  void ctl(int op, int fd, bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(fd_, op, fd, &ev);
  }

  static constexpr int kMaxEvents = 64;
  int fd_ = -1;
  epoll_event events_[kMaxEvents]{};
};

WireStatus wire_status_for(const repro::Status& status) {
  switch (status.code()) {
    case repro::StatusCode::kNotFound: return WireStatus::kNotFound;
    case repro::StatusCode::kInvalidArgument: return WireStatus::kBadRequest;
    default: return WireStatus::kInternal;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Server implementation.

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        cache(options.cache_bytes, options.cache_shards),
        monitor(MonitorOptions{.alert_path = options.alert_path,
                               .compare = options.compare,
                               .max_sessions = options.max_watch_sessions},
                &cache) {}

  ~Impl() {
    close_all();
    if (wake_fds[0] >= 0) ::close(wake_fds[0]);
    if (wake_fds[1] >= 0) ::close(wake_fds[1]);
  }

  /// One response being streamed as TIMELINE_CHUNK frames: the full
  /// payload is held here and sliced into bounded frames as the socket
  /// drains, so the tx buffer never holds more than a few chunks.
  struct ChunkStream {
    std::uint64_t request_id = 0;
    std::string payload;
    std::size_t offset = 0;
  };

  struct Connection {
    std::uint64_t id = 0;
    std::string peer;
    std::vector<std::uint8_t> rx;
    std::vector<std::uint8_t> tx;
    std::size_t tx_off = 0;
    std::uint32_t inflight = 0;
    bool close_after_flush = false;
    /// Pending chunked responses, streamed FIFO (ordinary responses may
    /// still interleave into tx between one stream's chunks).
    std::deque<ChunkStream> streams;
  };

  struct Ticket {
    int fd = -1;
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    Opcode op = Opcode::kPing;
    /// Client trace identity from the request's trace-context trailer
    /// (invalid when the peer sent none); echoed into the access record.
    WireTraceContext trace;
    std::uint64_t bytes_in = 0;
    std::chrono::steady_clock::time_point enqueued_at;
    std::chrono::steady_clock::time_point deadline;
  };

  struct Completion {
    std::uint64_t ticket = 0;
    WireStatus status = WireStatus::kOk;
    std::string payload;
    RequestTimings timings;
    bool cache_hit = false;
    /// When the handler finished: tx_flush_us runs from here, so the
    /// completion-queue hop to the loop thread is attributed.
    std::chrono::steady_clock::time_point handler_done;
  };

  ServerOptions options;
  MetadataCache cache;
  /// WATCH session table; loop-thread-owned like the connection map.
  Monitor monitor;
  std::chrono::steady_clock::time_point started_at;

  LogFile access_log;
  /// Closed (and its socket file removed) when a drain begins.
  Listener listener;
  int wake_fds[2] = {-1, -1};

  Epoll epoll;
  std::unique_ptr<par::ThreadPool> pool;

  std::unordered_map<int, Connection> connections;
  std::unordered_map<std::uint64_t, Ticket> tickets;
  std::uint64_t next_conn_id = 1;
  std::uint64_t next_ticket = 1;

  std::mutex completion_mu;
  std::vector<Completion> completions;

  std::atomic<bool> stop_requested{false};
  bool draining = false;
  bool started = false;
  std::chrono::steady_clock::time_point drain_deadline;

  // ---- wakeup ----------------------------------------------------------

  void wake() noexcept {
    const char byte = 1;
    // Async-signal-safe; EAGAIN means a wake is already pending.
    [[maybe_unused]] const auto n = ::write(wake_fds[1], &byte, 1);
  }

  // ---- lifecycle -------------------------------------------------------

  repro::Status start() {
    if (started) return repro::Status::ok();
    REPRO_RETURN_IF_ERROR(access_log.open(options.access_log_path));
    REPRO_RETURN_IF_ERROR(monitor.open_alert_log());
    if (::pipe2(wake_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      return repro::internal_error(std::string("pipe2: ") +
                                   std::strerror(errno));
    }
    REPRO_RETURN_IF_ERROR(epoll.open());
    REPRO_RETURN_IF_ERROR(
        listener.open(options.socket_path, "127.0.0.1", options.port));
    epoll.add(listener.fd(), false);
    epoll.add(wake_fds[0], false);
    pool = std::make_unique<par::ThreadPool>(
        std::max<std::size_t>(1, options.workers));
    started_at = std::chrono::steady_clock::now();
    started = true;
    return repro::Status::ok();
  }

  // ---- event loop ------------------------------------------------------

  repro::Status serve() {
    REPRO_RETURN_IF_ERROR(start());
    telemetry::Tracer::global().set_thread_name("svc-loop");
    REPRO_LOG_INFO << "reprod serving on " << endpoint();

    while (true) {
      if (stop_requested.load(std::memory_order_relaxed) && !draining) {
        begin_drain();
      }
      if (draining && tickets.empty() && all_flushed()) break;
      // A peer that never reads its socket must not pin the drain open
      // forever; past the deadline, buffered responses are abandoned.
      if (draining && std::chrono::steady_clock::now() >= drain_deadline) {
        REPRO_LOG_WARN << "drain deadline passed with " << tickets.size()
                       << " request(s) unfinished; forcing shutdown";
        break;
      }

      poll_once();
    }
    close_all();
    pool->wait_idle();
    SvcMetrics::get().connections_open.set(0);
    SvcMetrics::get().requests_inflight.set(0);
    REPRO_LOG_INFO << "reprod drained; " << SvcMetrics::get().requests.value()
                   << " requests served";
    return repro::Status::ok();
  }

  void poll_once() {
    for (const epoll_event& ev : epoll.wait(next_timeout_ms())) {
      if (ev.data.fd == listener.fd()) {
        accept_ready();
      } else if (ev.data.fd == wake_fds[0]) {
        drain_wake_pipe();
      } else {
        connection_ready(ev.data.fd, ev.events);
      }
    }
    apply_completions();
    expire_deadlines();
    publish_gauges();
  }

  int next_timeout_ms() {
    if (tickets.empty()) return 200;  // heartbeat for drain checks
    auto nearest = std::chrono::steady_clock::time_point::max();
    for (const auto& [id, ticket] : tickets) {
      nearest = std::min(nearest, ticket.deadline);
    }
    const auto now = std::chrono::steady_clock::now();
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        nearest - now)
                        .count();
    return static_cast<int>(std::clamp<long long>(ms, 0, 200));
  }

  void begin_drain() {
    draining = true;
    drain_deadline = std::chrono::steady_clock::now() +
                     options.request_timeout +
                     std::chrono::milliseconds(2000);
    if (listener.fd() >= 0) {
      epoll.remove(listener.fd());
      listener.close();
    }
    REPRO_LOG_INFO << "reprod draining: " << tickets.size()
                   << " request(s) in flight, " << connections.size()
                   << " connection(s) open";
  }

  [[nodiscard]] bool all_flushed() const {
    for (const auto& [fd, conn] : connections) {
      if (conn.tx_off < conn.tx.size()) return false;
      if (!conn.streams.empty()) return false;
    }
    return true;
  }

  // ---- accept ----------------------------------------------------------

  void accept_ready() {
    unsigned transient_faults = 0;
    while (true) {
      sockaddr_storage addr{};
      socklen_t addr_len = sizeof(addr);
      const int fd =
          ::accept4(listener.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &addr_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (io::errno_is_interrupt(errno) || errno == ECONNABORTED) continue;
        // EMFILE/ENFILE/ENOMEM storms: count, back off briefly, retry a
        // bounded number of times, then leave the listener registered —
        // the next readiness event retries naturally.
        SvcMetrics::get().accept_errors.increment();
        if (io::errno_is_transient_io(errno) &&
            ++transient_faults < options.socket_retry.max_attempts) {
          io::backoff_sleep(options.socket_retry, transient_faults);
          continue;
        }
        REPRO_LOG_WARN << "accept failed: " << std::strerror(errno);
        return;
      }
      Connection conn;
      conn.id = next_conn_id++;
      conn.peer = peer_name(addr);
      connections.emplace(fd, std::move(conn));
      epoll.add(fd, false);
    }
  }

  // ---- per-connection I/O ---------------------------------------------

  void connection_ready(int fd, std::uint32_t events) {
    // Hangup counts as readable: the read() that returns 0 (or the
    // remaining buffered bytes) is how the close is actually observed.
    if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      auto it = connections.find(fd);
      if (it == connections.end()) return;
      if (!read_from(fd, it->second)) {
        drop_connection(fd);
        return;
      }
      parse_frames(fd, it->second);
    }
    // Re-find: parse_frames may have dropped the connection (framing
    // violation, peer error mid-response).
    auto it = connections.find(fd);
    if (it == connections.end()) return;
    if ((events & EPOLLOUT) != 0) {
      if (!flush_tx(fd, it->second)) {
        drop_connection(fd);
        return;
      }
      pump_streams(fd, it->second);
    }
  }

  /// Reads until EAGAIN. Returns false when the peer is gone.
  bool read_from(int fd, Connection& conn) {
    std::uint8_t buf[64 * 1024];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        conn.rx.insert(conn.rx.end(), buf, buf + n);
        continue;
      }
      if (n == 0) return false;  // orderly shutdown
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (io::errno_is_interrupt(errno)) continue;
      return false;  // ECONNRESET and friends
    }
  }

  void parse_frames(int fd, Connection& conn) {
    if (conn.close_after_flush) {
      // Connection is already being shed; discard whatever the peer keeps
      // sending so rx cannot grow while the close drains.
      conn.rx.clear();
      return;
    }
    std::size_t consumed = 0;
    while (consumed < conn.rx.size()) {
      DecodedFrame frame;
      const auto outcome = decode_frame(
          std::span<const std::uint8_t>(conn.rx.data() + consumed,
                                        conn.rx.size() - consumed),
          options.max_frame_bytes, &frame);
      if (outcome == DecodeOutcome::kNeedMoreData) break;
      if (outcome == DecodeOutcome::kFrame) {
        consumed += frame.frame_bytes;
        handle_frame(fd, conn, frame);
        if (connections.find(fd) == connections.end()) return;  // dropped
        if (conn.close_after_flush) {  // shed mid-batch (tx cap)
          conn.rx.clear();
          return;
        }
        continue;
      }
      // Framing violations: the byte stream cannot be resynchronized, so
      // answer once and close after the reply flushes. Mutate `conn`
      // before send_response — it may drop the connection internally.
      SvcMetrics::get().rejected_frames.increment();
      const char* reason =
          outcome == DecodeOutcome::kBadMagic     ? "bad magic"
          : outcome == DecodeOutcome::kBadVersion ? "unsupported version"
          : outcome == DecodeOutcome::kBadTraceContext
              ? "malformed trace context"
              : "oversized frame";
      const std::uint64_t request_id =
          outcome == DecodeOutcome::kOversized ||
                  outcome == DecodeOutcome::kBadTraceContext
              ? frame.header.request_id
              : 0;
      conn.rx.clear();
      conn.close_after_flush = true;
      send_response(fd, conn, WireStatus::kBadRequest, request_id,
                    error_payload(reason));
      return;
    }
    conn.rx.erase(conn.rx.begin(), conn.rx.begin() + consumed);
  }

  /// Queues one response and flushes what the socket accepts. May drop the
  /// connection (peer error, or close-after-flush fully drained) — callers
  /// must not touch `conn` afterwards without re-lookup.
  void send_response(int fd, Connection& conn, WireStatus status,
                     std::uint64_t request_id, std::string_view payload,
                     bool json = true) {
    append_response(conn.tx, status, request_id, payload, json);
    if (!conn.close_after_flush &&
        conn.tx.size() - conn.tx_off > options.max_tx_buffer_bytes) {
      // The peer is not reading its replies; stop growing tx on its
      // behalf. parse_frames() ignores further requests from a doomed
      // connection, so buffered memory stays bounded by the cap plus one
      // response regardless of flood rate.
      SvcMetrics::get().errors.increment();
      REPRO_LOG_WARN << "connection " << conn.id << " exceeded tx cap ("
                     << conn.tx.size() - conn.tx_off
                     << " bytes unread); shedding";
      conn.close_after_flush = true;
    }
    if (!flush_tx(fd, conn)) {
      drop_connection(fd);
      return;
    }
    if (conn.tx_off < conn.tx.size()) epoll.update(fd, true);
  }

  /// Writes as much buffered tx as the socket accepts. Returns false when
  /// the connection should be dropped: peer gone, or a close-after-flush
  /// reply fully drained. Never drops the connection itself.
  [[nodiscard]] bool flush_tx(int fd, Connection& conn) {
    while (conn.tx_off < conn.tx.size()) {
      // MSG_NOSIGNAL: a peer that vanished mid-flush must surface as EPIPE
      // on the drop path below, not as a process-killing SIGPIPE.
      const ssize_t n = ::send(fd, conn.tx.data() + conn.tx_off,
                               conn.tx.size() - conn.tx_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.tx_off += static_cast<std::size_t>(n);
        continue;
      }
      // A zero return leaves errno stale; treat it as "no progress" and
      // wait for the next writable event rather than misreading errno.
      if (n == 0) return true;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (io::errno_is_interrupt(errno)) continue;
      return false;  // EPIPE/ECONNRESET
    }
    conn.tx.clear();
    conn.tx_off = 0;
    if (conn.close_after_flush) return false;
    epoll.update(fd, false);
    return true;
  }

  /// Slice size for streamed responses: small enough that pacing keeps the
  /// tx backlog well under the shed cap, large enough to amortize the
  /// 24-byte header.
  [[nodiscard]] std::size_t stream_chunk_bytes() const {
    return std::clamp<std::size_t>(options.max_tx_buffer_bytes / 4,
                                   std::size_t{1} << 10,
                                   std::size_t{256} << 10);
  }

  /// Appends chunk frames from the connection's pending streams while the
  /// tx backlog sits below half the shed cap. Combined with the chunk size
  /// cap this bounds the backlog at ~3/4 of max_tx_buffer_bytes, so a
  /// streamed response can never trip the flood-shedding path in
  /// send_response — that path is for peers that stop reading, and a
  /// stream only advances when the peer drains tx. May drop the connection
  /// (peer gone mid-flush); callers must re-look-up `conn` afterwards.
  void pump_streams(int fd, Connection& conn) {
    if (conn.streams.empty()) return;
    if (conn.close_after_flush) {
      // The connection is doomed; its streams have nowhere to go.
      conn.streams.clear();
      return;
    }
    const std::size_t chunk = stream_chunk_bytes();
    const std::size_t high_water = options.max_tx_buffer_bytes / 2;
    bool appended = false;
    while (!conn.streams.empty() &&
           conn.tx.size() - conn.tx_off < high_water) {
      ChunkStream& stream = conn.streams.front();
      const std::size_t n =
          std::min(chunk, stream.payload.size() - stream.offset);
      const bool final = stream.offset + n == stream.payload.size();
      append_chunk(conn.tx, stream.request_id,
                   std::string_view(stream.payload)
                       .substr(stream.offset, n),
                   final);
      stream.offset += n;
      appended = true;
      if (final) conn.streams.pop_front();
    }
    if (!appended) return;
    if (!flush_tx(fd, conn)) {
      drop_connection(fd);
      return;
    }
    if (conn.tx_off < conn.tx.size() || !conn.streams.empty()) {
      epoll.update(fd, true);
    }
  }

  void drop_connection(int fd) {
    auto it = connections.find(fd);
    if (it == connections.end()) return;
    // Abandon this connection's in-flight requests: results have nowhere
    // to go. The handler still runs to completion; apply_completions()
    // drops results whose ticket is gone. A WATCH session dies with its
    // connection (one session per connection).
    monitor.drop(it->second.id);
    std::erase_if(tickets, [&](const auto& entry) {
      return entry.second.conn_id == it->second.id;
    });
    epoll.remove(fd);
    ::close(fd);
    connections.erase(it);
  }

  void close_all() {
    std::vector<int> fds;
    fds.reserve(connections.size());
    for (const auto& [fd, conn] : connections) fds.push_back(fd);
    for (const int fd : fds) drop_connection(fd);
  }

  // ---- access log ------------------------------------------------------

  /// Appends one `repro.svc.access` v1 record: the shared fields, then the
  /// six phases, cache_hit and slow. Written after the reply is flushed.
  void emit_access(const AccessFields& fields, const RequestTimings& t,
                   bool cache_hit) {
    if (!access_log.enabled()) return;
    std::string line = access_record(fields);
    bool first = false;
    append_kv(line, "queue_us", t.queue_us, &first);
    append_kv(line, "cache_lookup_us", t.cache_lookup_us, &first);
    append_kv(line, "sidecar_load_us", t.sidecar_load_us, &first);
    append_kv(line, "compute_us", t.compute_us, &first);
    append_kv(line, "serialize_us", t.serialize_us, &first);
    append_kv(line, "tx_flush_us", t.tx_flush_us, &first);
    append_kv_bool(line, "cache_hit", cache_hit, &first);
    append_kv_bool(
        line, "slow",
        fields.wall_us >= static_cast<double>(options.slow_request_ms) * 1000.0,
        &first);
    line += '}';
    access_log.write_line(std::move(line));
  }

  /// Inline replies (answered on the loop thread, no ticket) funnel through
  /// here so PING/STATS/METRICS and immediate errors land in the access log
  /// and phase histograms alongside dispatched work. The caller fills in
  /// the finer phases it measured (serialize); the handler phase closes
  /// here, and the rest of it is compute. May drop the connection via
  /// send_response — conn state is snapshotted first.
  void reply_logged(int fd, Connection& conn, std::string_view verb,
                    WireStatus status, const DecodedFrame& frame,
                    std::string_view payload, RequestTimings t,
                    std::chrono::steady_clock::time_point received_at,
                    bool json = true) {
    const std::uint64_t conn_id = conn.id;
    const std::string peer = conn.peer;
    // The server-side handler span for inline verbs. Linking under the
    // client's request span (via the trace-context trailer, when present)
    // is what lets trace-merge join the two --trace-out files — PING pairs
    // especially, which anchor the clock-offset estimate.
    telemetry::TraceSpan span(
        "svc.request",
        telemetry::TraceContext{frame.trace.trace_hi, frame.trace.trace_lo,
                                frame.trace.parent_span_id});
    span.arg("op", verb)
        .arg("id", frame.header.request_id)
        .arg("status", wire_status_name(status));
    const auto handler_done = std::chrono::steady_clock::now();
    t.finish_handler(us_between(received_at, handler_done));
    send_response(fd, conn, status, frame.header.request_id, payload, json);
    const auto sent = std::chrono::steady_clock::now();
    t.tx_flush_us = us_between(handler_done, sent);
    SvcMetrics::get().record_phases(t);
    emit_access({.verb = verb,
                 .status = status,
                 .request_id = frame.header.request_id,
                 .conn = conn_id,
                 .peer = peer,
                 .bytes_in = frame.frame_bytes,
                 .bytes_out = kFrameHeaderBytes + payload.size(),
                 .wall_us = us_between(received_at, sent),
                 .trace = frame.trace},
                t, /*cache_hit=*/false);
  }

  // ---- request handling ------------------------------------------------

  void handle_frame(int fd, Connection& conn, const DecodedFrame& frame) {
    SvcMetrics::get().requests.increment();
    const auto received_at = std::chrono::steady_clock::now();
    const std::uint64_t request_id = frame.header.request_id;
    if (frame.header.is_response()) {
      reply_logged(fd, conn, "RESPONSE", WireStatus::kBadRequest, frame,
                   error_payload("response frame sent to server"),
                   RequestTimings{}, received_at);
      return;
    }
    const auto op = static_cast<Opcode>(frame.header.code);
    switch (op) {
      case Opcode::kPing:
        reply_logged(fd, conn, opcode_name(op), WireStatus::kOk, frame,
                     "{\"ok\":true}", RequestTimings{}, received_at);
        return;
      case Opcode::kStats: {
        RequestTimings t;
        Stopwatch serialize_clock;
        const std::string payload = stats_payload();
        t.serialize_us = serialize_clock.seconds() * 1e6;
        reply_logged(fd, conn, opcode_name(op), WireStatus::kOk, frame,
                     payload, t, received_at);
        return;
      }
      case Opcode::kShutdown:
        reply_logged(fd, conn, opcode_name(op), WireStatus::kOk, frame,
                     "{\"draining\":true}", RequestTimings{}, received_at);
        stop_requested.store(true, std::memory_order_relaxed);
        return;
      case Opcode::kMetrics: {
        // Prometheus 0.0.4 text exposition of the whole registry; the
        // payload is plain text, so the JSON flag stays clear.
        telemetry::TraceSpan span("svc.metrics");
        span.arg("id", request_id);
        RequestTimings t;
        Stopwatch serialize_clock;
        const std::string payload = telemetry::render_prometheus(
            telemetry::MetricsRegistry::global().snapshot());
        t.serialize_us = serialize_clock.seconds() * 1e6;
        reply_logged(fd, conn, opcode_name(op), WireStatus::kOk, frame,
                     payload, t, received_at, /*json=*/false);
        return;
      }
      case Opcode::kWatchOpen:
      case Opcode::kWatchPush:
      case Opcode::kWatchClose:
        // WATCH sessions are loop-thread state (no ticket, no pool hop):
        // frontier updates are cheap digest work and per-connection push
        // ordering falls out of the single-threaded dispatch.
        if (draining) {
          reply_logged(fd, conn, opcode_name(op), WireStatus::kShuttingDown,
                       frame, error_payload("daemon is draining"),
                       RequestTimings{}, received_at);
          return;
        }
        handle_watch(fd, conn, op, frame, received_at);
        return;
      case Opcode::kCompare:
      case Opcode::kTimeline:
      case Opcode::kLoadRun:
        break;
      default:
        SvcMetrics::get().errors.increment();
        reply_logged(fd, conn, opcode_name(op), WireStatus::kBadRequest,
                     frame, error_payload("unknown opcode"), RequestTimings{},
                     received_at);
        return;
    }

    if (draining) {
      reply_logged(fd, conn, opcode_name(op), WireStatus::kShuttingDown,
                   frame, error_payload("daemon is draining"),
                   RequestTimings{}, received_at);
      return;
    }
    if (conn.inflight >= options.max_inflight_per_client) {
      SvcMetrics::get().errors.increment();
      reply_logged(fd, conn, opcode_name(op), WireStatus::kTooManyRequests,
                   frame, error_payload("per-client in-flight cap reached"),
                   RequestTimings{}, received_at);
      return;
    }

    const std::uint64_t ticket_id = next_ticket++;
    Ticket ticket;
    ticket.fd = fd;
    ticket.conn_id = conn.id;
    ticket.request_id = request_id;
    ticket.op = op;
    ticket.trace = frame.trace;
    ticket.bytes_in = frame.frame_bytes;
    ticket.enqueued_at = received_at;
    ticket.deadline = received_at + options.request_timeout;
    tickets.emplace(ticket_id, ticket);
    ++conn.inflight;

    pool->submit([this, ticket_id, op, request_id, received_at,
                  trace = frame.trace, payload = frame.payload]() {
      Completion done;
      done.ticket = ticket_id;
      const auto picked_up = std::chrono::steady_clock::now();
      done.timings.queue_us = us_between(received_at, picked_up);
      // The handler span adopts the trace identity from the request's
      // trace-context trailer (when present) and links under the client's
      // request span, so both processes' --trace-out files join into one
      // causal timeline. A trailer-less request gets a plain root span.
      telemetry::TraceSpan span(
          "svc.request",
          telemetry::TraceContext{trace.trace_hi, trace.trace_lo,
                                  trace.parent_span_id});
      span.arg("op", opcode_name(op)).arg("id", request_id);
      run_handler(op, payload, &done);
      done.handler_done = std::chrono::steady_clock::now();
      const double handler_us = us_between(picked_up, done.handler_done);
      SvcMetrics::get().request_seconds.record(handler_us * 1e-6);
      done.timings.finish_handler(handler_us);
      if (done.status != WireStatus::kOk) {
        SvcMetrics::get().errors.increment();
      }
      span.arg("status", wire_status_name(done.status));
      {
        std::lock_guard<std::mutex> lock(completion_mu);
        completions.push_back(std::move(done));
      }
      wake();
    });
  }

  /// WATCH_OPEN / WATCH_PUSH / WATCH_CLOSE, inline on the loop thread. The
  /// span carries the client's request_id — and, when the frame arrived
  /// with a trace-context trailer, links under the client's request span —
  /// so a slow push is attributable end-to-end in the merged trace.
  void handle_watch(int fd, Connection& conn, Opcode op,
                    const DecodedFrame& frame,
                    std::chrono::steady_clock::time_point received_at) {
    telemetry::TraceSpan span(
        "svc.watch",
        telemetry::TraceContext{frame.trace.trace_hi, frame.trace.trace_lo,
                                frame.trace.parent_span_id});
    span.arg("op", opcode_name(op)).arg("id", frame.header.request_id);
    WatchReply reply;
    switch (op) {
      case Opcode::kWatchOpen:
        reply = monitor.open(conn.id, frame.payload, span.context());
        break;
      case Opcode::kWatchPush:
        reply = monitor.push(conn.id, frame.payload, span.context());
        break;
      default:
        reply = monitor.close(conn.id);
        break;
    }
    span.arg("status", wire_status_name(reply.status));
    if (reply.status != WireStatus::kOk) {
      SvcMetrics::get().errors.increment();
      if (op == Opcode::kWatchPush &&
          reply.status == WireStatus::kBadRequest) {
        // A malformed or out-of-order push poisons the digest stream the
        // same way a framing violation poisons the byte stream: answer
        // once, then close (docs/SERVICE.md robustness contract).
        SvcMetrics::get().rejected_frames.increment();
        monitor.drop(conn.id);
        conn.rx.clear();
        conn.close_after_flush = true;
      }
    }
    reply_logged(fd, conn, opcode_name(op), reply.status, frame,
                 reply.payload, RequestTimings{}, received_at);
  }

  void apply_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completion_mu);
      batch.swap(completions);
    }
    for (auto& done : batch) {
      auto it = tickets.find(done.ticket);
      if (it == tickets.end()) {
        // Timed out or client vanished: the response has nowhere to go,
        // but the work happened — the phase histograms still count it.
        SvcMetrics::get().record_phases(done.timings);
        continue;
      }
      const Ticket ticket = it->second;
      tickets.erase(it);
      auto conn_it = connections.find(ticket.fd);
      if (conn_it == connections.end() ||
          conn_it->second.id != ticket.conn_id) {
        continue;
      }
      if (conn_it->second.inflight > 0) --conn_it->second.inflight;
      // Snapshot before send_response: it may drop the connection.
      const std::string peer = conn_it->second.peer;
      std::uint64_t bytes_out = kFrameHeaderBytes + done.payload.size();
      // Successful TIMELINE replies larger than one chunk stream as
      // TIMELINE_CHUNK continuation frames instead of landing in tx as one
      // giant buffer — the whole point of the streamed-partial-results
      // path: a sweep over thousands of iterations must not trip the
      // per-connection tx cap that protects the daemon from slow readers.
      if (ticket.op == Opcode::kTimeline && done.status == WireStatus::kOk &&
          done.payload.size() > stream_chunk_bytes() &&
          !conn_it->second.close_after_flush) {
        const std::size_t chunk = stream_chunk_bytes();
        const std::uint64_t frames =
            (done.payload.size() + chunk - 1) / chunk;
        bytes_out = done.payload.size() + frames * kFrameHeaderBytes;
        conn_it->second.streams.push_back(
            ChunkStream{ticket.request_id, std::move(done.payload), 0});
        pump_streams(ticket.fd, conn_it->second);
      } else {
        send_response(ticket.fd, conn_it->second, done.status,
                      ticket.request_id, done.payload);
      }
      const auto sent = std::chrono::steady_clock::now();
      done.timings.tx_flush_us = us_between(done.handler_done, sent);
      SvcMetrics::get().record_phases(done.timings);
      emit_access(ticket_fields(ticket, peer, done.status, bytes_out, sent),
                  done.timings, done.cache_hit);
    }
  }

  /// The access-record fields of a dispatched request answered at `sent`.
  static AccessFields ticket_fields(
      const Ticket& ticket, std::string_view peer, WireStatus status,
      std::uint64_t bytes_out, std::chrono::steady_clock::time_point sent) {
    return {.verb = opcode_name(ticket.op),
            .status = status,
            .request_id = ticket.request_id,
            .conn = ticket.conn_id,
            .peer = peer,
            .bytes_in = ticket.bytes_in,
            .bytes_out = bytes_out,
            .wall_us = us_between(ticket.enqueued_at, sent),
            .trace = ticket.trace};
  }

  void expire_deadlines() {
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> expired;
    for (const auto& [id, ticket] : tickets) {
      if (ticket.deadline <= now) expired.push_back(id);
    }
    for (const std::uint64_t id : expired) {
      const Ticket ticket = tickets[id];
      tickets.erase(id);
      SvcMetrics::get().errors.increment();
      auto conn_it = connections.find(ticket.fd);
      if (conn_it == connections.end() ||
          conn_it->second.id != ticket.conn_id) {
        continue;
      }
      if (conn_it->second.inflight > 0) --conn_it->second.inflight;
      const std::string peer = conn_it->second.peer;
      const std::string payload = error_payload("request timed out");
      send_response(ticket.fd, conn_it->second, WireStatus::kDeadlineExceeded,
                    ticket.request_id, payload);
      // The handler is still running; its phases land in the histograms
      // when it completes (the completion is then dropped). The access
      // record carries zero phases — the wall time is the story here.
      emit_access(ticket_fields(ticket, peer, WireStatus::kDeadlineExceeded,
                                kFrameHeaderBytes + payload.size(),
                                std::chrono::steady_clock::now()),
                  RequestTimings{}, /*cache_hit=*/false);
    }
  }

  void drain_wake_pipe() {
    char buf[64];
    while (::read(wake_fds[0], buf, sizeof(buf)) > 0) {
    }
  }

  void publish_gauges() {
    SvcMetrics::get().connections_open.set(
        static_cast<double>(connections.size()));
    SvcMetrics::get().requests_inflight.set(
        static_cast<double>(tickets.size()));
    SvcMetrics::get().cache_bytes.set(
        static_cast<double>(cache.stats().bytes));
  }

  // ---- handlers (run on the svc worker pool) ---------------------------

  void run_handler(Opcode op, const std::string& payload, Completion* done) {
    const auto parsed = telemetry::json_parse(
        payload.empty() ? std::string_view("{}") : std::string_view(payload));
    if (!parsed.has_value() || !parsed->is_object()) {
      done->status = WireStatus::kBadRequest;
      done->payload = error_payload("request payload is not a JSON object");
      return;
    }
    switch (op) {
      case Opcode::kCompare: handle_compare(*parsed, done); return;
      case Opcode::kTimeline: handle_timeline(*parsed, done); return;
      case Opcode::kLoadRun: handle_load_run(*parsed, done); return;
      default:
        done->status = WireStatus::kBadRequest;
        done->payload = error_payload("unknown opcode");
        return;
    }
  }

  /// Metadata hook for compare_pair/compare_histories: pins each sidecar
  /// from the cache (loading it on a miss) and appends one hit flag per
  /// lookup to `hits`. Sidecar-less checkpoints fall back to the
  /// comparator's build-on-the-fly path and are cached on the next query.
  /// `timings` accumulates the cache-lookup / sidecar-load split: loader
  /// time on a miss counts as sidecar load; the identity stat and the rest
  /// of the lookup count as cache lookup.
  cmp::MetadataProvider cache_provider(std::vector<bool>& hits,
                                       RequestTimings& timings) {
    return [this, &hits, &timings](const std::filesystem::path& metadata_path)
               -> repro::Result<cmp::PinnedTree> {
      // The bundle shared_ptr doubles as the pin: the mapped bytes stay
      // valid for the duration of the compare even if the shard evicts
      // this entry concurrently. Warm hits hand back the resident mapping
      // (or the already-resolved chain) with zero parse work.
      bool hit = false;
      double load_us = 0;
      Stopwatch lookup_clock;
      auto pinned = pin_sidecar(cache, metadata_path, &hit, &load_us);
      timings.cache_lookup_us +=
          std::max(0.0, lookup_clock.seconds() * 1e6 - load_us);
      timings.sidecar_load_us += load_us;
      hits.push_back(hit);
      REPRO_ASSIGN_OR_RETURN(BundlePtr bundle, std::move(pinned));
      if (bundle == nullptr) {
        return cmp::PinnedTree{};  // no sidecar: the comparator builds one
      }
      REPRO_ASSIGN_OR_RETURN(const merkle::TreeView view,
                             bundle->sole_tree());
      return cmp::PinnedTree{view, std::move(bundle)};
    };
  }

  cmp::CompareOptions request_options(const telemetry::JsonValue& request) {
    cmp::CompareOptions opts = options.compare;
    opts.error_bound = request.number_or("eps", opts.error_bound);
    return opts;
  }

  /// COMPARE: {"file_a","file_b"} or
  /// {"root","run_a","run_b","iteration","rank"}; optional "eps".
  void handle_compare(const telemetry::JsonValue& request, Completion* done) {
    ckpt::CheckpointPair pair;
    if (request.find("file_a") != nullptr) {
      const std::filesystem::path file_a = request.string_or("file_a", "");
      const std::filesystem::path file_b = request.string_or("file_b", "");
      pair.run_a.checkpoint_path = file_a;
      pair.run_a.metadata_path = cmp::sidecar_for(file_a);
      pair.run_b.checkpoint_path = file_b;
      pair.run_b.metadata_path = cmp::sidecar_for(file_b);
    } else if (request.find("root") != nullptr) {
      const ckpt::HistoryCatalog catalog(request.string_or("root", ""));
      const std::uint64_t iteration = request.u64_or("iteration", 0);
      const auto rank = static_cast<std::uint32_t>(request.u64_or("rank", 0));
      pair.run_a = catalog.ref(request.string_or("run_a", ""), iteration, rank);
      pair.run_b = catalog.ref(request.string_or("run_b", ""), iteration, rank);
    } else {
      done->status = WireStatus::kBadRequest;
      done->payload =
          error_payload("COMPARE needs file_a/file_b or root/run_a/run_b");
      return;
    }
    if (!std::filesystem::exists(pair.run_a.checkpoint_path) ||
        !std::filesystem::exists(pair.run_b.checkpoint_path)) {
      done->status = WireStatus::kNotFound;
      done->payload = error_payload("checkpoint not found");
      return;
    }

    std::vector<bool> hits;
    auto result = cmp::compare_pair(pair, request_options(request),
                                    cache_provider(hits, done->timings));
    if (!result.is_ok()) {
      done->status = wire_status_for(result.status());
      done->payload = error_payload(result.status().to_string());
      return;
    }
    // One lookup per side, side A first.
    const bool hit_a = hits.size() == 2 && hits[0];
    const bool hit_b = hits.size() == 2 && hits[1];
    done->cache_hit = hit_a && hit_b;
    const cmp::CompareReport& report = result.value();
    Stopwatch serialize_clock;
    std::string out = "{";
    bool first = true;
    const bool identical = report.identical_within_bound();
    append_kv(out, "verdict", identical ? "within-bound" : "divergent",
              &first);
    append_kv(out, "exit_code", std::uint64_t{identical ? 0u : 1u}, &first);
    append_kv(out, "values_compared", report.values_compared, &first);
    append_kv(out, "values_exceeding", report.values_exceeding, &first);
    append_kv(out, "chunks_total", report.chunks_total, &first);
    append_kv(out, "chunks_flagged", report.chunks_flagged, &first);
    append_kv(out, "data_bytes", report.data_bytes, &first);
    append_kv(out, "bytes_read_per_file", report.bytes_read_per_file, &first);
    append_kv(out, "metadata_bytes_read", report.metadata_bytes_read, &first);
    append_kv_bool(out, "cache_hit_a", hit_a, &first);
    append_kv_bool(out, "cache_hit_b", hit_b, &first);
    append_kv(out, "io_retries", report.io_retries, &first);
    append_kv(out, "io_fallbacks", report.io_fallbacks, &first);
    append_kv(out, "total_seconds", report.total_seconds, &first);
    out += '}';
    done->payload = std::move(out);
    done->timings.serialize_us += serialize_clock.seconds() * 1e6;
  }

  /// TIMELINE: {"root","run_a","run_b"}; optional "eps". The run pair's
  /// compare_histories (paired leniently) with every tree from the cache.
  void handle_timeline(const telemetry::JsonValue& request, Completion* done) {
    const std::string root = request.string_or("root", "");
    const std::string run_a = request.string_or("run_a", "");
    const std::string run_b = request.string_or("run_b", "");
    if (root.empty() || run_a.empty() || run_b.empty()) {
      done->status = WireStatus::kBadRequest;
      done->payload = error_payload("TIMELINE needs root, run_a, run_b");
      return;
    }
    std::vector<bool> hits;
    auto result = cmp::compare_histories(
        ckpt::HistoryCatalog(root), run_a, run_b,
        {.pair_options = request_options(request), .allow_ragged = true},
        cache_provider(hits, done->timings));
    if (!result.is_ok()) {
      done->status = wire_status_for(result.status());
      done->payload = error_payload(result.status().to_string());
      return;
    }
    const cmp::HistoryReport& history = result.value();
    const auto cache_hits =
        static_cast<std::uint64_t>(std::count(hits.begin(), hits.end(), true));
    done->cache_hit = !history.pairs.empty() &&
                      cache_hits == 2 * std::uint64_t{history.pairs.size()};

    Stopwatch serialize_clock;
    std::string out = "{\"pairs\":[";
    for (const auto& [pair, report] : history.pairs) {
      if (out.back() != '[') out += ',';
      out += '{';
      bool first = true;
      append_kv(out, "iteration", pair.run_a.iteration, &first);
      append_kv(out, "rank", std::uint64_t{pair.run_a.rank}, &first);
      append_kv(out, "exit_code",
                std::uint64_t{report.identical_within_bound() ? 0u : 1u},
                &first);
      append_kv(out, "values_exceeding", report.values_exceeding, &first);
      append_kv(out, "chunks_flagged", report.chunks_flagged, &first);
      out += '}';
    }
    out += "],\"first_divergent_iteration\":";
    if (history.first_divergent_iteration.has_value()) {
      json_append_number(out, *history.first_divergent_iteration);
    } else {
      out += "null";
    }
    out += ",\"first_divergent_rank\":";
    if (history.first_divergent_rank.has_value()) {
      json_append_number(out, std::uint64_t{*history.first_divergent_rank});
    } else {
      out += "null";
    }
    out += ',';
    bool tail = true;  // the comma is already in place for the first pair
    append_kv(out, "cache_hits", cache_hits, &tail);
    append_kv(out, "only_in_a", std::uint64_t{history.only_in_a.size()},
              &tail);
    append_kv(out, "only_in_b", std::uint64_t{history.only_in_b.size()},
              &tail);
    out += '}';
    done->payload = std::move(out);
    done->timings.serialize_us += serialize_clock.seconds() * 1e6;
  }

  /// LOAD_RUN: {"root","run"} — pre-warm the cache with every sidecar of
  /// one run (the forensics loop's "load once, query many" pattern).
  void handle_load_run(const telemetry::JsonValue& request, Completion* done) {
    const std::string root = request.string_or("root", "");
    const std::string run = request.string_or("run", "");
    if (root.empty() || run.empty()) {
      done->status = WireStatus::kBadRequest;
      done->payload = error_payload("LOAD_RUN needs root and run");
      return;
    }
    const ckpt::HistoryCatalog catalog(root);
    auto refs = catalog.checkpoints(run);
    if (!refs.is_ok()) {
      done->status = wire_status_for(refs.status());
      done->payload = error_payload(refs.status().to_string());
      return;
    }
    std::uint64_t loaded = 0;
    std::uint64_t already = 0;
    std::uint64_t missing = 0;
    std::uint64_t bytes = 0;
    for (const auto& ref : refs.value()) {
      bool hit = false;
      double load_us = 0;
      Stopwatch lookup_clock;
      auto bundle = pin_sidecar(cache, ref.metadata_path, &hit, &load_us);
      done->timings.cache_lookup_us +=
          std::max(0.0, lookup_clock.seconds() * 1e6 - load_us);
      done->timings.sidecar_load_us += load_us;
      if (!bundle.is_ok()) {
        done->status = wire_status_for(bundle.status());
        done->payload = error_payload(bundle.status().to_string());
        return;
      }
      if (bundle.value() == nullptr) {
        ++missing;
        continue;
      }
      bytes += bundle.value()->resident_bytes();
      hit ? ++already : ++loaded;
    }
    done->cache_hit = loaded == 0 && already > 0;
    Stopwatch serialize_clock;
    std::string out = "{";
    bool first = true;
    append_kv(out, "loaded", loaded, &first);
    append_kv(out, "already_cached", already, &first);
    append_kv(out, "missing_metadata", missing, &first);
    append_kv(out, "metadata_bytes", bytes, &first);
    out += '}';
    done->payload = std::move(out);
    done->timings.serialize_us += serialize_clock.seconds() * 1e6;
  }

  std::string stats_payload() {
    const CacheStats cs = cache.stats();
    std::string out = "{\"cache\":{";
    bool first = true;
    append_kv(out, "hits", cs.hits, &first);
    append_kv(out, "misses", cs.misses, &first);
    append_kv(out, "stale", cs.stale, &first);
    append_kv(out, "evictions", cs.evictions, &first);
    append_kv(out, "insertions", cs.insertions, &first);
    append_kv(out, "bypasses", cs.bypasses, &first);
    append_kv(out, "bytes", cs.bytes, &first);
    append_kv(out, "entries", cs.entries, &first);
    append_kv(out, "budget_bytes", cache.byte_budget(), &first);
    out += "},";
    bool tail = true;  // the comma is already in place for the first pair
    append_kv(out, "requests", SvcMetrics::get().requests.value(), &tail);
    append_kv(out, "errors", SvcMetrics::get().errors.value(), &tail);
    append_kv(out, "connections",
              std::uint64_t{connections.size()}, &tail);
    append_kv(out, "inflight", std::uint64_t{tickets.size()}, &tail);
    append_kv(out, "watch_sessions",
              std::uint64_t{monitor.session_count()}, &tail);
    append_kv_bool(out, "draining", draining, &tail);
    const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
        std::chrono::steady_clock::now() - started_at);
    append_kv(out, "uptime_s",
              static_cast<std::uint64_t>(std::max<long long>(
                  0, static_cast<long long>(uptime.count()))),
              &tail);
    // Build provenance: a fleet operator scraping many daemons needs to
    // know which toolchain each verdict came from (docs/OBSERVABILITY.md).
    const BuildInfo build = repro::build_info();
    append_kv(out, "version", build.version, &tail);
    append_kv(out, "compiler", build.compiler, &tail);
    append_kv(out, "build_type", build.build_type, &tail);
    append_kv(out, "simd_level", build.simd_level, &tail);
    out += '}';
    return out;
  }

  std::string endpoint() const {
    if (!options.socket_path.empty()) {
      return "unix:" + options.socket_path.string();
    }
    return "tcp:127.0.0.1:" + std::to_string(listener.port());
  }
};

// ---------------------------------------------------------------------------
// Signal routing. One active server; the handler does the minimum that is
// async-signal-safe (atomic store + pipe write inside request_stop).

namespace {
std::atomic<Server*> g_signal_server{nullptr};

void drain_signal_handler(int) {
  if (Server* server = g_signal_server.load(std::memory_order_relaxed)) {
    server->request_stop();
  }
}
}  // namespace

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  // Deregister from the signal router before any state is torn down: a
  // SIGTERM/SIGINT arriving after destruction must find no server, not a
  // dangling pointer and a closed wake pipe.
  Server* expected = this;
  g_signal_server.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_relaxed);
}

repro::Status Server::start() { return impl_->start(); }
repro::Status Server::serve() { return impl_->serve(); }

void Server::request_stop() noexcept {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
  impl_->wake();
}

std::uint16_t Server::port() const noexcept { return impl_->listener.port(); }
std::string Server::endpoint() const { return impl_->endpoint(); }
MetadataCache& Server::cache() noexcept { return impl_->cache; }

repro::Status install_signal_handlers(Server& server) {
  g_signal_server.store(&server, std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = drain_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGTERM, &action, nullptr) != 0 ||
      sigaction(SIGINT, &action, nullptr) != 0) {
    return repro::internal_error(std::string("sigaction: ") +
                                 std::strerror(errno));
  }
  // Socket writes use MSG_NOSIGNAL, but a write(2) to the wake pipe has no
  // such flag: neither may deliver a default-fatal SIGPIPE to the daemon.
  ::signal(SIGPIPE, SIG_IGN);
  return repro::Status::ok();
}

}  // namespace repro::svc
