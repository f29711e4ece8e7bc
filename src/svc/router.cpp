#include "svc/router.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hpp"
#include "common/log.hpp"
#include "svc/client.hpp"
#include "svc/log_file.hpp"
#include "svc/socket.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/trace.hpp"

namespace repro::svc {

namespace {

struct RouterMetrics {
  telemetry::Counter& requests;
  telemetry::Counter& forwarded;
  telemetry::Counter& failovers;
  telemetry::Counter& ejections;
  telemetry::Counter& readmissions;

  static RouterMetrics& get() {
    static RouterMetrics metrics = [] {
      auto& reg = telemetry::MetricsRegistry::global();
      reg.describe("svc.router.requests",
                   "requests accepted by the router");
      reg.describe("svc.router.forwarded",
                   "requests forwarded to a worker");
      reg.describe("svc.router.failovers",
                   "forwards retried on another worker after a transport "
                   "failure");
      reg.describe("svc.router.ejections",
                   "workers ejected from rotation by health checks or "
                   "forward failures");
      reg.describe("svc.router.readmissions",
                   "ejected workers re-admitted after a successful probe");
      return RouterMetrics{reg.counter("svc.router.requests"),
                           reg.counter("svc.router.forwarded"),
                           reg.counter("svc.router.failovers"),
                           reg.counter("svc.router.ejections"),
                           reg.counter("svc.router.readmissions")};
    }();
    return metrics;
  }
};

/// The re-admission probe delay for failure r (1-based): the RetryPolicy's
/// capped exponential curve, read without sleeping on it.
std::chrono::microseconds readmit_delay(const io::RetryPolicy& policy,
                                        unsigned failures) {
  const unsigned shift = std::min(failures > 0 ? failures - 1 : 0, 20u);
  const std::uint64_t us =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(
                                  policy.backoff_initial_us)
                                  << shift,
                              policy.backoff_max_us);
  return std::chrono::microseconds(us);
}

}  // namespace

struct Router::Impl {
  explicit Impl(RouterOptions opts)
      : options(std::move(opts)), ring(options.workers) {
    upstream_base.timeout = options.upstream_timeout;
    upstream_base.max_frame_bytes = options.max_frame_bytes;
    // Failing over beats waiting: a refused upstream connect ejects the
    // worker immediately and the health checker owns re-admission.
    upstream_base.connect_retry = io::RetryPolicy::none();
    for (const auto& worker : options.workers) {
      workers.emplace(worker.endpoint, WorkerState{});
    }
  }

  struct WorkerState {
    bool up = true;
    unsigned failures = 0;
    std::chrono::steady_clock::time_point down_until{};
    std::vector<Client> pool;
  };

  RouterOptions options;
  ClientOptions upstream_base;
  RunIdRing ring;

  LogFile access_log;
  Listener listener;
  bool started = false;

  std::atomic<bool> stop_requested{false};
  std::atomic<std::uint64_t> next_conn_id{1};

  mutable std::mutex mu;  ///< guards `workers`
  std::map<std::string, WorkerState> workers;

  std::mutex handlers_mu;
  /// One thread per open downstream connection, by connection id.
  std::unordered_map<std::uint64_t, std::thread> handlers;
  /// Connections whose handler has returned; serve() joins their threads.
  std::vector<std::uint64_t> finished_handlers;
  std::thread health_thread;

  ~Impl() {
    stop_requested.store(true);
    if (health_thread.joinable()) health_thread.join();
    join_handlers(/*all=*/true);
  }

  /// Joins the threads of finished handlers — or, with `all`, of every
  /// handler, waiting for the live ones to close their connections. A
  /// finished thread that is never joined keeps its stack mapped.
  void join_handlers(bool all) {
    std::vector<std::thread> joinable;
    {
      std::lock_guard<std::mutex> lock(handlers_mu);
      if (all) {
        for (auto& [conn_id, thread] : handlers) {
          joinable.push_back(std::move(thread));
        }
        handlers.clear();
      } else {
        for (const std::uint64_t conn_id : finished_handlers) {
          const auto it = handlers.find(conn_id);
          if (it == handlers.end()) continue;  // taken by an earlier `all`
          joinable.push_back(std::move(it->second));
          handlers.erase(it);
        }
      }
      finished_handlers.clear();
    }
    for (auto& thread : joinable) thread.join();
  }

  // ---- lifecycle -------------------------------------------------------

  repro::Status start() {
    if (started) return repro::Status::ok();
    if (options.workers.empty()) {
      return repro::invalid_argument("router needs at least one worker");
    }
    REPRO_RETURN_IF_ERROR(access_log.open(options.access_log_path));
    REPRO_RETURN_IF_ERROR(
        listener.open(options.socket_path, options.host, options.port));
    health_thread = std::thread([this] { health_loop(); });
    started = true;
    return repro::Status::ok();
  }

  repro::Status serve() {
    if (!started) REPRO_RETURN_IF_ERROR(start());
    while (!stop_requested.load()) {
      join_handlers(/*all=*/false);
      pollfd pfd{listener.fd(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready < 0) {
        if (io::errno_is_interrupt(errno)) continue;
        return repro::internal_error(std::string("poll: ") +
                                     std::strerror(errno));
      }
      if (ready == 0) continue;
      sockaddr_storage addr{};
      socklen_t addr_len = sizeof(addr);
      const int fd =
          ::accept4(listener.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &addr_len, SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            io::errno_is_interrupt(errno) || errno == ECONNABORTED) {
          continue;
        }
        REPRO_LOG_WARN << "router accept failed: " << std::strerror(errno);
        continue;
      }
      const std::uint64_t conn_id = next_conn_id.fetch_add(1);
      const std::string peer = peer_name(addr);
      // Held across the spawn, so the handler cannot report itself
      // finished before its thread is registered.
      std::lock_guard<std::mutex> lock(handlers_mu);
      handlers.emplace(conn_id, std::thread([this, fd, conn_id, peer] {
                         handle_connection(fd, conn_id, peer);
                         std::lock_guard<std::mutex> done(handlers_mu);
                         finished_handlers.push_back(conn_id);
                       }));
    }
    join_handlers(/*all=*/true);
    return repro::Status::ok();
  }

  // ---- worker state ----------------------------------------------------

  [[nodiscard]] std::size_t live_workers() const {
    std::lock_guard<std::mutex> lock(mu);
    std::size_t live = 0;
    for (const auto& [endpoint, state] : workers) {
      if (state.up) ++live;
    }
    return live;
  }

  /// The endpoint that should serve `key` right now: the best-ranked live
  /// worker, or — when every worker is marked down — the key's owner, so a
  /// wholly-ejected pool still gets probed by real traffic.
  std::string pick_worker(const std::string& key) {
    const auto ranked = ring.ranked(key);
    if (ranked.empty()) return "";
    std::lock_guard<std::mutex> lock(mu);
    for (const RingWorker* worker : ranked) {
      const auto it = workers.find(worker->endpoint);
      if (it != workers.end() && it->second.up) return worker->endpoint;
    }
    return ranked.front()->endpoint;
  }

  void eject(const std::string& endpoint) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = workers.find(endpoint);
    if (it == workers.end()) return;
    WorkerState& state = it->second;
    if (state.up) {
      state.up = false;
      state.failures = 0;
      RouterMetrics::get().ejections.increment();
      REPRO_LOG_WARN << "router ejected worker " << endpoint;
    }
    ++state.failures;
    state.down_until = std::chrono::steady_clock::now() +
                       readmit_delay(options.readmit, state.failures);
    state.pool.clear();  // pooled connections to a dead worker are stale
  }

  void readmit(const std::string& endpoint) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = workers.find(endpoint);
    if (it == workers.end() || it->second.up) return;
    it->second.up = true;
    it->second.failures = 0;
    RouterMetrics::get().readmissions.increment();
    REPRO_LOG_INFO << "router re-admitted worker " << endpoint;
  }

  repro::Result<Client> checkout(const std::string& endpoint) {
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = workers.find(endpoint);
      if (it != workers.end() && !it->second.pool.empty()) {
        Client client = std::move(it->second.pool.back());
        it->second.pool.pop_back();
        return client;
      }
    }
    return Client::connect(endpoint_client_options(endpoint, upstream_base));
  }

  void checkin(const std::string& endpoint, Client client) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = workers.find(endpoint);
    if (it == workers.end() || !it->second.up) return;
    if (it->second.pool.size() < options.pool_per_worker) {
      it->second.pool.push_back(std::move(client));
    }
  }

  // ---- health checks ---------------------------------------------------

  void health_loop() {
    while (!stop_requested.load()) {
      // Sleep the interval in small slices so drain is prompt.
      auto remaining = options.health_interval;
      while (remaining.count() > 0 && !stop_requested.load()) {
        const auto slice =
            std::min<std::chrono::milliseconds>(remaining,
                                                std::chrono::milliseconds(50));
        std::this_thread::sleep_for(slice);
        remaining -= slice;
      }
      if (stop_requested.load()) return;
      for (const auto& worker : options.workers) {
        if (stop_requested.load()) return;
        bool probe = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          const auto it = workers.find(worker.endpoint);
          if (it == workers.end()) continue;
          probe = it->second.up ||
                  std::chrono::steady_clock::now() >= it->second.down_until;
        }
        if (!probe) continue;
        if (ping(worker.endpoint)) {
          readmit(worker.endpoint);
        } else {
          eject(worker.endpoint);
        }
      }
    }
  }

  bool ping(const std::string& endpoint) {
    ClientOptions opts = endpoint_client_options(endpoint, upstream_base);
    // Health probes answer fast or not at all; don't hold the checker for
    // the full request timeout.
    opts.timeout = std::clamp<std::chrono::milliseconds>(
        options.health_interval * 4, std::chrono::milliseconds(100),
        std::chrono::milliseconds(2000));
    repro::Result<Client> client = [&]() -> repro::Result<Client> {
      {
        std::lock_guard<std::mutex> lock(mu);
        auto it = workers.find(endpoint);
        if (it != workers.end() && !it->second.pool.empty()) {
          Client pooled = std::move(it->second.pool.back());
          it->second.pool.pop_back();
          return pooled;
        }
      }
      return Client::connect(opts);
    }();
    if (!client.is_ok()) return false;
    const auto response = client.value().call(Opcode::kPing, {});
    const bool ok =
        response.is_ok() && response.value().status == WireStatus::kOk;
    if (ok) checkin(endpoint, std::move(client).value());
    return ok;
  }

  // ---- access log ------------------------------------------------------

  /// Appends one `repro.svc.access` v1 record: the shared fields plus
  /// `upstream`, the worker that served the request (empty for verbs the
  /// router answers itself). Request id and trace are the client's own:
  /// forwarding is byte-for-byte.
  void emit_access(const DecodedFrame& frame, std::string_view verb,
                   WireStatus status, std::uint64_t conn_id,
                   std::string_view peer, std::string_view upstream,
                   std::uint64_t bytes_out,
                   std::chrono::steady_clock::time_point received_at) {
    if (!access_log.enabled()) return;
    std::string line = access_record(
        {.verb = verb,
         .status = status,
         .request_id = frame.header.request_id,
         .conn = conn_id,
         .peer = peer,
         .bytes_in = frame.frame_bytes,
         .bytes_out = bytes_out,
         .wall_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - received_at)
                        .count(),
         .trace = frame.trace});
    bool first = false;
    append_kv(line, "upstream", upstream, &first);
    line += '}';
    access_log.write_line(std::move(line));
  }

  // ---- connection handling --------------------------------------------

  void handle_connection(int fd, std::uint64_t conn_id,
                         const std::string& peer) {
    std::vector<std::uint8_t> rx;
    std::string sticky_watch;  // worker owning this connection's WATCH session
    bool closing = false;
    while (!closing) {
      std::size_t consumed = 0;
      while (consumed < rx.size()) {
        DecodedFrame frame;
        const auto outcome = decode_frame(
            std::span<const std::uint8_t>(rx.data() + consumed,
                                          rx.size() - consumed),
            options.max_frame_bytes, &frame);
        if (outcome == DecodeOutcome::kNeedMoreData) break;
        if (outcome != DecodeOutcome::kFrame) {
          const std::uint64_t request_id =
              outcome == DecodeOutcome::kOversized ||
                      outcome == DecodeOutcome::kBadTraceContext
                  ? frame.header.request_id
                  : 0;
          std::vector<std::uint8_t> out;
          append_response(out, WireStatus::kBadRequest, request_id,
                          error_payload("malformed frame"));
          (void)send_all(fd, out);
          closing = true;
          consumed = rx.size();
          break;
        }
        const std::span<const std::uint8_t> raw{rx.data() + consumed,
                                                frame.frame_bytes};
        consumed += frame.frame_bytes;
        if (!handle_frame(fd, conn_id, peer, raw, frame, sticky_watch)) {
          closing = true;
          break;
        }
      }
      rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(consumed));
      if (closing) break;
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready < 0) {
        if (io::errno_is_interrupt(errno)) continue;
        break;
      }
      if (ready == 0) {
        // Drain: every fully-received request above has been answered;
        // idle connections close once the router is stopping.
        if (stop_requested.load()) break;
        continue;
      }
      std::uint8_t buf[64 * 1024];
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        rx.insert(rx.end(), buf, buf + n);
        continue;
      }
      if (n == 0) break;
      if (io::errno_is_interrupt(errno)) continue;
      break;
    }
    ::close(fd);
  }

  /// Handles one decoded downstream frame. Returns false when the
  /// connection must close (downstream write failure or a poisoned
  /// response stream).
  bool handle_frame(int fd, std::uint64_t conn_id, const std::string& peer,
                    std::span<const std::uint8_t> raw,
                    const DecodedFrame& frame, std::string& sticky_watch) {
    RouterMetrics::get().requests.increment();
    const auto received_at = std::chrono::steady_clock::now();
    if (frame.header.is_response()) {
      return reply_local(fd, conn_id, peer, frame, WireStatus::kBadRequest,
                         error_payload("response frame sent to router"),
                         received_at);
    }
    const auto op = static_cast<Opcode>(frame.header.code);
    switch (op) {
      case Opcode::kPing:
        return reply_local(fd, conn_id, peer, frame, WireStatus::kOk,
                           "{\"ok\":true,\"router\":true}", received_at);
      case Opcode::kMetrics:
        return reply_local(
            fd, conn_id, peer, frame, WireStatus::kOk,
            telemetry::render_prometheus(
                telemetry::MetricsRegistry::global().snapshot()),
            received_at, /*json=*/false);
      case Opcode::kStats:
        return reply_local(fd, conn_id, peer, frame, WireStatus::kOk,
                           stats_payload(), received_at);
      case Opcode::kShutdown: {
        // Drain the fabric: broadcast SHUTDOWN to every worker, answer the
        // client, then drain the router itself. Handler threads finish the
        // requests they have already received before closing.
        const std::string payload = shutdown_workers();
        const bool alive = reply_local(fd, conn_id, peer, frame,
                                       WireStatus::kOk, payload, received_at);
        stop_requested.store(true);
        return alive;
      }
      default:
        return forward(fd, conn_id, peer, raw, frame, sticky_watch,
                       received_at);
    }
  }

  bool reply_local(int fd, std::uint64_t conn_id, const std::string& peer,
                   const DecodedFrame& frame, WireStatus status,
                   std::string_view payload,
                   std::chrono::steady_clock::time_point received_at,
                   bool json = true) {
    std::vector<std::uint8_t> out;
    append_response(out, status, frame.header.request_id, payload, json);
    const bool sent = send_all(fd, out).is_ok();
    const char* verb = frame.header.is_response()
                           ? "RESPONSE"
                           : opcode_name(
                                 static_cast<Opcode>(frame.header.code));
    emit_access(frame, verb, status, conn_id, peer, /*upstream=*/"",
                out.size(), received_at);
    return sent;
  }

  /// Forwards one routable request to its owning worker, walking the
  /// rendezvous failover order on transport failures. Byte-for-byte in
  /// both directions: the worker sees the client's exact frame (request id
  /// and trace trailer included) and the client sees the worker's exact
  /// reply frames (chunked TIMELINE streams pass through unreassembled).
  bool forward(int fd, std::uint64_t conn_id, const std::string& peer,
               std::span<const std::uint8_t> raw, const DecodedFrame& frame,
               std::string& sticky_watch,
               std::chrono::steady_clock::time_point received_at) {
    const auto op = static_cast<Opcode>(frame.header.code);
    // WATCH sessions live on one worker: WATCH_OPEN picks it by routing
    // key and pins it; the rest of the session follows the pin.
    const bool watch_follow_up =
        (op == Opcode::kWatchPush || op == Opcode::kWatchClose) &&
        !sticky_watch.empty();
    const std::string key =
        (frame.header.flags & kFlagJsonPayload) != 0
            ? routing_key(frame.payload)
            : std::string();
    repro::Status failure = repro::unavailable("no workers configured");
    const std::size_t max_attempts = std::max<std::size_t>(1, ring.size());
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      const std::string endpoint =
          watch_follow_up ? sticky_watch : pick_worker(key);
      if (endpoint.empty()) break;
      repro::Result<Client> upstream = checkout(endpoint);
      if (!upstream.is_ok()) {
        failure = upstream.status();
        eject(endpoint);
        RouterMetrics::get().failovers.increment();
        if (watch_follow_up) break;  // the session died with its worker
        continue;
      }
      bool downstream_failed = false;
      std::uint64_t bytes_out = 0;
      const repro::Result<WireStatus> status =
          exchange(fd, upstream.value(), raw, frame.header.request_id,
                   &downstream_failed, &bytes_out);
      if (status.is_ok()) {
        checkin(endpoint, std::move(upstream).value());
        RouterMetrics::get().forwarded.increment();
        if (op == Opcode::kWatchOpen && status.value() == WireStatus::kOk) {
          sticky_watch = endpoint;
        }
        emit_access(frame, opcode_name(op), status.value(), conn_id, peer,
                    endpoint, bytes_out, received_at);
        return true;
      }
      // The upstream Client drops here, closing the worker connection —
      // which is what cancels the forwarded ticket's generation if the
      // worker is still alive and merely slow.
      if (downstream_failed) return false;
      if (bytes_out > 0) {
        // Part of a chunked reply already reached the client; the stream
        // cannot be restarted on another worker without corrupting the
        // downstream framing. Close, like a framing violation.
        return false;
      }
      failure = status.status();
      eject(endpoint);
      RouterMetrics::get().failovers.increment();
      if (watch_follow_up) break;
    }
    return reply_local(fd, conn_id, peer, frame, WireStatus::kInternal,
                       error_payload("no live worker: " + failure.message()),
                       received_at);
  }

  /// One request/response exchange over an upstream connection: sends the
  /// raw request frame, then forwards every response frame for this
  /// request id downstream until the terminating frame (a non-chunk
  /// response, or a chunk carrying kFlagFinalChunk). Returns the final
  /// wire status; transport errors return a Status and leave
  /// *downstream_failed / *bytes_out describing how far things got.
  repro::Result<WireStatus> exchange(int down_fd, Client& upstream,
                                     std::span<const std::uint8_t> raw,
                                     std::uint64_t request_id,
                                     bool* downstream_failed,
                                     std::uint64_t* bytes_out) {
    REPRO_RETURN_IF_ERROR(send_all(upstream.fd(), raw));
    const auto deadline =
        std::chrono::steady_clock::now() + options.upstream_timeout;
    std::vector<std::uint8_t> rx;
    while (true) {
      std::size_t consumed = 0;
      while (consumed < rx.size()) {
        DecodedFrame frame;
        const auto outcome = decode_frame(
            std::span<const std::uint8_t>(rx.data() + consumed,
                                          rx.size() - consumed),
            options.max_frame_bytes, &frame);
        if (outcome == DecodeOutcome::kNeedMoreData) break;
        if (outcome != DecodeOutcome::kFrame) {
          return repro::internal_error("malformed frame from worker");
        }
        const std::span<const std::uint8_t> reply{rx.data() + consumed,
                                                  frame.frame_bytes};
        consumed += frame.frame_bytes;
        if (!frame.header.is_response() ||
            frame.header.request_id != request_id) {
          continue;  // stale frame from an abandoned exchange
        }
        const repro::Status fwd = send_all(down_fd, reply);
        if (!fwd.is_ok()) {
          *downstream_failed = true;
          return fwd;
        }
        *bytes_out += frame.frame_bytes;
        const bool chunk =
            frame.header.code ==
            static_cast<std::uint16_t>(Opcode::kTimelineChunk);
        if (!chunk) return static_cast<WireStatus>(frame.header.code);
        if ((frame.header.flags & kFlagFinalChunk) != 0) {
          return WireStatus::kOk;
        }
      }
      rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(consumed));
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return repro::unavailable("worker timed out");
      }
      pollfd pfd{upstream.fd(), POLLIN, 0};
      const int ready = ::poll(
          &pfd, 1,
          static_cast<int>(std::min<std::int64_t>(remaining.count(), 100)));
      if (ready < 0) {
        if (io::errno_is_interrupt(errno)) continue;
        return repro::internal_error(std::string("poll: ") +
                                     std::strerror(errno));
      }
      if (ready == 0) continue;
      std::uint8_t buf[64 * 1024];
      const ssize_t n = ::read(upstream.fd(), buf, sizeof(buf));
      if (n > 0) {
        rx.insert(rx.end(), buf, buf + n);
        continue;
      }
      if (n == 0) return repro::unavailable("worker closed the connection");
      if (io::errno_is_interrupt(errno)) continue;
      return repro::unavailable(std::string("recv: ") +
                                std::strerror(errno));
    }
  }

  // ---- aggregate verbs -------------------------------------------------

  std::string stats_payload() {
    std::string out = "{\"router\":{";
    bool first = true;
    append_kv(out, "workers", std::uint64_t{ring.size()}, &first);
    append_kv(out, "live", std::uint64_t{live_workers()}, &first);
    append_kv_bool(out, "draining", stop_requested.load(), &first);
    out += "},\"workers\":[";
    for (const auto& worker : options.workers) {
      if (out.back() != '[') out += ',';
      bool up;
      {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = workers.find(worker.endpoint);
        up = it != workers.end() && it->second.up;
      }
      out += '{';
      bool field = true;
      append_kv(out, "endpoint", worker.endpoint, &field);
      append_kv_bool(out, "up", up, &field);
      if (up) {
        repro::Result<Client> client = checkout(worker.endpoint);
        if (client.is_ok()) {
          const auto stats = client.value().call(Opcode::kStats, {});
          if (stats.is_ok() && stats.value().ok()) {
            out += ",\"stats\":";
            out += stats.value().payload;
            checkin(worker.endpoint, std::move(client).value());
          }
        }
      }
      out += '}';
    }
    out += "]}";
    return out;
  }

  std::string shutdown_workers() {
    std::string out = "{\"draining\":true,\"workers\":[";
    for (const auto& worker : options.workers) {
      if (out.back() != '[') out += ',';
      std::string_view status = "UNREACHABLE";
      repro::Result<Client> client = checkout(worker.endpoint);
      if (client.is_ok()) {
        // The worker is draining; its pooled connections go stale — do not
        // check the connection back in.
        const auto reply = client.value().call(Opcode::kShutdown, {});
        if (reply.is_ok()) status = wire_status_name(reply.value().status);
      }
      out += '{';
      bool field = true;
      append_kv(out, "endpoint", worker.endpoint, &field);
      append_kv(out, "status", status, &field);
      out += '}';
    }
    out += "]}";
    return out;
  }

  [[nodiscard]] std::string endpoint_str() const {
    if (!options.socket_path.empty()) return options.socket_path.string();
    return options.host + ":" + std::to_string(listener.port());
  }
};

Router::Router(RouterOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Router::~Router() = default;

repro::Status Router::start() { return impl_->start(); }

repro::Status Router::serve() { return impl_->serve(); }

void Router::request_stop() { impl_->stop_requested.store(true); }

std::uint16_t Router::port() const { return impl_->listener.port(); }

std::string Router::endpoint() const { return impl_->endpoint_str(); }

std::size_t Router::live_workers() const { return impl_->live_workers(); }

}  // namespace repro::svc
