// The `reprod` compare daemon: a long-running, nonblocking socket server
// that answers divergence queries from a resident metadata cache.
//
// One thread runs the event loop (level-triggered epoll; Linux only):
// accept, frame reassembly, response writes, timeouts. Decoded requests that do
// real work (COMPARE / TIMELINE / LOAD_RUN) are dispatched onto the
// existing `par` thread pool machinery — the server owns a dedicated
// par::ThreadPool instance for handlers, so a handler blocking inside
// Exec::parallel() (which fans out onto the process-wide default pool and
// waits) can never deadlock against itself. PING / STATS / SHUTDOWN /
// METRICS and the WATCH_* monitoring verbs (svc/monitor.hpp) are answered
// inline on the loop thread — WATCH sessions are loop-owned state, so
// frontier updates need no locking and push ordering is natural.
//
// Robustness contract (docs/SERVICE.md): garbage or oversized frames get
// an error response and a connection close, never a crash; per-client
// in-flight caps push back on floods; per-request deadlines bound handler
// time observable by the client; SIGTERM or a SHUTDOWN frame starts a
// graceful drain — stop accepting, answer stragglers with SHUTTING_DOWN,
// finish in-flight work, flush buffered responses, return from serve().
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "compare/comparator.hpp"
#include "io/retry.hpp"
#include "svc/cache.hpp"
#include "svc/wire.hpp"

namespace repro::svc {

struct ServerOptions {
  /// Unix-domain socket path. When empty, a TCP socket on 127.0.0.1:port
  /// is used instead (port 0 picks an ephemeral port; see Server::port()).
  std::filesystem::path socket_path;
  std::uint16_t port = 0;

  /// Metadata-cache byte budget and shard count (--cache-bytes).
  std::uint64_t cache_bytes = 256ull << 20;
  std::size_t cache_shards = 8;

  /// Frames larger than this are rejected without buffering the payload.
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Backpressure: requests in flight per connection beyond this cap are
  /// answered TOO_MANY_REQUESTS immediately.
  std::uint32_t max_inflight_per_client = 8;

  /// Cap on buffered-but-unsent response bytes per connection. A peer
  /// that floods requests without ever reading its replies (including
  /// the immediate TOO_MANY_REQUESTS errors) is shed once its tx backlog
  /// exceeds this, so the in-flight cap genuinely bounds per-client
  /// memory.
  std::size_t max_tx_buffer_bytes = 8ull << 20;

  /// Server-side deadline per dispatched request. The client receives
  /// DEADLINE_EXCEEDED; the handler's eventual result is discarded.
  std::chrono::milliseconds request_timeout{30000};

  /// Handler threads (the server-owned par::ThreadPool).
  std::size_t workers = 2;

  /// Bounded recovery for transient accept()/socket faults.
  io::RetryPolicy socket_retry;

  /// Base options for COMPARE/TIMELINE handlers; requests may override the
  /// error bound ("eps") per call. WATCH sessions inherit the same tree/ε
  /// defaults.
  cmp::CompareOptions compare;

  /// JSONL file WATCH first-divergence alerts are appended to
  /// (`repro.divergence.alert` v1, docs/FORMATS.md); empty disables alert
  /// persistence — verdict frames still carry the divergence.
  std::filesystem::path alert_path;

  /// Concurrent WATCH session cap (one session per connection).
  std::size_t max_watch_sessions = 64;

  /// Structured access log: one flat JSON record per completed request
  /// (`repro.svc.access` v1, docs/OBSERVABILITY.md) appended here, carrying
  /// the per-phase latency breakdown and — when the request arrived with a
  /// trace-context trailer — the client's trace identity. Empty disables.
  std::filesystem::path access_log_path;

  /// Requests whose wall time reaches this many milliseconds are flagged
  /// `"slow": true` in their access record, so tail-latency forensics can
  /// grep the log instead of replaying traffic.
  std::uint64_t slow_request_ms = 1000;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the access and alert logs, then binds and listens. After
  /// start() returns OK the endpoint is connectable; frames queue in the
  /// socket backlog until serve() runs. A log path that cannot be opened
  /// is an error naming the path.
  repro::Status start();

  /// Runs the event loop until a graceful drain completes. Calls start()
  /// first if it has not run.
  repro::Status serve();

  /// Begins a graceful drain from any thread or signal handler
  /// (async-signal-safe: one atomic store + one pipe write).
  void request_stop() noexcept;

  /// Bound TCP port (valid after start(); 0 for unix-domain sockets).
  [[nodiscard]] std::uint16_t port() const noexcept;
  /// Printable endpoint ("unix:/path" or "tcp:127.0.0.1:PORT").
  [[nodiscard]] std::string endpoint() const;

  [[nodiscard]] MetadataCache& cache() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Routes SIGTERM and SIGINT to server.request_stop(). One server at a
/// time; the registration is cleared when the server is destroyed.
repro::Status install_signal_handlers(Server& server);

}  // namespace repro::svc
