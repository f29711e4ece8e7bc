// reprod-router: the front proxy of the scale-out compare fabric
// (docs/SERVICE.md "Scale-out topology").
//
// The router accepts RSVC frames on one listening socket and forwards each
// request to the worker that owns its routing key on the RunIdRing, over
// pooled upstream connections. Frames are forwarded byte-for-byte in both
// directions, so the originating request id and trace-context trailer reach
// the worker unchanged and chunked TIMELINE_CHUNK replies stream through
// the hop without reassembly. Worker liveness is tracked with periodic PING
// health checks: a failed worker is ejected (its shard fails over to the
// next worker in each key's rendezvous order) and probed for re-admission
// on the RetryPolicy backoff curve. SHUTDOWN broadcasts the drain to every
// worker, answers the client, and then drains the router itself.
//
// Concurrency model: unlike the worker daemon's single event loop, the
// router is a blocking thread-per-connection proxy — each downstream
// connection gets one handler thread that forwards its requests serially
// (pipelined requests are answered in order) and is joined by the accept
// loop once the connection closes. Cancellation carries through
// the hop structurally: a downstream connection's upstream connections die
// with it, which drops the worker-side connection and cancels that
// generation's tickets.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "io/retry.hpp"
#include "svc/hash_ring.hpp"
#include "svc/wire.hpp"

namespace repro::svc {

struct RouterOptions {
  /// Downstream listener: unix-domain socket path; when empty, TCP on
  /// host:port (port 0 picks an ephemeral port).
  std::filesystem::path socket_path;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// The worker pool with ring weights. Endpoints use RingWorker syntax
  /// (unix path or "host:port").
  std::vector<RingWorker> workers;

  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-exchange deadline for one forwarded request/response.
  std::chrono::milliseconds upstream_timeout{30000};
  /// Period of the background PING health check.
  std::chrono::milliseconds health_interval{250};
  /// Re-admission backoff after ejection: probe r (1-based) waits
  /// min(backoff_initial_us << (r-1), backoff_max_us) — the same capped
  /// exponential curve the I/O layer retries with.
  io::RetryPolicy readmit = {};
  /// Idle upstream connections kept pooled per worker.
  std::size_t pool_per_worker = 4;
  /// When set, one `repro.svc.access` record per forwarded request is
  /// appended here, with the owning worker in the `upstream` field.
  std::filesystem::path access_log_path;
};

class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Opens the access log, binds the listener and starts the health-check
  /// thread. A log path that cannot be opened is an error naming the path.
  repro::Status start();
  /// Accepts and serves until a drain completes (SHUTDOWN verb or
  /// request_stop()). Joins all connection handlers before returning.
  repro::Status serve();
  /// Thread-safe, idempotent; also called by the SHUTDOWN verb.
  void request_stop();

  /// Bound TCP port (0 for unix-domain listeners).
  [[nodiscard]] std::uint16_t port() const;
  /// Human-readable listener endpoint.
  [[nodiscard]] std::string endpoint() const;
  /// Workers currently considered live (health-check view).
  [[nodiscard]] std::size_t live_workers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace repro::svc
