// Live divergence monitoring plane (RSVC v2 WATCH verbs).
//
// The batch COMPARE path is post-hoc: both runs finish, then sidecars are
// diffed — a silently diverged run burns its whole allocation before anyone
// looks. A WATCH session inverts that: the producer streams each capture
// iteration's Merkle node digests to the daemon as they are built
// (WATCH_PUSH, binary frames reusing the RMFD 24-byte {node_index, digest}
// entry encoding), the daemon incrementally rebuilds the watched run's
// frontier tree (full nodes on the first push, apply_tree_delta for the
// rest) and compares it against the reference run's sidecar from the
// resident MetadataCache with the compare engine's stage 1, the pruned BFS
// (merkle::compare_trees, serial on the loop thread): a clean push costs
// one start-level sweep, a divergent one descends only mismatching
// subtrees to the candidate chunks. A reference whose tree parameters (ε,
// values_per_block, chunk size, value kind) or data size differ from the
// session's cannot be compared and is a BAD_REQUEST. On the first
// divergent push the daemon replies with a divergent verdict (the
// candidate count and first candidate chunk) and emits one
// `repro.divergence.alert` v1 JSONL record
// (self-contained header: schema, version, build provenance) to the alert
// file — the detection-latency SLO (`svc.watch.detection_latency_us`)
// measures push arrival to alert emission.
//
// Sessions are keyed by connection id — one WATCH session per connection —
// and every entry point runs on the server's event-loop thread, so the
// session table needs no locking and per-connection push ordering is
// natural. A malformed or out-of-order WATCH_PUSH poisons the digest
// stream the same way a framing violation poisons the byte stream: the
// server answers one BAD_REQUEST and closes (docs/SERVICE.md).
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/timer.hpp"
#include "compare/comparator.hpp"
#include "merkle/flat.hpp"
#include "merkle/nodestore.hpp"
#include "merkle/tree.hpp"
#include "svc/cache.hpp"
#include "svc/log_file.hpp"
#include "svc/wire.hpp"
#include "telemetry/trace.hpp"

namespace repro::svc {

struct MonitorOptions {
  /// JSONL file first-divergence alerts are appended to; empty disables
  /// alert persistence (verdict frames still report the divergence).
  std::filesystem::path alert_path;

  /// Base tree/ε configuration; WATCH_OPEN requests may override
  /// chunk_bytes / eps / values_per_block per session.
  cmp::CompareOptions compare;

  /// Concurrent session cap (one session per connection).
  std::size_t max_sessions = 64;

  /// Cap on entries in one WATCH_PUSH (bounds decode work per frame).
  std::uint64_t max_push_entries = 1u << 22;
};

/// One verb's outcome: the wire status plus the reply payload (JSON).
struct WatchReply {
  WireStatus status = WireStatus::kOk;
  std::string payload;
};

/// Loop-thread-owned WATCH session table. All methods must be called from
/// the server's event-loop thread (single-threaded by construction; the
/// registry metrics it publishes are safe to read from anywhere).
class Monitor {
 public:
  Monitor(MonitorOptions options, MetadataCache* cache);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Opens the alert log named by MonitorOptions::alert_path (nothing to
  /// open when it is empty). The server calls this from start(), so a path
  /// that cannot be opened is a start error.
  repro::Status open_alert_log();

  /// WATCH_OPEN: {"root","run","reference","data_bytes"} plus optional
  /// "rank", "eps", "chunk_bytes", "values_per_block". `parent` is the
  /// server-side span handling the verb (invalid when tracing is off or
  /// the request carried no trace-context trailer); monitor-internal spans
  /// link under it so a merged timeline keeps the causal chain.
  WatchReply open(std::uint64_t conn_id, const std::string& json_payload,
                  const telemetry::TraceContext& parent = {});

  /// WATCH_PUSH: binary payload (encode_watch_push). A kBadRequest reply
  /// means the digest stream is poisoned — the caller must close the
  /// connection after the reply, per the framing-violation contract.
  WatchReply push(std::uint64_t conn_id, const std::string& payload,
                  const telemetry::TraceContext& parent = {});

  /// WATCH_CLOSE: session summary reply; the session is torn down.
  WatchReply close(std::uint64_t conn_id);

  /// Teardown without a reply (connection dropped mid-session).
  void drop(std::uint64_t conn_id);

  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size();
  }

 private:
  struct Session;

  WatchReply compare_iteration(Session& session, std::uint64_t iteration,
                               const Stopwatch& push_clock);
  void emit_alert(const Session& session, std::uint64_t iteration,
                  std::uint64_t chunks_flagged, std::uint64_t chunks_total,
                  std::uint64_t first_divergent_chunk,
                  std::uint64_t latency_iters, double latency_us);
  void publish_gauges();

  MonitorOptions options_;
  MetadataCache* cache_;
  LogFile alert_log_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t buffered_bytes_ = 0;
};

}  // namespace repro::svc
