#include "svc/monitor.hpp"

#include <algorithm>
#include <optional>

#include "ckpt/history.hpp"
#include "common/build_info.hpp"
#include "common/json.hpp"
#include "merkle/compare.hpp"
#include "merkle/nodestore.hpp"
#include "telemetry/json_parse.hpp"
#include "telemetry/metrics.hpp"

namespace repro::svc {

namespace {

// ---------------------------------------------------------------------------
// Telemetry sites (registered once, process lifetime). The detection-latency
// pair is the SLO of the monitoring plane: wall microseconds (and reference-
// gap iterations) between a divergent push arriving and its alert existing.

std::span<const double> iters_buckets() noexcept {
  static const double buckets[] = {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
  return buckets;
}

struct WatchMetrics {
  telemetry::Gauge& sessions;
  telemetry::Gauge& buffered_bytes;
  telemetry::Counter& pushes;
  telemetry::Counter& alerts;
  telemetry::Histogram& push_latency_us;
  telemetry::Histogram& detection_latency_us;
  telemetry::Histogram& detection_latency_iters;

  static WatchMetrics& get() {
    auto& registry = telemetry::MetricsRegistry::global();
    static WatchMetrics* metrics = new WatchMetrics{
        registry.gauge("svc.watch.sessions"),
        registry.gauge("svc.watch.buffered_bytes"),
        registry.counter("svc.watch.pushes"),
        registry.counter("svc.watch.alerts_total"),
        registry.histogram("svc.watch.push_latency_us",
                           telemetry::micros_buckets()),
        registry.histogram("svc.watch.detection_latency_us",
                           telemetry::micros_buckets()),
        registry.histogram("svc.watch.detection_latency_iters",
                           iters_buckets()),
    };
    return *metrics;
  }
};

WatchReply bad_request(std::string_view message) {
  return {WireStatus::kBadRequest, error_payload(message)};
}

/// The value kind merkle::value_kind_name() spells `name`, if any.
std::optional<merkle::ValueKind> value_kind_named(std::string_view name) {
  for (const merkle::ValueKind kind :
       {merkle::ValueKind::kF32, merkle::ValueKind::kF64,
        merkle::ValueKind::kBytes}) {
    if (merkle::value_kind_name(kind) == name) return kind;
  }
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session state.

struct Monitor::Session {
  std::string root;
  std::string run;
  std::string reference;
  std::uint32_t rank = 0;
  double error_bound = 0;
  merkle::TreeParams params;
  std::uint64_t data_bytes = 0;
  std::uint64_t num_leaves = 0;

  merkle::MerkleTree frontier;  ///< valid once has_frontier
  bool has_frontier = false;
  std::uint64_t last_iteration = 0;

  std::uint64_t pushes = 0;
  std::uint64_t compared = 0;
  std::uint64_t skipped = 0;  ///< pushes with no reference sidecar yet
  /// Consecutive reference-gap iterations immediately before now: how many
  /// iterations a divergence could have hidden in. Feeds the alert's
  /// detection_latency_iters; 0 when every push was compared.
  std::uint64_t unverified_streak = 0;
  bool alerted = false;
  std::uint64_t alert_iteration = 0;

  /// Digest entries received over all pushes (the close summary's
  /// node_inserts). The frontier is everything else a session holds.
  std::uint64_t node_inserts = 0;

  [[nodiscard]] std::uint64_t frontier_bytes() const noexcept {
    return has_frontier ? frontier.nodes().size() * hash::kDigestBytes : 0;
  }
};

// ---------------------------------------------------------------------------
// Monitor.

Monitor::Monitor(MonitorOptions options, MetadataCache* cache)
    : options_(std::move(options)), cache_(cache) {
  // Register the svc.watch.* instruments at construction so a freshly
  // started daemon's exposition already carries every series (flat at
  // zero), not just after the first WATCH verb arrives.
  publish_gauges();
}

Monitor::~Monitor() = default;

repro::Status Monitor::open_alert_log() {
  return alert_log_.open(options_.alert_path);
}

void Monitor::publish_gauges() {
  WatchMetrics::get().sessions.set(static_cast<double>(sessions_.size()));
  WatchMetrics::get().buffered_bytes.set(
      static_cast<double>(buffered_bytes_));
}

WatchReply Monitor::open(std::uint64_t conn_id,
                         const std::string& json_payload,
                         const telemetry::TraceContext& parent) {
  telemetry::TraceSpan span("svc.watch.open", parent);
  if (sessions_.find(conn_id) != sessions_.end()) {
    return bad_request("watch session already open on this connection");
  }
  if (sessions_.size() >= options_.max_sessions) {
    return {WireStatus::kTooManyRequests,
            error_payload("watch session cap reached")};
  }
  const auto parsed = telemetry::json_parse(
      json_payload.empty() ? std::string_view("{}")
                           : std::string_view(json_payload));
  if (!parsed.has_value() || !parsed->is_object()) {
    return bad_request("WATCH_OPEN payload is not a JSON object");
  }
  auto session = std::make_unique<Session>();
  session->root = parsed->string_or("root", "");
  session->run = parsed->string_or("run", "");
  session->reference = parsed->string_or("reference", "");
  session->rank = static_cast<std::uint32_t>(parsed->u64_or("rank", 0));
  session->data_bytes = parsed->u64_or("data_bytes", 0);
  if (session->root.empty() || session->run.empty() ||
      session->reference.empty()) {
    return bad_request("WATCH_OPEN needs root, run, and reference");
  }
  if (session->data_bytes == 0) {
    return bad_request("WATCH_OPEN needs data_bytes > 0");
  }
  session->params = options_.compare.tree;
  session->params.chunk_bytes =
      parsed->u64_or("chunk_bytes", session->params.chunk_bytes);
  session->params.hash.values_per_block = static_cast<std::uint32_t>(
      parsed->u64_or("values_per_block", session->params.hash.values_per_block));
  if (const telemetry::JsonValue* field = parsed->find("value_kind")) {
    const auto named = value_kind_named(field->string);
    if (field->kind != telemetry::JsonValue::Kind::kString ||
        !named.has_value()) {
      return bad_request("WATCH_OPEN value_kind must be f32, f64 or bytes");
    }
    session->params.value_kind = *named;
  }
  session->error_bound =
      parsed->number_or("eps", options_.compare.error_bound);
  session->params.hash.error_bound = session->error_bound;
  if (const auto valid = merkle::validate(session->params); !valid.is_ok()) {
    return bad_request(valid.to_string());
  }
  session->num_leaves =
      (session->data_bytes + session->params.chunk_bytes - 1) /
      session->params.chunk_bytes;

  std::string out = "{";
  bool first = true;
  append_kv(out, "watching", session->run, &first);
  append_kv(out, "reference", session->reference, &first);
  append_kv(out, "rank", std::uint64_t{session->rank}, &first);
  append_kv(out, "chunk_bytes", session->params.chunk_bytes, &first);
  append_kv(out, "value_kind",
            merkle::value_kind_name(session->params.value_kind), &first);
  append_kv(out, "num_leaves", session->num_leaves, &first);
  append_kv(out, "eps", session->error_bound, &first);
  out += '}';
  sessions_.emplace(conn_id, std::move(session));
  publish_gauges();
  return {WireStatus::kOk, std::move(out)};
}

WatchReply Monitor::push(std::uint64_t conn_id, const std::string& payload,
                         const telemetry::TraceContext& parent) {
  const Stopwatch push_clock;
  auto it = sessions_.find(conn_id);
  if (it == sessions_.end()) {
    return bad_request("no watch session open on this connection");
  }
  Session& session = *it->second;

  auto decoded = decode_watch_push(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(payload.data()),
          payload.size()),
      options_.max_push_entries);
  if (!decoded.is_ok()) return bad_request(decoded.status().to_string());
  WatchPushFrame& frame = decoded.value();
  const std::uint64_t entry_count = frame.entries.size();

  // Iterations must be strictly increasing: the frontier is a chain of
  // deltas, so a replayed or reordered iteration cannot be applied.
  if (session.pushes > 0 && frame.iteration <= session.last_iteration) {
    return bad_request("out-of-order WATCH_PUSH iteration");
  }

  const merkle::TreeLayout layout =
      merkle::TreeLayout::for_leaves(session.num_leaves);
  merkle::MerkleTree next;
  if (!frame.delta) {
    // Full frontier: the entries must be the complete node array.
    if (frame.entries.size() != layout.num_nodes() ||
        frame.entries.front().index != 0 ||
        frame.entries.back().index != layout.num_nodes() - 1) {
      return bad_request(
          "full WATCH_PUSH must carry the complete node array");
    }
    std::vector<hash::Digest128> nodes(frame.entries.size());
    for (std::size_t i = 0; i < frame.entries.size(); ++i) {
      nodes[i] = frame.entries[i].digest;
    }
    auto built =
        merkle::MerkleTree::from_parts(session.params, session.data_bytes,
                                       session.num_leaves, std::move(nodes));
    if (!built.is_ok()) return bad_request(built.status().to_string());
    next = std::move(built.value());
  } else {
    if (!session.has_frontier) {
      return bad_request("first WATCH_PUSH must carry a full frontier");
    }
    merkle::TreeDelta delta;
    delta.iteration = frame.iteration;
    delta.base_iteration = session.last_iteration;
    delta.params = session.params;
    delta.data_bytes = session.data_bytes;
    delta.num_leaves = session.num_leaves;
    delta.nodes = std::move(frame.entries);
    auto applied = merkle::apply_tree_delta(session.frontier, delta);
    if (!applied.is_ok()) return bad_request(applied.status().to_string());
    next = std::move(applied.value());
  }

  session.node_inserts += entry_count;
  buffered_bytes_ -= session.frontier_bytes();
  session.frontier = std::move(next);
  session.has_frontier = true;
  session.last_iteration = frame.iteration;
  ++session.pushes;
  buffered_bytes_ += session.frontier_bytes();
  publish_gauges();
  WatchMetrics::get().pushes.increment();

  WatchReply reply;
  {
    // Linked child of the server's svc.watch span (itself linked under the
    // client's request span when the frame carried a trailer): the compare
    // is the expensive part of a push, worth its own slice in the merged
    // timeline.
    telemetry::TraceSpan compare_span("svc.watch.compare", parent);
    compare_span.arg("iteration", frame.iteration);
    reply = compare_iteration(session, frame.iteration, push_clock);
    compare_span.arg("status", wire_status_name(reply.status));
  }
  WatchMetrics::get().push_latency_us.record(push_clock.seconds() * 1e6);
  return reply;
}

WatchReply Monitor::compare_iteration(Session& session,
                                      std::uint64_t iteration,
                                      const Stopwatch& push_clock) {
  const ckpt::HistoryCatalog catalog(session.root);
  const ckpt::CheckpointRef ref =
      catalog.ref(session.reference, iteration, session.rank);

  std::string out = "{";
  bool first = true;
  append_kv(out, "iteration", iteration, &first);

  bool hit = false;
  auto bundle = pin_sidecar(*cache_, ref.metadata_path, &hit);
  if (bundle.is_ok() && bundle.value() == nullptr) {
    // The reference run has not captured this iteration (yet): record the
    // gap — a divergence here is only detectable later — and stay open.
    ++session.skipped;
    ++session.unverified_streak;
    append_kv(out, "verdict", "no-reference", &first);
    append_kv(out, "chunks_total", session.num_leaves, &first);
    append_kv_bool(out, "first_divergence", false, &first);
    append_kv_bool(out, "alerted", session.alerted, &first);
    out += '}';
    return {WireStatus::kOk, std::move(out)};
  }

  if (!bundle.is_ok()) {
    return {WireStatus::kInternal,
            error_payload(bundle.status().to_string())};
  }
  auto ref_tree = bundle.value()->sole_tree();
  if (!ref_tree.is_ok()) {
    return {WireStatus::kInternal,
            error_payload(ref_tree.status()
                              .with_context(ref.metadata_path.string())
                              .to_string())};
  }
  // Stage 1 of the compare engine: the pruned BFS. Serial, because this is
  // the event-loop thread, which must never wait on a pool. Parameters or
  // data sizes that differ make the digests incomparable; the session can
  // never match this reference, so the push poisons the stream.
  const merkle::TreeView mine(session.frontier);
  auto candidates = merkle::compare_trees(ref_tree.value(), mine,
                                          {.exec = par::Exec::serial()});
  if (!candidates.is_ok()) {
    if (candidates.status().code() == repro::StatusCode::kFailedPrecondition) {
      return bad_request("reference sidecar cannot be compared with this "
                         "session: " +
                         std::string{candidates.status().message()});
    }
    return {WireStatus::kInternal,
            error_payload(candidates.status().to_string())};
  }
  const std::vector<std::uint64_t>& flagged_chunks = candidates.value();
  const bool clean = flagged_chunks.empty();
  const std::uint64_t flagged = flagged_chunks.size();
  const std::uint64_t first_chunk = clean ? 0 : flagged_chunks.front();
  ++session.compared;

  const bool first_divergence = !clean && !session.alerted;
  if (first_divergence) {
    const std::uint64_t latency_iters = session.unverified_streak;
    const double latency_us = push_clock.seconds() * 1e6;
    session.alerted = true;
    session.alert_iteration = iteration;
    emit_alert(session, iteration, flagged, session.num_leaves, first_chunk,
               latency_iters, latency_us);
    WatchMetrics::get().alerts.increment();
    WatchMetrics::get().detection_latency_us.record(latency_us);
    WatchMetrics::get().detection_latency_iters.record(
        static_cast<double>(latency_iters));
  }
  session.unverified_streak = 0;

  append_kv(out, "verdict", clean ? "clean" : "divergent", &first);
  append_kv(out, "chunks_total", session.num_leaves, &first);
  append_kv(out, "chunks_flagged", flagged, &first);
  if (!clean) append_kv(out, "first_divergent_chunk", first_chunk, &first);
  append_kv_bool(out, "first_divergence", first_divergence, &first);
  append_kv_bool(out, "alerted", session.alerted, &first);
  append_kv_bool(out, "cache_hit", hit, &first);
  out += '}';
  return {WireStatus::kOk, std::move(out)};
}

void Monitor::emit_alert(const Session& session, std::uint64_t iteration,
                         std::uint64_t chunks_flagged,
                         std::uint64_t chunks_total,
                         std::uint64_t first_divergent_chunk,
                         std::uint64_t latency_iters, double latency_us) {
  if (!alert_log_.enabled()) return;
  // One self-contained line per alert (schema "repro.divergence.alert" v1,
  // docs/FORMATS.md): unlike the ledger's header-then-records shape, every
  // record repeats the schema + provenance header so appends from many
  // sessions — or many daemon lifetimes — interleave into one valid file.
  const BuildInfo build = repro::build_info();
  std::string line = "{\"schema\":";
  json_append_string(line, "repro.divergence.alert");
  line += ",\"version\":1";
  bool first = false;  // continuing after the version field
  append_kv(line, "run", session.run, &first);
  append_kv(line, "reference", session.reference, &first);
  append_kv(line, "rank", std::uint64_t{session.rank}, &first);
  append_kv(line, "iteration", iteration, &first);
  append_kv(line, "error_bound", session.error_bound, &first);
  append_kv(line, "chunks_flagged", chunks_flagged, &first);
  append_kv(line, "chunks_total", chunks_total, &first);
  append_kv(line, "first_divergent_chunk", first_divergent_chunk, &first);
  append_kv(line, "detection_latency_iters", latency_iters, &first);
  append_kv(line, "detection_latency_us", latency_us, &first);
  line += ",\"provenance\":{";
  bool prov = true;
  append_kv(line, "compiler", build.compiler, &prov);
  append_kv(line, "build_type", build.build_type, &prov);
  append_kv(line, "version", build.version, &prov);
  append_kv(line, "simd_level", build.simd_level, &prov);
  line += "}}";
  // Plain append, not an atomic whole-file publish: the file is a log that
  // outlives any single session, and a torn tail line is detectable (no
  // trailing newline) without invalidating earlier records.
  alert_log_.write_line(std::move(line));
}

WatchReply Monitor::close(std::uint64_t conn_id) {
  auto it = sessions_.find(conn_id);
  if (it == sessions_.end()) {
    return bad_request("no watch session open on this connection");
  }
  const Session& session = *it->second;
  std::string out = "{";
  bool first = true;
  append_kv(out, "iterations_pushed", session.pushes, &first);
  append_kv(out, "compared", session.compared, &first);
  append_kv(out, "skipped_no_reference", session.skipped, &first);
  append_kv_bool(out, "alerted", session.alerted, &first);
  if (session.alerted) {
    append_kv(out, "alert_iteration", session.alert_iteration, &first);
  }
  append_kv(out, "node_inserts", session.node_inserts, &first);
  out += '}';
  buffered_bytes_ -= session.frontier_bytes();
  sessions_.erase(it);
  publish_gauges();
  return {WireStatus::kOk, std::move(out)};
}

void Monitor::drop(std::uint64_t conn_id) {
  auto it = sessions_.find(conn_id);
  if (it == sessions_.end()) return;
  buffered_bytes_ -= it->second->frontier_bytes();
  sessions_.erase(it);
  publish_gauges();
}

}  // namespace repro::svc
