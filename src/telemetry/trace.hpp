// RAII span tracing with Chrome trace-event export.
//
// TraceSpan objects mark begin/end of a region of interest (a capture, a
// Merkle build, one BFS level, one I/O batch) together with the recording
// thread and small key=value args. Spans land in per-thread ring buffers;
// nothing is shared on the hot path beyond one uncontended per-thread mutex
// acquisition per completed span. When tracing is disabled (the default) a
// span costs a single relaxed atomic load — cheap enough to leave the
// instrumentation compiled in everywhere.
//
// Tracer::write_chrome_trace() flushes every thread's buffer as Chrome
// trace-event JSON ("B"/"E" duration events), loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. The CLI wires this to
// `--trace-out=PATH`; see docs/OBSERVABILITY.md.
//
// Besides spans, the tracer buffers *counter samples* ("C" phase events):
// timestamped numeric values such as RSS or io_uring in-flight depth, fed by
// telemetry::ResourceSampler. Counters render as stacked area charts in the
// trace viewer, aligned with the spans on the same timeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace repro::telemetry {

namespace detail {

struct TraceBuffer;

extern std::atomic<bool> g_trace_enabled;

/// Nanoseconds on the steady clock since the process's trace epoch (first
/// call). All spans share this epoch, so cross-thread ordering is honest.
std::uint64_t trace_now_ns() noexcept;

/// Nonzero pseudo-random 64-bit id (splitmix64 over a per-process seed).
/// Not cryptographic — ids only need to be unique enough to join traces.
std::uint64_t random_trace_id() noexcept;

}  // namespace detail

/// Trace identity carried across process boundaries (the RSVC wire
/// trailer). `trace_hi`/`trace_lo` form a 128-bit trace id shared by every
/// span in one causal chain; `span_id` names the span that acts as parent
/// for linked children. A default-constructed context is invalid — spans
/// built from it stay unlinked, so propagation degrades to today's
/// behavior when either end has no identity to offer.
struct TraceContext {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const noexcept {
    return (trace_hi | trace_lo) != 0;
  }

  /// Fresh 128-bit trace id with no parent span (a root). Returns an
  /// invalid context while tracing is disabled, so callers can branch on
  /// valid() to decide whether to propagate anything at all.
  [[nodiscard]] static TraceContext new_root() noexcept;

  /// 32 lowercase hex chars (OpenTelemetry-style trace id rendering).
  [[nodiscard]] std::string trace_id_hex() const;
};

/// 16 lowercase hex chars for one span id.
[[nodiscard]] std::string span_id_hex(std::uint64_t id);

/// Identity attached to one recorded span; all-zero for unlinked spans.
struct SpanIds {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

class Tracer {
 public:
  /// Process-wide tracer (leaky singleton, safe from exiting threads).
  static Tracer& global();

  void set_enabled(bool on) noexcept {
    detail::g_trace_enabled.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() noexcept {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// Names the calling thread in trace output ("pool-3", "io-producer").
  /// Cheap: the thread enters the trace only with its first span.
  void set_thread_name(std::string_view name);

  /// Spans currently buffered / overwritten because a ring filled up.
  [[nodiscard]] std::uint64_t span_count();
  [[nodiscard]] std::uint64_t dropped_spans();

  /// Buffers one counter sample (Chrome "C" phase) at the current trace
  /// timestamp. Samples arrive at sampler rate (tens of Hz), so a plain
  /// mutex-guarded vector is plenty; calls are no-ops while tracing is
  /// disabled. `name` becomes the counter track's title in the viewer.
  void record_counter(std::string_view name, double value);

  /// Counter samples currently buffered (for tests / introspection).
  [[nodiscard]] std::uint64_t counter_count();

  /// Drops all buffered spans (ring memory is released).
  void clear();

  /// Chrome trace-event JSON document for everything buffered so far.
  [[nodiscard]] std::string chrome_trace_json();

  /// Writes chrome_trace_json() to `path` (atomic publish).
  repro::Status write_chrome_trace(const std::filesystem::path& path);

  /// Called by ~TraceSpan; not for direct use. `ids` carries the span's
  /// trace identity (all-zero for unlinked spans).
  void record(std::string_view name, std::uint64_t begin_ns,
              std::uint64_t end_ns, std::string_view args_json,
              const SpanIds& ids = {});

 private:
  struct CounterSample {
    std::string name;
    std::uint64_t ts_ns = 0;
    double value = 0.0;
  };

  Tracer() = default;
  detail::TraceBuffer& thread_buffer();

  std::mutex mu_;
  std::vector<std::unique_ptr<detail::TraceBuffer>> buffers_;
  std::mutex counter_mu_;
  std::vector<CounterSample> counters_;
};

/// RAII span: records [construction, destruction) of the enclosing scope
/// under `name`. Args attach extra numbers/strings visible in Perfetto's
/// span details. All methods are no-ops while tracing is disabled.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) noexcept {
    if (!Tracer::enabled()) return;
    active_ = true;
    name_len_ = static_cast<std::uint8_t>(
        std::min(name.size(), sizeof(name_)));
    std::memcpy(name_, name.data(), name_len_);
    begin_ns_ = detail::trace_now_ns();
  }

  /// Span linked under `parent`: adopts the parent's trace id, records
  /// parent.span_id as its parent span, and mints a fresh span id of its
  /// own. An invalid parent degrades to the plain unlinked constructor —
  /// callers can pass a context decoded from the wire unconditionally.
  TraceSpan(std::string_view name, const TraceContext& parent) noexcept;

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { end(); }

  TraceSpan& arg(std::string_view key, std::uint64_t value) noexcept;
  TraceSpan& arg(std::string_view key, std::int64_t value) noexcept;
  TraceSpan& arg(std::string_view key, double value) noexcept;
  TraceSpan& arg(std::string_view key, std::string_view value) noexcept;

  /// This span's identity for propagation (e.g. into the RSVC trailer or a
  /// child span). Invalid when the span is unlinked or tracing is off.
  [[nodiscard]] TraceContext context() const noexcept {
    return {ids_.trace_hi, ids_.trace_lo, ids_.span_id};
  }

  /// Ends the span now; the destructor becomes a no-op.
  void end() noexcept {
    if (!active_) return;
    active_ = false;
    Tracer::global().record(std::string_view{name_, name_len_}, begin_ns_,
                            detail::trace_now_ns(),
                            std::string_view{args_, args_len_}, ids_);
  }

 private:
  /// Appends `,"key":<payload>` if it fits; drops the arg otherwise.
  bool append_key(std::string_view key, std::size_t payload_reserve) noexcept;
  void append_raw(std::string_view text) noexcept;

  bool active_ = false;
  std::uint8_t name_len_ = 0;
  std::uint8_t args_len_ = 0;
  std::uint64_t begin_ns_ = 0;
  SpanIds ids_;
  char name_[48];
  char args_[168];
};

}  // namespace repro::telemetry
