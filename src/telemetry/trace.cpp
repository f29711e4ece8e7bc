#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "common/fs.hpp"
#include "common/json.hpp"

namespace repro::telemetry {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

std::uint64_t trace_now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

std::uint64_t random_trace_id() noexcept {
  static const std::uint64_t seed = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  static std::atomic<std::uint64_t> counter{0};
  // splitmix64: each increment yields an independent-looking 64-bit value.
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ull *
                 (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 1;
}

namespace {

/// One buffered span. Fixed-size payloads keep the ring allocation-free.
struct TraceEvent {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  SpanIds ids;
  std::uint8_t name_len = 0;
  std::uint8_t args_len = 0;
  char name[48];
  char args[168];
};

std::size_t ring_capacity() noexcept {
  static const std::size_t capacity = [] {
    const char* env = std::getenv("REPRO_TRACE_BUFFER_EVENTS");
    if (env != nullptr) {
      const long parsed = std::atol(env);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    return std::size_t{16384};
  }();
  return capacity;
}

}  // namespace

/// Per-thread span ring. The owning thread pushes under `mu` (uncontended
/// in steady state); flush/clear lock the same mutex from the reader side.
/// A thread registers its buffer with its first span, and the ring grows
/// with the spans it holds up to ring_capacity(): a thread that records no
/// span is not in the trace, and a short-lived one keeps only its spans.
struct TraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::uint64_t recorded = 0;  ///< total spans pushed (monotonic)
  std::uint64_t tid = 0;       ///< registration order, stable for the run
  std::string name;            ///< optional thread name

  void push(std::string_view span_name, std::uint64_t begin_ns,
            std::uint64_t end_ns, std::string_view args_json,
            const SpanIds& ids) {
    if (ring.size() < ring_capacity()) ring.emplace_back();
    TraceEvent& event = ring[recorded % ring.size()];
    event.begin_ns = begin_ns;
    event.end_ns = end_ns;
    event.ids = ids;
    event.name_len = static_cast<std::uint8_t>(
        std::min(span_name.size(), sizeof(event.name)));
    std::memcpy(event.name, span_name.data(), event.name_len);
    event.args_len = static_cast<std::uint8_t>(
        std::min(args_json.size(), sizeof(event.args)));
    std::memcpy(event.args, args_json.data(), event.args_len);
    ++recorded;
  }
};

namespace {

thread_local TraceBuffer* t_buffer = nullptr;
/// The calling thread's name until its first span registers its buffer.
thread_local std::string t_thread_name;

}  // namespace

}  // namespace detail

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

detail::TraceBuffer& Tracer::thread_buffer() {
  if (detail::t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buffer = std::make_unique<detail::TraceBuffer>();
    buffer->tid = buffers_.size();
    buffer->name = std::move(detail::t_thread_name);
    detail::t_buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *detail::t_buffer;
}

void Tracer::set_thread_name(std::string_view name) {
  if (detail::t_buffer == nullptr) {
    detail::t_thread_name.assign(name);
    return;
  }
  std::lock_guard<std::mutex> lock(detail::t_buffer->mu);
  detail::t_buffer->name.assign(name);
}

void Tracer::record(std::string_view name, std::uint64_t begin_ns,
                    std::uint64_t end_ns, std::string_view args_json,
                    const SpanIds& ids) {
  detail::TraceBuffer& buffer = thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.push(name, begin_ns, end_ns, args_json, ids);
}

TraceContext TraceContext::new_root() noexcept {
  if (!Tracer::enabled()) return {};
  return {detail::random_trace_id(), detail::random_trace_id(), 0};
}

namespace {

void append_hex_u64(std::string& out, std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  out.append(buf, 16);
}

}  // namespace

std::string TraceContext::trace_id_hex() const {
  std::string out;
  out.reserve(32);
  append_hex_u64(out, trace_hi);
  append_hex_u64(out, trace_lo);
  return out;
}

std::string span_id_hex(std::uint64_t id) {
  std::string out;
  out.reserve(16);
  append_hex_u64(out, id);
  return out;
}

namespace {

// Counter samples arrive at sampler rate; bound the buffer so a run that
// forgets to stop its sampler cannot grow without limit. At the default
// 50 ms period this covers ~54 minutes of samples per counter octet.
constexpr std::size_t kMaxCounterSamples = 1 << 18;

}  // namespace

void Tracer::record_counter(std::string_view name, double value) {
  if (!enabled()) return;
  const std::uint64_t ts = detail::trace_now_ns();
  std::lock_guard<std::mutex> lock(counter_mu_);
  if (counters_.size() >= kMaxCounterSamples) return;
  counters_.push_back({std::string{name}, ts, value});
}

std::uint64_t Tracer::counter_count() {
  std::lock_guard<std::mutex> lock(counter_mu_);
  return counters_.size();
}

std::uint64_t Tracer::span_count() {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += std::min<std::uint64_t>(buffer->recorded, buffer->ring.size());
  }
  return total;
}

std::uint64_t Tracer::dropped_spans() {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    if (buffer->recorded > buffer->ring.size()) {
      dropped += buffer->recorded - buffer->ring.size();
    }
  }
  return dropped;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->recorded = 0;
    buffer->ring.clear();
    buffer->ring.shrink_to_fit();
  }
  std::lock_guard<std::mutex> counter_lock(counter_mu_);
  counters_.clear();
  counters_.shrink_to_fit();
}

namespace {

struct ThreadSpans {
  std::uint64_t tid = 0;
  std::string name;
  std::vector<detail::TraceEvent> spans;  ///< oldest -> newest
};

void append_ts_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  out += buf;
}

/// Emits one thread's spans as properly nested "B"/"E" pairs. Spans are
/// recorded at end time, so re-derive nesting: sort by (begin asc, end
/// desc) — outermost first — then sweep with a stack, closing every span
/// that ends before the next one begins. RAII guarantees spans on one
/// thread are nested or disjoint; the `last_ts` clamp keeps the emitted
/// stream monotonic even for pathological timestamps.
void emit_thread_events(std::string& out, const ThreadSpans& thread,
                        bool* first_event) {
  struct SpanRef {
    const detail::TraceEvent* event;
    std::size_t order;
  };
  std::vector<SpanRef> spans;
  spans.reserve(thread.spans.size());
  for (std::size_t i = 0; i < thread.spans.size(); ++i) {
    spans.push_back({&thread.spans[i], i});
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRef& a, const SpanRef& b) {
              if (a.event->begin_ns != b.event->begin_ns) {
                return a.event->begin_ns < b.event->begin_ns;
              }
              if (a.event->end_ns != b.event->end_ns) {
                return a.event->end_ns > b.event->end_ns;
              }
              return a.order < b.order;
            });

  std::uint64_t last_ts = 0;
  auto emit = [&](const detail::TraceEvent& event, bool is_begin) {
    const std::uint64_t raw = is_begin ? event.begin_ns : event.end_ns;
    last_ts = std::max(last_ts, raw);
    out += *first_event ? "\n    " : ",\n    ";
    *first_event = false;
    out += "{\"name\": ";
    json_append_string(out,
                       std::string_view{event.name, event.name_len});
    out += ", \"cat\": \"repro\", \"ph\": \"";
    out += is_begin ? 'B' : 'E';
    out += "\", \"ts\": ";
    append_ts_us(out, last_ts);
    out += ", \"pid\": 1, \"tid\": ";
    json_append_number(out, thread.tid);
    // Trace identity rides in args so merged traces (repro-cli trace-merge)
    // can join client and server spans by trace_id / parent_span_id.
    const bool has_ids =
        (event.ids.trace_hi | event.ids.trace_lo) != 0;
    if (is_begin && (event.args_len > 0 || has_ids)) {
      out += ", \"args\": {";
      out.append(event.args, event.args_len);
      if (has_ids) {
        if (event.args_len > 0) out += ',';
        out += "\"trace_id\": \"";
        out += TraceContext{event.ids.trace_hi, event.ids.trace_lo, 0}
                   .trace_id_hex();
        out += "\", \"span_id\": \"";
        out += span_id_hex(event.ids.span_id);
        out += '"';
        if (event.ids.parent_id != 0) {
          out += ", \"parent_span_id\": \"";
          out += span_id_hex(event.ids.parent_id);
          out += '"';
        }
      }
      out += '}';
    }
    out += '}';
  };

  std::vector<const detail::TraceEvent*> stack;
  for (const SpanRef& ref : spans) {
    while (!stack.empty() && stack.back()->end_ns <= ref.event->begin_ns) {
      emit(*stack.back(), false);
      stack.pop_back();
    }
    emit(*ref.event, true);
    stack.push_back(ref.event);
  }
  while (!stack.empty()) {
    emit(*stack.back(), false);
    stack.pop_back();
  }
}

}  // namespace

std::string Tracer::chrome_trace_json() {
  std::vector<ThreadSpans> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.reserve(buffers_.size());
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      ThreadSpans thread;
      thread.tid = buffer->tid;
      thread.name = buffer->name;
      const std::size_t capacity = buffer->ring.size();
      const std::size_t kept =
          static_cast<std::size_t>(std::min<std::uint64_t>(
              buffer->recorded, static_cast<std::uint64_t>(capacity)));
      thread.spans.reserve(kept);
      const std::uint64_t start = buffer->recorded - kept;
      for (std::uint64_t i = start; i < buffer->recorded; ++i) {
        thread.spans.push_back(buffer->ring[i % capacity]);
      }
      threads.push_back(std::move(thread));
    }
  }

  std::string out;
  out.reserve(4096);
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": "
         "{\"droppedSpans\": ";
  json_append_number(out, dropped_spans());
  out += "},\n  \"traceEvents\": [";
  bool first = true;

  // Metadata: process name + per-thread names.
  out += "\n    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"reprokit\"}}";
  first = false;
  for (const ThreadSpans& thread : threads) {
    out += ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": ";
    json_append_number(out, thread.tid);
    out += ", \"args\": {\"name\": ";
    if (thread.name.empty()) {
      json_append_string(out, "thread-" + std::to_string(thread.tid));
    } else {
      json_append_string(out, thread.name);
    }
    out += "}}";
  }

  for (const ThreadSpans& thread : threads) {
    emit_thread_events(out, thread, &first);
  }

  // Counter samples ("C" phase). Chrome keys counter tracks by (pid, name),
  // so all samples share pid 1; sort by timestamp since concurrent
  // recorders can take their timestamps slightly out of lock order.
  std::vector<CounterSample> counters;
  {
    std::lock_guard<std::mutex> counter_lock(counter_mu_);
    counters = counters_;
  }
  std::stable_sort(counters.begin(), counters.end(),
                   [](const CounterSample& a, const CounterSample& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  for (const CounterSample& sample : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"name\": ";
    json_append_string(out, sample.name);
    out += ", \"cat\": \"repro\", \"ph\": \"C\", \"ts\": ";
    append_ts_us(out, sample.ts_ns);
    out += ", \"pid\": 1, \"tid\": 0, \"args\": {\"value\": ";
    json_append_number(out, sample.value);
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

repro::Status Tracer::write_chrome_trace(const std::filesystem::path& path) {
  const std::string json = chrome_trace_json();
  return repro::write_file(
             path, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(json.data()),
                       json.size()))
      .with_context("writing chrome trace");
}

TraceSpan::TraceSpan(std::string_view name,
                     const TraceContext& parent) noexcept {
  if (!Tracer::enabled()) return;
  active_ = true;
  name_len_ =
      static_cast<std::uint8_t>(std::min(name.size(), sizeof(name_)));
  std::memcpy(name_, name.data(), name_len_);
  if (parent.valid()) {
    ids_.trace_hi = parent.trace_hi;
    ids_.trace_lo = parent.trace_lo;
    ids_.parent_id = parent.span_id;
    ids_.span_id = detail::random_trace_id();
  }
  begin_ns_ = detail::trace_now_ns();
}

bool TraceSpan::append_key(std::string_view key,
                           std::size_t payload_reserve) noexcept {
  const std::size_t need = 1 + key.size() + 3 + payload_reserve;
  if (static_cast<std::size_t>(args_len_) + need > sizeof(args_)) {
    return false;
  }
  std::size_t len = args_len_;
  if (len > 0) args_[len++] = ',';
  args_[len++] = '"';
  std::memcpy(args_ + len, key.data(), key.size());
  len += key.size();
  args_[len++] = '"';
  args_[len++] = ':';
  args_len_ = static_cast<std::uint8_t>(len);
  return true;
}

void TraceSpan::append_raw(std::string_view text) noexcept {
  const std::size_t room = sizeof(args_) - args_len_;
  const std::size_t take = std::min(text.size(), room);
  std::memcpy(args_ + args_len_, text.data(), take);
  args_len_ = static_cast<std::uint8_t>(args_len_ + take);
}

TraceSpan& TraceSpan::arg(std::string_view key, std::uint64_t value) noexcept {
  if (!active_) return *this;
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%llu",
                              static_cast<unsigned long long>(value));
  if (n > 0 && append_key(key, static_cast<std::size_t>(n))) {
    append_raw({buf, static_cast<std::size_t>(n)});
  }
  return *this;
}

TraceSpan& TraceSpan::arg(std::string_view key, std::int64_t value) noexcept {
  if (!active_) return *this;
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%lld",
                              static_cast<long long>(value));
  if (n > 0 && append_key(key, static_cast<std::size_t>(n))) {
    append_raw({buf, static_cast<std::size_t>(n)});
  }
  return *this;
}

TraceSpan& TraceSpan::arg(std::string_view key, double value) noexcept {
  if (!active_) return *this;
  char buf[40];
  int n;
  if (value == static_cast<double>(static_cast<long long>(value))) {
    n = std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(value));
  } else {
    n = std::snprintf(buf, sizeof buf, "%.6g", value);
  }
  if (n > 0 && append_key(key, static_cast<std::size_t>(n))) {
    append_raw({buf, static_cast<std::size_t>(n)});
  }
  return *this;
}

TraceSpan& TraceSpan::arg(std::string_view key,
                          std::string_view value) noexcept {
  if (!active_) return *this;
  // Escape into a bounded scratch buffer; oversized values truncate.
  char buf[96];
  std::size_t len = 0;
  buf[len++] = '"';
  for (const char c : value) {
    if (len + 3 >= sizeof(buf)) break;
    if (c == '"' || c == '\\') buf[len++] = '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      buf[len++] = ' ';
    } else {
      buf[len++] = c;
    }
  }
  buf[len++] = '"';
  if (append_key(key, len)) append_raw({buf, len});
  return *this;
}

}  // namespace repro::telemetry
