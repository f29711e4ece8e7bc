// In-memory span recorder for the traced run.
//
// Spans are recorded in the benchmark's own code around calls into the
// program's public functions; nothing inside the program is instrumented.
// A span has a name, start and end, the span open on the same thread when
// it began (its parent) and a request id shared by every span of one
// operation. Spans stay in memory and are written out when the run ends,
// followed by each span name's self time: its duration minus the time its
// child spans cover.
//
// While tracing is off a Span costs one predictable branch, so the untraced
// run measures the program, not the recorder.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace reprobench {

struct SpanRecord {
  const char* name = "";
  double start = 0;  ///< seconds, steady clock
  double end = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span on the calling thread; returns its index.
  std::int64_t begin(const char* name, std::uint64_t request);
  void end(std::int64_t index);
  /// Records a finished root span whose start and end were taken elsewhere
  /// (a request sent on one iteration of a loop and answered on another).
  void record(const char* name, double start, double end,
              std::uint64_t request);

  /// Adds `amount` to a named counter (bytes, chunks, nodes...).
  void count(const std::string& name, double amount);
  [[nodiscard]] double counter(const std::string& name) const;

  /// Durations (seconds) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Sum of durations of every span named `name`.
  [[nodiscard]] double total(const std::string& name) const;

  /// Writes every span as one JSON line, then a self-time table per name.
  /// `preamble` lines are written first (the run's identity and the
  /// traced-versus-untraced comparison).
  void write(const std::filesystem::path& spans_path,
             const std::filesystem::path& summary_path,
             const std::vector<std::string>& preamble) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;  ///< guards spans_ and counters_
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : index_(Tracer::get().enabled() ? Tracer::get().begin(name, request)
                                       : -1) {}
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent).
  void finish() {
    if (index_ >= 0) Tracer::get().end(index_);
    index_ = -1;
  }

 private:
  std::int64_t index_;
};

}  // namespace reprobench
