#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common.hpp"

namespace reprobench {

namespace {
thread_local std::vector<std::int64_t> open_spans;
}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::begin(const char* name, std::uint64_t request) {
  SpanRecord record;
  record.name = name;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.request = request;
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<std::int64_t>(spans_.size());
    record.start = now_s();
    spans_.push_back(record);
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::end(std::int64_t index) {
  const double t = now_s();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end = t;
  }
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
}

void Tracer::record(const char* name, double start, double end,
                    std::uint64_t request) {
  SpanRecord span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::count(const std::string& name, double amount) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += amount;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) out.push_back(span.end - span.start);
  }
  return out;
}

double Tracer::total(const std::string& name) const {
  double sum = 0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

void Tracer::write(const std::filesystem::path& spans_path,
                   const std::filesystem::path& summary_path,
                   const std::vector<std::string>& preamble) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  std::filesystem::create_directories(spans_path.parent_path(), ec);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;

  std::ofstream spans(spans_path);
  for (const SpanRecord& span : spans_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%lld,\"request\":%llu}\n",
                  span.name, (span.start - origin) * 1e6,
                  (span.end - origin) * 1e6,
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.request));
    spans << line;
  }

  // Self time: a span's duration minus its children's. Children of one
  // span run on its thread, one after another, so their durations add.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  struct Row {
    std::uint64_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    const double duration = spans_[i].end - spans_[i].start;
    ++row.count;
    row.total += duration;
    row.self += std::max(0.0, duration - child_time[i]);
  }

  std::ofstream summary(summary_path);
  for (const std::string& line : preamble) summary << line << '\n';
  summary << "\nself time per span name (spans: " << spans_path.filename().string()
          << ")\n";
  char header[160];
  std::snprintf(header, sizeof(header), "%-28s %8s %12s %12s %12s\n", "span",
                "count", "total_ms", "self_ms", "mean_us");
  summary << header;
  for (const auto& [name, row] : rows) {
    char line[200];
    std::snprintf(line, sizeof(line), "%-28s %8llu %12.3f %12.3f %12.2f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total * 1e3, row.self * 1e3,
                  row.total / static_cast<double>(row.count) * 1e6);
    summary << line;
  }
  summary << "\ncounters\n";
  for (const auto& [name, value] : counters_) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %.6g\n", name.c_str(), value);
    summary << line;
  }
}

}  // namespace reprobench
