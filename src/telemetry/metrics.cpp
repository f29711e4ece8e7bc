#include "telemetry/metrics.hpp"

#include <limits>

#include "common/json.hpp"

namespace repro::telemetry {

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return index;
}

}  // namespace detail

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()) {
  shards_ = std::vector<Shard>(kMetricShards);
  for (auto& shard : shards_) {
    shard.counts = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
    shard.min.store(std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
    shard.max.store(-std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
  }
}

HistogramData Histogram::snapshot() const {
  HistogramData data;
  data.bounds = bounds_;
  data.counts.assign(bounds_.size() + 1, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < data.counts.size(); ++i) {
      data.counts[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
    data.sum += shard.sum.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
  }
  for (const std::uint64_t count : data.counts) data.count += count;
  data.min = data.count > 0 ? min : 0.0;
  data.max = data.count > 0 ? max : 0.0;
  return data;
}

void Histogram::reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& count : shard.counts) {
      count.store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
    shard.min.store(std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
    shard.max.store(-std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
  }
}

std::span<const double> latency_buckets_seconds() noexcept {
  static const double buckets[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                   1e-2, 1e-1, 1.0,  10.0};
  return buckets;
}

std::span<const double> size_buckets_bytes() noexcept {
  static const double buckets[] = {4096.0,     65536.0,     1048576.0,
                                   8388608.0,  67108864.0,  268435456.0,
                                   1073741824.0};
  return buckets;
}

std::span<const double> micros_buckets() noexcept {
  static const double buckets[] = {1.0,     10.0,     100.0,     1000.0,
                                   10000.0, 100000.0, 1000000.0, 10000000.0};
  return buckets;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    out += ": ";
    json_append_number(out, value);
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    out += ": ";
    json_append_number(out, value);
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, data] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    out += ": {\"count\": ";
    json_append_number(out, data.count);
    out += ", \"sum\": ";
    json_append_number(out, data.sum);
    out += ", \"min\": ";
    json_append_number(out, data.min);
    out += ", \"max\": ";
    json_append_number(out, data.max);
    out += ", \"mean\": ";
    json_append_number(out, data.mean());
    out += ", \"buckets\": [";
    for (std::size_t i = 0; i < data.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      if (i < data.bounds.size()) {
        json_append_number(out, data.bounds[i]);
      } else {
        out += "\"+inf\"";
      }
      out += ", \"count\": ";
      json_append_number(out, data.counts[i]);
      out += '}';
    }
    out += "]}";
  }
  out += first ? "}" : "\n  }";
  out += "\n}";
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string{name},
                      std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string{name}, std::unique_ptr<Gauge>(new Gauge()))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string{name},
                      std::unique_ptr<Histogram>(new Histogram(bounds)))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::describe(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  descriptions_.insert_or_assign(std::string{name}, std::string{help});
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace(name, histogram->snapshot());
  }
  snapshot.descriptions.insert(descriptions_.begin(), descriptions_.end());
  return snapshot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace repro::telemetry
