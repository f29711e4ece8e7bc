// Telemetry subsystem tests: metric semantics (counter totals, histogram
// bucket boundaries), the sharded-registry thread hammer, and structural
// validation of the Chrome trace-event JSON the tracer emits (well-formed,
// monotonic timestamps, matched B/E pairs per thread).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/resource_sampler.hpp"
#include "telemetry/trace.hpp"

namespace repro::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsTest, CounterAccumulatesAndResets) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.counter");
  EXPECT_EQ(counter.value(), 0u);
  counter.increment();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);

  // Same name returns the same object; reset zeroes in place.
  EXPECT_EQ(&registry.counter("test.counter"), &counter);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  counter.add(7);
  EXPECT_EQ(counter.value(), 7u);
}

TEST(MetricsTest, GaugeLastWriterWins) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("test.gauge");
  gauge.set(1.5);
  gauge.set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.25);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  MetricsRegistry registry;
  const double bounds[] = {1.0, 2.0, 4.0};
  Histogram& histogram = registry.histogram("test.hist", bounds);

  // Bucket i counts values <= bounds[i]; the final bucket is overflow.
  // 0.5, 1.0 -> le=1; 1.5, 2.0 -> le=2; 4.0 -> le=4; 5.0 -> +inf.
  for (const double v : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) histogram.record(v);

  const HistogramData data = histogram.snapshot();
  ASSERT_EQ(data.counts.size(), 4u);
  EXPECT_EQ(data.counts[0], 2u);
  EXPECT_EQ(data.counts[1], 2u);
  EXPECT_EQ(data.counts[2], 1u);
  EXPECT_EQ(data.counts[3], 1u);
  EXPECT_EQ(data.count, 6u);
  EXPECT_DOUBLE_EQ(data.sum, 14.0);
  EXPECT_DOUBLE_EQ(data.min, 0.5);
  EXPECT_DOUBLE_EQ(data.max, 5.0);
  EXPECT_NEAR(data.mean(), 14.0 / 6.0, 1e-12);
}

TEST(MetricsTest, HistogramEmptySnapshot) {
  MetricsRegistry registry;
  const double bounds[] = {1.0};
  const HistogramData data = registry.histogram("h", bounds).snapshot();
  EXPECT_EQ(data.count, 0u);
  EXPECT_DOUBLE_EQ(data.min, 0.0);
  EXPECT_DOUBLE_EQ(data.max, 0.0);
  EXPECT_DOUBLE_EQ(data.mean(), 0.0);
}

TEST(MetricsTest, HistogramKeepsFirstRegistrationBounds) {
  MetricsRegistry registry;
  const double first[] = {1.0, 2.0};
  const double second[] = {10.0};
  Histogram& histogram = registry.histogram("h", first);
  EXPECT_EQ(&registry.histogram("h", second), &histogram);
  EXPECT_EQ(histogram.bounds().size(), 2u);
}

// The tentpole claim: concurrent add() from many threads loses nothing.
TEST(MetricsTest, ShardedCountersSurviveThreadHammer) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hammer.counter");
  const double bounds[] = {64.0, 512.0};
  Histogram& histogram = registry.histogram("hammer.hist", bounds);

  constexpr int kThreads = 16;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add(2);
        histogram.record(static_cast<double>((i + t) % 1024));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter.value(), 2 * kThreads * kPerThread);
  const HistogramData data = histogram.snapshot();
  EXPECT_EQ(data.count, kThreads * kPerThread);
  EXPECT_EQ(data.counts[0] + data.counts[1] + data.counts[2], data.count);
}

TEST(MetricsTest, SnapshotToJsonShape) {
  MetricsRegistry registry;
  registry.counter("a.count").add(3);
  registry.gauge("b.gauge").set(1.5);
  const double bounds[] = {1.0};
  registry.histogram("c.hist", bounds).record(0.5);

  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"a.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+inf\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(JsonHelpersTest, EscapesAndNumbers) {
  std::string out;
  json_append_string(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
  out.clear();
  json_append_number(out, 3.0);
  EXPECT_EQ(out, "3");
  out.clear();
  json_append_number(out, 0.25);
  EXPECT_EQ(out, "0.25");
  out.clear();
  json_append_number(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "0");  // NaN is not representable in JSON
}

// ---------------------------------------------------------------------------
// Trace JSON structural validation
//
// A tiny recursive-descent JSON parser — just enough to check the trace
// document is well-formed and walk its traceEvents. Kept test-local on
// purpose: the production tree only ever EMITS JSON.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->string);
    }
    if (literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      return true;
    }
    if (literal("null")) return true;
    return parse_number(out);
  }

  bool parse_string(std::string* out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        const char esc = text_[pos_ + 1];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 5 >= text_.size()) return false;
            pos_ += 4;  // keep the raw escape; content is irrelevant here
            c = '?';
            break;
          }
          default: return false;
        }
        ++pos_;
      }
      out->push_back(c);
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(std::string{text_.substr(start, pos_ - start)});
    return true;
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || !parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
  }
};

TEST_F(TracerTest, DisabledSpansRecordNothing) {
  {
    TraceSpan span("noop");
    span.arg("k", std::uint64_t{1});
  }
  EXPECT_EQ(Tracer::global().span_count(), 0u);
}

TEST_F(TracerTest, ChromeTraceIsValidWithMatchedPairsAndMonotonicTs) {
  Tracer::global().set_enabled(true);
  {
    TraceSpan outer("outer");
    outer.arg("level", std::uint64_t{3}).arg("label", "a\"b");
    {
      TraceSpan inner("inner");
      inner.arg("ratio", 0.5);
    }
    TraceSpan sibling("sibling");
  }
  std::thread worker([] {
    Tracer::global().set_thread_name("worker");
    TraceSpan span("worker.task");
  });
  worker.join();
  Tracer::global().set_enabled(false);
  EXPECT_EQ(Tracer::global().span_count(), 4u);
  EXPECT_EQ(Tracer::global().dropped_spans(), 0u);

  const std::string json = Tracer::global().chrome_trace_json();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(&doc)) << json;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.object.at("displayTimeUnit").string, "ms");
  const JsonValue& events = doc.object.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);

  // Every event well-formed; B/E balanced per tid; ts monotonic per tid.
  std::map<double, std::vector<std::string>> open_stacks;
  std::map<double, double> last_ts;
  std::size_t begin_events = 0;
  std::size_t named_threads = 0;
  for (const JsonValue& event : events.array) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const std::string& phase = event.object.at("ph").string;
    if (phase == "M") {
      if (event.object.at("name").string == "thread_name" &&
          event.object.at("args").object.at("name").string == "worker") {
        ++named_threads;
      }
      continue;
    }
    if (phase == "C") {
      // Counter samples: named, timestamped, with an args.value payload.
      ASSERT_TRUE(event.object.count("name"));
      ASSERT_TRUE(event.object.count("ts"));
      ASSERT_TRUE(event.object.at("args").object.count("value"));
      continue;
    }
    ASSERT_TRUE(phase == "B" || phase == "E") << phase;
    ASSERT_TRUE(event.object.count("ts"));
    ASSERT_TRUE(event.object.count("pid"));
    const double tid = event.object.at("tid").number;
    const double ts = event.object.at("ts").number;
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]);
    }
    last_ts[tid] = ts;
    if (phase == "B") {
      ASSERT_TRUE(event.object.count("name"));
      open_stacks[tid].push_back(event.object.at("name").string);
      ++begin_events;
    } else {
      ASSERT_FALSE(open_stacks[tid].empty())
          << "E event with no matching B";
      open_stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open_stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed B events on tid " << tid;
  }
  EXPECT_EQ(begin_events, 4u);
  EXPECT_EQ(named_threads, 1u);

  // Args survived with escaping intact.
  EXPECT_NE(json.find("\"level\":3"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
}

TEST_F(TracerTest, NestedSpansEmitInnerBeforeOuterEnd) {
  Tracer::global().set_enabled(true);
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
  }
  Tracer::global().set_enabled(false);

  const std::string json = Tracer::global().chrome_trace_json();
  // B(outer) before B(inner); both E's present.
  const std::size_t outer_b = json.find("\"name\": \"outer\"");
  const std::size_t inner_b = json.find("\"name\": \"inner\"");
  ASSERT_NE(outer_b, std::string::npos);
  ASSERT_NE(inner_b, std::string::npos);
  EXPECT_LT(outer_b, inner_b);
}

TEST_F(TracerTest, ClearDropsBufferedSpans) {
  Tracer::global().set_enabled(true);
  { TraceSpan span("x"); }
  Tracer::global().set_enabled(false);
  EXPECT_EQ(Tracer::global().span_count(), 1u);
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().span_count(), 0u);
}

TEST_F(TracerTest, CounterSamplesEmitAsCPhaseEvents) {
  Tracer::global().set_enabled(true);
  Tracer::global().record_counter("res.rss_bytes", 4096.0);
  Tracer::global().record_counter("par.pool.queue_depth", 3.0);
  Tracer::global().record_counter("res.rss_bytes", 8192.0);
  { TraceSpan span("alongside"); }
  Tracer::global().set_enabled(false);
  EXPECT_EQ(Tracer::global().counter_count(), 3u);

  const std::string json = Tracer::global().chrome_trace_json();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(&doc)) << json;
  std::size_t counters = 0;
  double last_ts = 0;
  for (const JsonValue& event : doc.object.at("traceEvents").array) {
    if (event.object.at("ph").string != "C") continue;
    ++counters;
    EXPECT_FALSE(event.object.at("name").string.empty());
    const double ts = event.object.at("ts").number;
    EXPECT_GE(ts, last_ts) << "counter samples must emit in time order";
    last_ts = ts;
    ASSERT_TRUE(event.object.at("args").object.count("value"));
  }
  EXPECT_EQ(counters, 3u);
  EXPECT_NE(json.find("\"res.rss_bytes\""), std::string::npos);
  // Span events coexist with counter tracks in the same document.
  EXPECT_NE(json.find("\"alongside\""), std::string::npos);
}

TEST_F(TracerTest, DisabledCounterRecordingIsDropped) {
  Tracer::global().record_counter("res.rss_bytes", 1.0);
  EXPECT_EQ(Tracer::global().counter_count(), 0u);
  Tracer::global().set_enabled(true);
  Tracer::global().record_counter("res.rss_bytes", 1.0);
  Tracer::global().set_enabled(false);
  EXPECT_EQ(Tracer::global().counter_count(), 1u);
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().counter_count(), 0u);
}

TEST_F(TracerTest, ShortLivedTracedThreadsKeepOnlyTheSpansTheyRecord) {
  // A thread's ring holds what it recorded, not a full-capacity reservation:
  // 64 threads of one span each must not keep 64 full rings resident.
  const double rss_before = sample_process_resources().rss_bytes;
  ASSERT_GT(rss_before, 0);
  Tracer::global().set_enabled(true);
  for (int i = 0; i < 64; ++i) {
    std::thread([] {
      Tracer::global().set_thread_name("short-lived");
      TraceSpan span("short.task");
    }).join();
  }
  Tracer::global().set_enabled(false);
  EXPECT_EQ(Tracer::global().span_count(), 64u);
  EXPECT_EQ(Tracer::global().dropped_spans(), 0u);
  const double grown = sample_process_resources().rss_bytes - rss_before;
  EXPECT_LT(grown, 64.0 * 1024 * 1024) << "VmRSS grew " << grown << " bytes";
}

TEST_F(TracerTest, NamedThreadWithoutSpansIsNotInTheTrace) {
  Tracer::global().set_enabled(true);
  std::thread([] { Tracer::global().set_thread_name("idle-namer"); }).join();
  std::thread([] {
    Tracer::global().set_thread_name("busy-namer");
    TraceSpan span("busy.task");
  }).join();
  Tracer::global().set_enabled(false);
  const std::string json = Tracer::global().chrome_trace_json();
  EXPECT_EQ(json.find("idle-namer"), std::string::npos) << json;
  EXPECT_NE(json.find("busy-namer"), std::string::npos) << json;
}

TEST_F(TracerTest, OversizedArgsTruncateOrDropButStayValidJson) {
  Tracer::global().set_enabled(true);
  {
    TraceSpan span("argful");
    // String values truncate to a bounded scratch buffer; an arg that no
    // longer fits the span's args buffer is dropped whole (never split
    // mid-key); later smaller args may still fit.
    const std::string long_a(80, 'a');
    const std::string long_b(80, 'b');
    const std::string big(300, 'x');
    span.arg("big_string", std::string_view{big});
    span.arg("second", long_a);  // does not fit anymore: dropped whole
    span.arg("third", long_b);   // ditto
    span.arg("tiny", std::uint64_t{1});  // small enough to still fit
  }
  Tracer::global().set_enabled(false);
  const std::string json = Tracer::global().chrome_trace_json();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(&doc)) << json;
  EXPECT_NE(json.find("\"big_string\":\"xxxx"), std::string::npos);
  EXPECT_EQ(json.find(std::string(100, 'x')), std::string::npos)
      << "300-char value was not truncated";
  EXPECT_EQ(json.find("second"), std::string::npos)
      << "arg that cannot fit must be dropped whole";
  EXPECT_EQ(json.find("third"), std::string::npos);
  EXPECT_NE(json.find("\"tiny\":1"), std::string::npos)
      << "smaller later arg should still fit";
}

// ---------------------------------------------------------------------------
// Run report

TEST(RunReportTest, SerializesAllSections) {
  RunReport report("compare");
  report.set_verdict("within-bound");
  report.add_info("file_a", "a.ckpt");
  report.add_value("values_exceeding", 0);
  TimerSet timers;
  timers.add("setup", 0.25);
  timers.add("read", 1.5);
  report.add_timers(timers);
  MetricsRegistry registry;
  registry.counter("io.read.bytes").add(1024);
  report.set_metrics(registry.snapshot());

  const std::string json = report.to_json();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(&doc)) << json;
  EXPECT_EQ(doc.object.at("tool").string, "compare");
  EXPECT_EQ(doc.object.at("verdict").string, "within-bound");
  EXPECT_EQ(doc.object.at("info").object.at("file_a").string, "a.ckpt");
  EXPECT_DOUBLE_EQ(doc.object.at("timers").object.at("setup").number, 0.25);
  EXPECT_DOUBLE_EQ(
      doc.object.at("metrics").object.at("counters").object.at("io.read.bytes")
          .number,
      1024.0);
  // Timer order is insertion order, not alphabetical.
  EXPECT_LT(json.find("\"setup\""), json.find("\"read\""));
}

TEST(RunReportTest, EmptyReportIsValidJson) {
  RunReport report("tool");
  JsonValue doc;
  ASSERT_TRUE(JsonParser(report.to_json()).parse(&doc));
  EXPECT_EQ(doc.object.at("tool").string, "tool");
  EXPECT_EQ(doc.object.count("verdict"), 0u);
}

}  // namespace
}  // namespace repro::telemetry
