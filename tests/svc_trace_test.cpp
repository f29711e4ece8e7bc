// End-to-end request tracing across the RSVC wire: trace-context trailer
// propagation into linked server spans, the structured access log
// (`repro.svc.access` v1), per-request phase histograms, and interop with
// trailer-less peers. Uses an in-process svc::Server on a unix-domain
// socket like svc_loopback_test, plus the process-global Tracer so the
// client's request spans and the server's handler spans land in one
// document the test can join by trace_id — the same join `repro-cli
// trace-merge` performs across two --trace-out files.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hpp"
#include "merkle/flat.hpp"
#include "compare/comparator.hpp"
#include "sim/workload.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "telemetry/json_parse.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace repro::svc {
namespace {

using telemetry::JsonValue;

merkle::TreeParams tree_params(double eps) {
  merkle::TreeParams params;
  params.chunk_bytes = 1024;
  params.hash.error_bound = eps;
  return params;
}

void write_checkpoint(const std::filesystem::path& path,
                      const std::vector<float>& x,
                      const std::vector<float>& phi,
                      const merkle::TreeParams& params) {
  ckpt::CheckpointWriter writer("test", "run", 1, 0);
  ASSERT_TRUE(writer.add_field_f32("X", x).is_ok());
  ASSERT_TRUE(writer.add_field_f32("PHI", phi).is_ok());
  ASSERT_TRUE(writer.write(path).is_ok());
  const auto tree = merkle::TreeBuilder(params, par::Exec::serial())
                        .build(writer.data_section());
  ASSERT_TRUE(tree.is_ok());
  ASSERT_TRUE(merkle::save_flat(tree.value(), path.string() + ".rmrk").is_ok());
}

std::string compare_request(const std::filesystem::path& a,
                            const std::filesystem::path& b) {
  return "{\"file_a\":\"" + a.string() + "\",\"file_b\":\"" + b.string() +
         "\"}";
}

/// Access-log lines, each parsed as one JSON object.
std::vector<JsonValue> read_access_log(const std::filesystem::path& path) {
  std::vector<JsonValue> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = telemetry::json_parse(line);
    EXPECT_TRUE(parsed.has_value()) << "unparseable access record: " << line;
    if (parsed.has_value()) records.push_back(std::move(parsed).value());
  }
  return records;
}

/// Sum of the six phase fields of one access record.
double phase_sum_us(const JsonValue& record) {
  return record.number_or("queue_us", 0) +
         record.number_or("cache_lookup_us", 0) +
         record.number_or("sidecar_load_us", 0) +
         record.number_or("compute_us", 0) +
         record.number_or("serialize_us", 0) +
         record.number_or("tx_flush_us", 0);
}

/// Enables the process-global tracer for one test body and restores the
/// disabled default (clearing the buffers) on scope exit, so span state
/// never leaks across tests.
struct ScopedTracing {
  ScopedTracing() {
    telemetry::Tracer::global().clear();
    telemetry::Tracer::global().set_enabled(true);
  }
  ~ScopedTracing() {
    telemetry::Tracer::global().set_enabled(false);
    telemetry::Tracer::global().clear();
  }
};

/// Completed B/E spans with trace identity, reconstructed from the
/// process tracer's Chrome JSON (per-thread B/E events pair up as a stack
/// keyed by tid).
struct SpanInfo {
  std::string name;
  std::string op;
  std::string trace_id;
  std::string span_id;
  std::string parent_span_id;
};

std::vector<SpanInfo> collect_spans(const std::string& chrome_json) {
  std::vector<SpanInfo> spans;
  auto doc = telemetry::json_parse(chrome_json);
  EXPECT_TRUE(doc.has_value());
  if (!doc.has_value()) return spans;
  const JsonValue* events = doc->find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return spans;
  std::map<std::uint64_t, std::vector<SpanInfo>> stacks;
  for (const auto& event : events->array) {
    if (!event.is_object()) continue;
    const std::string ph = event.string_or("ph", "");
    const std::uint64_t tid = event.u64_or("tid", 0);
    if (ph == "B") {
      SpanInfo span;
      span.name = event.string_or("name", "");
      if (const JsonValue* args = event.find("args")) {
        span.op = args->string_or("op", "");
        span.trace_id = args->string_or("trace_id", "");
        span.span_id = args->string_or("span_id", "");
        span.parent_span_id = args->string_or("parent_span_id", "");
      }
      stacks[tid].push_back(std::move(span));
    } else if (ph == "E" && !stacks[tid].empty()) {
      spans.push_back(std::move(stacks[tid].back()));
      stacks[tid].pop_back();
    }
  }
  return spans;
}

class TraceLoopbackTest : public ::testing::Test {
 protected:
  TraceLoopbackTest() : dir_{"svc-trace"} {}

  ~TraceLoopbackTest() override { stop_server(); }

  ServerOptions base_options() {
    ServerOptions opts;
    opts.socket_path = dir_.file("reprod.sock");
    opts.workers = 2;
    opts.compare.error_bound = 1e-5;
    opts.compare.tree = tree_params(1e-5);
    opts.compare.backend = io::BackendKind::kPread;
    opts.access_log_path = dir_.file("access.jsonl");
    return opts;
  }

  void start_server(ServerOptions opts) {
    server_ = std::make_unique<Server>(std::move(opts));
    ASSERT_TRUE(server_->start().is_ok());
    serve_thread_ = std::thread([this] { serve_status_ = server_->serve(); });
  }

  void stop_server() {
    if (server_ == nullptr) return;
    server_->request_stop();
    if (serve_thread_.joinable()) serve_thread_.join();
    EXPECT_TRUE(serve_status_.is_ok()) << serve_status_.to_string();
    server_.reset();
  }

  repro::Result<Client> connect_client() {
    ClientOptions opts;
    opts.socket_path = dir_.file("reprod.sock");
    opts.timeout = std::chrono::milliseconds{20000};
    return Client::connect(opts);
  }

  repro::TempDir dir_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  repro::Status serve_status_ = repro::Status::ok();
};

TEST_F(TraceLoopbackTest, ClientAndServerSpansShareOneTraceId) {
  const auto params = tree_params(1e-5);
  const auto x = sim::generate_field(6000, 1);
  const auto phi = sim::generate_field(6000, 2);
  write_checkpoint(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint(dir_.file("b.ckpt"), x, phi, params);

  start_server(base_options());
  std::string chrome_json;
  {
    ScopedTracing tracing;
    auto client = connect_client();
    ASSERT_TRUE(client.is_ok());
    auto ping = client.value().call(Opcode::kPing, "");
    ASSERT_TRUE(ping.is_ok());
    EXPECT_TRUE(ping.value().ok());
    auto compare = client.value().call(
        Opcode::kCompare,
        compare_request(dir_.file("a.ckpt"), dir_.file("b.ckpt")));
    ASSERT_TRUE(compare.is_ok());
    EXPECT_TRUE(compare.value().ok()) << compare.value().payload;
    stop_server();  // all spans closed before the buffers are read
    chrome_json = telemetry::Tracer::global().chrome_trace_json();
  }

  const std::vector<SpanInfo> spans = collect_spans(chrome_json);
  // Every client call span must have a server handler span linked under
  // it: same 128-bit trace id, the client span's id as its parent. This is
  // the causal join trace-merge relies on, verified per verb.
  int joined = 0;
  for (const auto& client_span : spans) {
    if (client_span.name != "svc.client.call") continue;
    ASSERT_EQ(client_span.trace_id.size(), 32U);
    ASSERT_EQ(client_span.span_id.size(), 16U);
    bool found = false;
    for (const auto& server_span : spans) {
      if (server_span.name != "svc.request") continue;
      if (server_span.trace_id != client_span.trace_id) continue;
      EXPECT_EQ(server_span.parent_span_id, client_span.span_id);
      EXPECT_EQ(server_span.op, client_span.op);
      found = true;
    }
    EXPECT_TRUE(found) << "no linked server span for client "
                       << client_span.op << " trace "
                       << client_span.trace_id;
    joined += found ? 1 : 0;
  }
  EXPECT_GE(joined, 2);  // PING and COMPARE both joined

  // The access log carries the same identities: each record's trace_id is
  // some client span's trace id.
  const auto records = read_access_log(dir_.file("access.jsonl"));
  ASSERT_GE(records.size(), 2U);
  for (const auto& record : records) {
    EXPECT_EQ(record.string_or("schema", ""), "repro.svc.access");
    EXPECT_EQ(record.u64_or("version", 0), 1U);
    const std::string trace_id = record.string_or("trace_id", "");
    ASSERT_EQ(trace_id.size(), 32U) << "record without trace identity";
    bool known = false;
    for (const auto& span : spans) {
      known = known || (span.name == "svc.client.call" &&
                        span.trace_id == trace_id);
    }
    EXPECT_TRUE(known) << "access record names unknown trace " << trace_id;
    EXPECT_EQ(record.string_or("parent_span_id", "").size(), 16U);
  }
}

TEST_F(TraceLoopbackTest, TrailerlessClientInteropsAndLogsNoTraceId) {
  // Tracing disabled: the client has no identity to offer, so its frames
  // are bytewise those of a trailer-unaware peer. The trace-aware server
  // must answer normally and emit access records without trace fields.
  ASSERT_FALSE(telemetry::Tracer::enabled());
  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  auto ping = client.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok());
  EXPECT_TRUE(ping.value().ok());
  auto stats = client.value().call(Opcode::kStats, "");
  ASSERT_TRUE(stats.is_ok());
  EXPECT_TRUE(stats.value().ok());
  stop_server();

  const auto records = read_access_log(dir_.file("access.jsonl"));
  ASSERT_GE(records.size(), 2U);
  for (const auto& record : records) {
    EXPECT_EQ(record.find("trace_id"), nullptr)
        << "trailer-less request must not invent a trace id";
    EXPECT_EQ(record.find("parent_span_id"), nullptr);
  }
}

TEST_F(TraceLoopbackTest, MalformedTrailerGetsOneBadRequestAndClose) {
  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());

  // A frame whose trailer flag is set but whose trace id is all zero: the
  // encoder refuses to emit this, so hand-craft it — emit a valid trailer,
  // then zero the 16 trace-id bytes (PING payload is empty, the trailer
  // starts right after the header).
  std::vector<std::uint8_t> buf;
  const WireTraceContext trace{1, 0, 2};
  append_request(buf, Opcode::kPing, 421, "", true, &trace);
  for (std::size_t i = kFrameHeaderBytes; i < kFrameHeaderBytes + 16; ++i) {
    buf[i] = 0;
  }
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::send(client.value().fd(), buf.data() + off,
                             buf.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }

  auto reply = client.value().recv_response();
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().status, WireStatus::kBadRequest);
  EXPECT_NE(reply.value().payload.find("malformed trace context"),
            std::string::npos)
      << reply.value().payload;
  EXPECT_EQ(reply.value().request_id, 421U);  // addressable error reply
  // The stream is poisoned: exactly one error reply, then close.
  EXPECT_FALSE(client.value().recv_response().is_ok());

  // The daemon survives and serves the next connection.
  auto healthy = connect_client();
  ASSERT_TRUE(healthy.is_ok());
  auto ping = healthy.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok());
  EXPECT_TRUE(ping.value().ok());
  stop_server();
}

TEST_F(TraceLoopbackTest, PhaseBreakdownAccountsForWallTime) {
  const auto params = tree_params(1e-5);
  // A sizable divergent pair, so COMPARE requests do real staged work
  // (sidecar load, tree descent, value re-verification, serialization).
  const auto x = sim::generate_field(120000, 3);
  auto x_div = x;
  sim::apply_divergence(x_div, {.region_fraction = 0.2,
                                .region_values = 2048,
                                .magnitude = 1e-3,
                                .seed = 7});
  const auto phi = sim::generate_field(120000, 4);
  write_checkpoint(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint(dir_.file("b.ckpt"), x_div, phi, params);

  const auto before = telemetry::MetricsRegistry::global().snapshot();

  ServerOptions opts = base_options();
  opts.slow_request_ms = 0;  // every record flagged slow
  start_server(std::move(opts));
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  constexpr int kCompares = 4;
  for (int i = 0; i < kCompares; ++i) {
    auto response = client.value().call(
        Opcode::kCompare,
        compare_request(dir_.file("a.ckpt"), dir_.file("b.ckpt")));
    ASSERT_TRUE(response.is_ok());
    ASSERT_TRUE(response.value().ok()) << response.value().payload;
  }
  stop_server();

  const auto records = read_access_log(dir_.file("access.jsonl"));
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kCompares));
  double total_wall_us = 0;
  bool saw_cache_hit = false;
  for (const auto& record : records) {
    EXPECT_EQ(record.string_or("verb", ""), "COMPARE");
    EXPECT_EQ(record.string_or("status", ""), "OK");
    ASSERT_NE(record.find("slow"), nullptr);
    ASSERT_NE(record.find("cache_hit"), nullptr);
    EXPECT_TRUE(record.find("slow")->boolean);
    EXPECT_GT(record.u64_or("bytes_in", 0), kFrameHeaderBytes);
    EXPECT_GT(record.u64_or("bytes_out", 0), kFrameHeaderBytes);
    const double wall_us = record.number_or("wall_us", 0);
    ASSERT_GT(wall_us, 0);
    // The tentpole accounting contract: the six phases partition each
    // request's wall time — only the completion-queue hop between the
    // worker and the loop thread goes unattributed.
    EXPECT_GE(phase_sum_us(record), 0.95 * wall_us)
        << "phases " << phase_sum_us(record) << "us of wall " << wall_us
        << "us";
    total_wall_us += wall_us;
    saw_cache_hit = saw_cache_hit || record.find("cache_hit")->boolean;
  }
  EXPECT_TRUE(saw_cache_hit);  // warm repeats pin both trees from cache

  // The same timings feed the svc.request.phase.* histograms: counts grow
  // by one per request and the summed microseconds cover the same >= 95%
  // of total wall time the per-record fields do.
  const auto after = telemetry::MetricsRegistry::global().snapshot();
  const char* kPhases[] = {
      "svc.request.phase.queue_us",        "svc.request.phase.cache_lookup_us",
      "svc.request.phase.sidecar_load_us", "svc.request.phase.compute_us",
      "svc.request.phase.serialize_us",    "svc.request.phase.tx_flush_us",
  };
  double histogram_sum_us = 0;
  for (const char* name : kPhases) {
    const auto it = after.histograms.find(name);
    ASSERT_NE(it, after.histograms.end()) << name;
    const auto was = before.histograms.find(name);
    const std::uint64_t count_before =
        was == before.histograms.end() ? 0 : was->second.count;
    const double sum_before =
        was == before.histograms.end() ? 0 : was->second.sum;
    EXPECT_GE(it->second.count - count_before,
              static_cast<std::uint64_t>(kCompares))
        << name;
    histogram_sum_us += it->second.sum - sum_before;
  }
  EXPECT_GE(histogram_sum_us, 0.95 * total_wall_us);
}

TEST_F(TraceLoopbackTest, SlowRequestRecordCarriesClientTraceId) {
  ServerOptions opts = base_options();
  opts.slow_request_ms = 0;  // the threshold, not the phases, makes "slow"
  start_server(std::move(opts));
  {
    ScopedTracing tracing;
    auto client = connect_client();
    ASSERT_TRUE(client.is_ok());
    auto ping = client.value().call(Opcode::kPing, "");
    ASSERT_TRUE(ping.is_ok());
    EXPECT_TRUE(ping.value().ok());
    stop_server();
  }
  const auto records = read_access_log(dir_.file("access.jsonl"));
  ASSERT_GE(records.size(), 1U);
  const JsonValue& record = records.front();
  ASSERT_NE(record.find("slow"), nullptr);
  EXPECT_TRUE(record.find("slow")->boolean);
  // Tail-latency forensics needs the causal key: the flagged record names
  // the client's trace so the merged timeline can be pulled up directly.
  EXPECT_EQ(record.string_or("trace_id", "").size(), 32U);
  EXPECT_EQ(record.string_or("parent_span_id", "").size(), 16U);
}

}  // namespace
}  // namespace repro::svc
