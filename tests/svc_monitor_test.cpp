// Live divergence monitoring plane, end to end over real sockets: WATCH
// sessions against an in-process daemon, first-divergence alerts landing in
// the JSONL alert file at exactly the injected iteration, detection-latency
// instrumentation, and the poisoned-stream contract for malformed,
// out-of-order, and sessionless WATCH_PUSH frames.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hpp"
#include "common/rng.hpp"
#include "merkle/flat.hpp"
#include "merkle/nodestore.hpp"
#include "sim/workload.hpp"
#include "svc/client.hpp"
#include "svc/monitor.hpp"
#include "svc/server.hpp"
#include "telemetry/json_parse.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource_sampler.hpp"

namespace repro::svc {
namespace {

using telemetry::JsonValue;

merkle::TreeParams tree_params(double eps) {
  merkle::TreeParams params;
  params.chunk_bytes = 1024;
  params.hash.error_bound = eps;
  return params;
}

/// Writes a reference checkpoint + sidecar into the catalog layout the
/// daemon resolves WATCH references against.
void write_history_checkpoint(const ckpt::HistoryCatalog& catalog,
                              const char* run, std::uint64_t iteration,
                              const std::vector<float>& x,
                              const std::vector<float>& phi,
                              const merkle::TreeParams& params) {
  const auto ref = catalog.make_ref(run, iteration, 0);
  ASSERT_TRUE(ref.is_ok());
  ckpt::CheckpointWriter writer("test", run, iteration, 0);
  ASSERT_TRUE(writer.add_field_f32("X", x).is_ok());
  ASSERT_TRUE(writer.add_field_f32("PHI", phi).is_ok());
  ASSERT_TRUE(writer.write(ref.value().checkpoint_path).is_ok());
  const auto tree = merkle::TreeBuilder(params, par::Exec::serial())
                        .build(writer.data_section());
  ASSERT_TRUE(tree.is_ok());
  ASSERT_TRUE(
      merkle::save_flat(tree.value(), ref.value().metadata_path).is_ok());
}

/// The watched side never touches disk: build the iteration's tree straight
/// from the field data, exactly as a producer embedding the library would.
merkle::MerkleTree build_live_tree(const std::vector<float>& x,
                                   const std::vector<float>& phi,
                                   const merkle::TreeParams& params,
                                   std::uint64_t* data_bytes) {
  ckpt::CheckpointWriter writer("test", "live", 1, 0);
  EXPECT_TRUE(writer.add_field_f32("X", x).is_ok());
  EXPECT_TRUE(writer.add_field_f32("PHI", phi).is_ok());
  *data_bytes = writer.data_section().size();
  auto tree = merkle::TreeBuilder(params, par::Exec::serial())
                  .build(writer.data_section());
  EXPECT_TRUE(tree.is_ok()) << tree.status().to_string();
  return std::move(tree).value();
}

WatchPushFrame full_frame(const merkle::MerkleTree& tree,
                          std::uint64_t iteration) {
  WatchPushFrame frame;
  frame.iteration = iteration;
  const merkle::TreeView view(tree);
  const std::uint64_t num_nodes = view.layout().num_nodes();
  frame.entries.reserve(num_nodes);
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    frame.entries.push_back({i, view.node(i)});
  }
  return frame;
}

WatchPushFrame delta_frame(const merkle::MerkleTree& base,
                           const merkle::MerkleTree& next,
                           std::uint64_t base_iteration,
                           std::uint64_t iteration) {
  auto delta =
      merkle::compute_tree_delta(base, next, base_iteration, iteration);
  EXPECT_TRUE(delta.is_ok()) << delta.status().to_string();
  WatchPushFrame frame;
  frame.iteration = iteration;
  frame.delta = true;
  frame.entries = std::move(delta.value().nodes);
  if (frame.entries.empty()) {
    frame.entries.push_back({0, merkle::TreeView(next).node(0)});
  }
  return frame;
}

JsonValue parse_payload(const std::string& payload) {
  auto parsed = telemetry::json_parse(payload);
  EXPECT_TRUE(parsed.has_value()) << "unparseable payload: " << payload;
  return parsed.value_or(JsonValue{});
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : dir_{"svc-monitor"} {}

  ~MonitorTest() override { stop_server(); }

  ServerOptions base_options() {
    ServerOptions opts;
    opts.socket_path = dir_.file("reprod.sock");
    opts.workers = 2;
    opts.compare.error_bound = 1e-5;
    opts.compare.tree = tree_params(1e-5);
    opts.compare.backend = io::BackendKind::kPread;
    opts.alert_path = dir_.file("alerts.jsonl");
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

  std::string open_request(std::uint64_t data_bytes) {
    return "{\"root\":\"" + dir_.path().string() +
           "\",\"run\":\"live\",\"reference\":\"ref\",\"rank\":0,"
           "\"data_bytes\":" + std::to_string(data_bytes) +
           ",\"eps\":1e-5,\"chunk_bytes\":1024}";
  }

  repro::TempDir dir_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  repro::Status serve_status_ = repro::Status::ok();
};

TEST_F(MonitorTest, AlertFiresAtExactInjectionIteration) {
  constexpr std::uint64_t kDivergeAt = 30;
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto phi = sim::generate_field(6000, 99);

  // Reference run: clean fields at every iteration. Live run: identical
  // until kDivergeAt, diverged from there on.
  std::vector<merkle::MerkleTree> live;
  std::vector<std::uint64_t> iterations{10, 20, 30, 40};
  std::uint64_t data_bytes = 0;
  for (const std::uint64_t iteration : iterations) {
    const auto x = sim::generate_field(6000, iteration);
    write_history_checkpoint(catalog, "ref", iteration, x, phi, params);
    auto x_live = x;
    if (iteration >= kDivergeAt) {
      sim::apply_divergence(x_live, {.region_fraction = 0.05,
                                     .region_values = 100,
                                     .magnitude = 1e-3,
                                     .seed = iteration});
    }
    live.push_back(build_live_tree(x_live, phi, params, &data_bytes));
  }

  const auto before =
      telemetry::MetricsRegistry::global().snapshot();
  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());

  auto opened = client.value().watch_open(open_request(data_bytes));
  ASSERT_TRUE(opened.is_ok());
  ASSERT_TRUE(opened.value().ok()) << opened.value().payload;
  const JsonValue open_json = parse_payload(opened.value().payload);
  EXPECT_EQ(open_json.string_or("reference", ""), "ref");
  EXPECT_EQ(open_json.u64_or("chunk_bytes", 0), 1024U);

  for (std::size_t i = 0; i < iterations.size(); ++i) {
    const WatchPushFrame frame =
        i == 0 ? full_frame(live[0], iterations[0])
               : delta_frame(live[i - 1], live[i], iterations[i - 1],
                             iterations[i]);
    auto reply = client.value().watch_push(frame);
    ASSERT_TRUE(reply.is_ok());
    ASSERT_TRUE(reply.value().ok()) << reply.value().payload;
    const JsonValue verdict = parse_payload(reply.value().payload);
    EXPECT_EQ(verdict.u64_or("iteration", 0), iterations[i]);
    if (iterations[i] < kDivergeAt) {
      EXPECT_EQ(verdict.string_or("verdict", ""), "clean");
    } else {
      EXPECT_EQ(verdict.string_or("verdict", ""), "divergent");
      EXPECT_GT(verdict.u64_or("chunks_flagged", 0), 0U);
    }
    // first_divergence marks exactly the injection iteration — not the
    // later pushes that are still divergent.
    const JsonValue* first = verdict.find("first_divergence");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->boolean, iterations[i] == kDivergeAt);
  }

  auto summary = client.value().watch_close();
  ASSERT_TRUE(summary.is_ok());
  ASSERT_TRUE(summary.value().ok()) << summary.value().payload;
  const JsonValue close_json = parse_payload(summary.value().payload);
  EXPECT_EQ(close_json.u64_or("iterations_pushed", 0), 4U);
  EXPECT_EQ(close_json.u64_or("compared", 0), 4U);
  EXPECT_EQ(close_json.u64_or("alert_iteration", 0), kDivergeAt);
  ASSERT_NE(close_json.find("alerted"), nullptr);
  EXPECT_TRUE(close_json.find("alerted")->boolean);

  // Exactly one alert record, self-contained, at the injected iteration.
  const auto lines = read_lines(dir_.file("alerts.jsonl"));
  ASSERT_EQ(lines.size(), 1U);
  const JsonValue alert = parse_payload(lines[0]);
  EXPECT_EQ(alert.string_or("schema", ""), "repro.divergence.alert");
  EXPECT_EQ(alert.u64_or("version", 0), 1U);
  EXPECT_EQ(alert.string_or("run", ""), "live");
  EXPECT_EQ(alert.string_or("reference", ""), "ref");
  EXPECT_EQ(alert.u64_or("iteration", 0), kDivergeAt);
  EXPECT_GT(alert.u64_or("chunks_flagged", 0), 0U);
  // Every preceding iteration had a reference: zero-gap detection.
  EXPECT_EQ(alert.u64_or("detection_latency_iters", 99), 0U);
  EXPECT_GT(alert.number_or("detection_latency_us", 0), 0.0);
  const JsonValue* provenance = alert.find("provenance");
  ASSERT_NE(provenance, nullptr);
  EXPECT_FALSE(provenance->string_or("compiler", "").empty());
  EXPECT_FALSE(provenance->string_or("version", "").empty());

  // Detection-latency SLO instrumentation recorded the event.
  const auto after = telemetry::MetricsRegistry::global().snapshot();
  const auto count_of = [](const telemetry::MetricsSnapshot& snapshot,
                           const char* name) -> std::uint64_t {
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? 0 : it->second.count;
  };
  EXPECT_EQ(count_of(after, "svc.watch.detection_latency_us"),
            count_of(before, "svc.watch.detection_latency_us") + 1);
  EXPECT_EQ(count_of(after, "svc.watch.detection_latency_iters"),
            count_of(before, "svc.watch.detection_latency_iters") + 1);
  EXPECT_GE(count_of(after, "svc.watch.push_latency_us"),
            count_of(before, "svc.watch.push_latency_us") + 4);

  stop_server();
}

TEST_F(MonitorTest, CleanRunEmitsNoAlert) {
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto phi = sim::generate_field(5000, 4);
  std::vector<merkle::MerkleTree> live;
  std::uint64_t data_bytes = 0;
  for (const std::uint64_t iteration : {10U, 20U}) {
    const auto x = sim::generate_field(5000, iteration);
    write_history_checkpoint(catalog, "ref", iteration, x, phi, params);
    live.push_back(build_live_tree(x, phi, params, &data_bytes));
  }

  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client.value().watch_open(open_request(data_bytes))
                  .value_or(Response{})
                  .ok());
  auto first = client.value().watch_push(full_frame(live[0], 10));
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(parse_payload(first.value().payload).string_or("verdict", ""),
            "clean");
  auto second =
      client.value().watch_push(delta_frame(live[0], live[1], 10, 20));
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(parse_payload(second.value().payload).string_or("verdict", ""),
            "clean");

  auto summary = client.value().watch_close();
  ASSERT_TRUE(summary.is_ok());
  const JsonValue close_json = parse_payload(summary.value().payload);
  ASSERT_NE(close_json.find("alerted"), nullptr);
  EXPECT_FALSE(close_json.find("alerted")->boolean);
  EXPECT_FALSE(std::filesystem::exists(dir_.file("alerts.jsonl")));

  stop_server();
}

TEST_F(MonitorTest, F64SessionAnswersLikeAnF32Session) {
  // F64 reference and live runs whose trees read values as f64: a session
  // that names the kind is clean until the live run moves one value 100x
  // the bound, then divergent, exactly as an f32 session is.
  constexpr std::uint64_t kDivergeAt = 20;
  merkle::TreeParams params = tree_params(1e-5);
  params.value_kind = merkle::ValueKind::kF64;
  ckpt::HistoryCatalog catalog{dir_.path()};
  std::vector<merkle::MerkleTree> live;
  std::uint64_t data_bytes = 0;
  for (const std::uint64_t iteration : {10U, 20U}) {
    const auto x = sim::generate_field(3000, iteration);
    std::vector<double> values(x.begin(), x.end());
    const auto ref = catalog.make_ref("ref", iteration, 0);
    ASSERT_TRUE(ref.is_ok());
    ckpt::CheckpointWriter reference("test", "ref", iteration, 0);
    ASSERT_TRUE(reference.add_field_f64("X", values).is_ok());
    ASSERT_TRUE(reference.write(ref.value().checkpoint_path).is_ok());
    const auto ref_tree = merkle::TreeBuilder(params, par::Exec::serial())
                              .build(reference.data_section());
    ASSERT_TRUE(ref_tree.is_ok());
    ASSERT_TRUE(merkle::save_flat(ref_tree.value(), ref.value().metadata_path)
                    .is_ok());

    if (iteration >= kDivergeAt) values[100] += 1e-3;
    ckpt::CheckpointWriter writer("test", "live", iteration, 0);
    ASSERT_TRUE(writer.add_field_f64("X", values).is_ok());
    data_bytes = writer.data_section().size();
    auto tree = merkle::TreeBuilder(params, par::Exec::serial())
                    .build(writer.data_section());
    ASSERT_TRUE(tree.is_ok());
    live.push_back(std::move(tree).value());
  }

  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  std::string request = open_request(data_bytes);
  request.insert(request.size() - 1, ",\"value_kind\":\"f64\"");
  auto opened = client.value().watch_open(request);
  ASSERT_TRUE(opened.is_ok());
  ASSERT_TRUE(opened.value().ok()) << opened.value().payload;
  EXPECT_EQ(parse_payload(opened.value().payload).string_or("value_kind", ""),
            "f64");

  auto first = client.value().watch_push(full_frame(live[0], 10));
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(first.value().ok()) << first.value().payload;
  EXPECT_EQ(parse_payload(first.value().payload).string_or("verdict", ""),
            "clean");
  auto second =
      client.value().watch_push(delta_frame(live[0], live[1], 10, 20));
  ASSERT_TRUE(second.is_ok());
  ASSERT_TRUE(second.value().ok()) << second.value().payload;
  EXPECT_EQ(parse_payload(second.value().payload).string_or("verdict", ""),
            "divergent");

  auto summary = client.value().watch_close();
  ASSERT_TRUE(summary.is_ok());
  EXPECT_EQ(parse_payload(summary.value().payload).u64_or("alert_iteration", 0),
            kDivergeAt);

  stop_server();
}

TEST_F(MonitorTest, UnknownValueKindIsABadRequest) {
  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  std::string request = open_request(4096);
  request.insert(request.size() - 1, ",\"value_kind\":\"f16\"");
  auto opened = client.value().watch_open(request);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value().status, WireStatus::kBadRequest);
  EXPECT_NE(opened.value().payload.find("value_kind"), std::string::npos)
      << opened.value().payload;
  stop_server();
}

TEST_F(MonitorTest, ReferenceGapsCountTowardDetectionLatency) {
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto phi = sim::generate_field(5000, 7);
  std::uint64_t data_bytes = 0;

  // References exist at 10 and 30 only; the live run diverges at 20. The
  // daemon cannot verify 20 (no reference), so detection lands at 30 with
  // a one-iteration gap on the latency record.
  std::vector<merkle::MerkleTree> live;
  for (const std::uint64_t iteration : {10U, 20U, 30U}) {
    auto x = sim::generate_field(5000, 3);
    if (iteration != 20) {
      write_history_checkpoint(catalog, "ref", iteration, x, phi, params);
    }
    if (iteration >= 20) {
      sim::apply_divergence(x, {.region_fraction = 0.05,
                                .region_values = 64,
                                .magnitude = 1e-3,
                                .seed = 11});
    }
    live.push_back(build_live_tree(x, phi, params, &data_bytes));
  }

  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client.value().watch_open(open_request(data_bytes))
                  .value_or(Response{})
                  .ok());
  auto r1 = client.value().watch_push(full_frame(live[0], 10));
  ASSERT_TRUE(r1.is_ok());
  EXPECT_EQ(parse_payload(r1.value().payload).string_or("verdict", ""),
            "clean");
  auto r2 = client.value().watch_push(delta_frame(live[0], live[1], 10, 20));
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(parse_payload(r2.value().payload).string_or("verdict", ""),
            "no-reference");
  auto r3 = client.value().watch_push(delta_frame(live[1], live[2], 20, 30));
  ASSERT_TRUE(r3.is_ok());
  EXPECT_EQ(parse_payload(r3.value().payload).string_or("verdict", ""),
            "divergent");

  const auto lines = read_lines(dir_.file("alerts.jsonl"));
  ASSERT_EQ(lines.size(), 1U);
  const JsonValue alert = parse_payload(lines[0]);
  EXPECT_EQ(alert.u64_or("iteration", 0), 30U);
  EXPECT_EQ(alert.u64_or("detection_latency_iters", 99), 1U);

  stop_server();
}

TEST_F(MonitorTest, MalformedPushGetsOneBadRequestThenClose) {
  start_server(base_options());
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto x = sim::generate_field(4000, 1);
  const auto phi = sim::generate_field(4000, 2);
  write_history_checkpoint(catalog, "ref", 10, x, phi, params);
  std::uint64_t data_bytes = 0;
  build_live_tree(x, phi, params, &data_bytes);

  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client.value().watch_open(open_request(data_bytes))
                  .value_or(Response{})
                  .ok());

  // A truncated binary payload: too short for even the push header.
  const std::string garbage("\x01\x02\x03", 3);
  ASSERT_TRUE(client.value()
                  .send_request(Opcode::kWatchPush, 42, garbage,
                                /*json=*/false)
                  .is_ok());
  auto reply = client.value().recv_response();
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().status, WireStatus::kBadRequest);
  // The digest stream is poisoned; the server closes after the reply.
  EXPECT_FALSE(client.value().recv_response().is_ok());

  // The daemon itself is unharmed, and the dead session's slot is free.
  auto healthy = connect_client();
  ASSERT_TRUE(healthy.is_ok());
  ASSERT_TRUE(healthy.value().watch_open(open_request(data_bytes))
                  .value_or(Response{})
                  .ok());

  stop_server();
}

TEST_F(MonitorTest, DeclaredEntryCountMismatchIsRejected) {
  start_server(base_options());
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto x = sim::generate_field(4000, 1);
  const auto phi = sim::generate_field(4000, 2);
  write_history_checkpoint(catalog, "ref", 10, x, phi, params);
  std::uint64_t data_bytes = 0;
  build_live_tree(x, phi, params, &data_bytes);

  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client.value().watch_open(open_request(data_bytes))
                  .value_or(Response{})
                  .ok());

  // A well-formed 16-byte push header whose entry_count promises far more
  // entries than the payload carries.
  std::string lying(kWatchPushHeaderBytes, '\0');
  lying[0] = 10;             // iteration
  lying[12] = '\xff';        // entry_count = 0xffff
  lying[13] = '\xff';
  ASSERT_TRUE(client.value()
                  .send_request(Opcode::kWatchPush, 7, lying, /*json=*/false)
                  .is_ok());
  auto reply = client.value().recv_response();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, WireStatus::kBadRequest);
  EXPECT_FALSE(client.value().recv_response().is_ok());

  stop_server();
}

TEST_F(MonitorTest, OutOfOrderPushGetsOneBadRequestThenClose) {
  start_server(base_options());
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto x = sim::generate_field(4000, 1);
  const auto phi = sim::generate_field(4000, 2);
  write_history_checkpoint(catalog, "ref", 10, x, phi, params);
  std::uint64_t data_bytes = 0;
  const auto tree = build_live_tree(x, phi, params, &data_bytes);

  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client.value().watch_open(open_request(data_bytes))
                  .value_or(Response{})
                  .ok());
  auto first = client.value().watch_push(full_frame(tree, 10));
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(first.value().ok()) << first.value().payload;

  // Re-pushing the same iteration violates the strictly-increasing rule.
  auto replay = client.value().watch_push(full_frame(tree, 10));
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(replay.value().status, WireStatus::kBadRequest);
  EXPECT_NE(replay.value().payload.find("out-of-order"), std::string::npos);
  EXPECT_FALSE(client.value().recv_response().is_ok());

  stop_server();
}

// A session whose tree parameters differ from the reference sidecar's has
// digests that cannot be compared with it: every push is one BAD_REQUEST
// naming the mismatch (then the poisoned-stream close), never a divergent
// verdict or an alert.
class MonitorMismatchTest : public MonitorTest {
 protected:
  void expect_rejected(const merkle::TreeParams& live_params,
                       const std::string& open_overrides,
                       const std::string& mismatch) {
    ckpt::HistoryCatalog catalog{dir_.path()};
    const auto x = sim::generate_field(4000, 1);
    const auto phi = sim::generate_field(4000, 2);
    write_history_checkpoint(catalog, "ref", 10, x, phi, tree_params(1e-5));
    std::uint64_t data_bytes = 0;
    const auto tree = build_live_tree(x, phi, live_params, &data_bytes);

    start_server(base_options());
    auto client = connect_client();
    ASSERT_TRUE(client.is_ok());
    const std::string request = "{\"root\":\"" + dir_.path().string() +
                                "\",\"run\":\"live\",\"reference\":\"ref\"," +
                                "\"rank\":0,\"data_bytes\":" +
                                std::to_string(data_bytes) +
                                ",\"chunk_bytes\":1024," + open_overrides +
                                "}";
    auto opened = client.value().watch_open(request);
    ASSERT_TRUE(opened.is_ok());
    ASSERT_TRUE(opened.value().ok()) << opened.value().payload;

    auto reply = client.value().watch_push(full_frame(tree, 10));
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
    EXPECT_EQ(reply.value().status, WireStatus::kBadRequest)
        << reply.value().payload;
    EXPECT_NE(reply.value().payload.find(mismatch), std::string::npos)
        << reply.value().payload;
    EXPECT_FALSE(client.value().recv_response().is_ok());
    EXPECT_TRUE(read_lines(dir_.file("alerts.jsonl")).empty());
    stop_server();
  }
};

TEST_F(MonitorMismatchTest, ReferenceAtAnotherErrorBoundIsRejected) {
  expect_rejected(tree_params(1e-4), "\"eps\":1e-4", "error_bound");
}

TEST_F(MonitorMismatchTest, ReferenceAtAnotherBlockSizeIsRejected) {
  merkle::TreeParams live = tree_params(1e-5);
  live.hash.values_per_block = 8;
  expect_rejected(live, "\"eps\":1e-5,\"values_per_block\":8",
                  "values_per_block");
}

TEST_F(MonitorTest, PushWithoutSessionIsRejected) {
  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  WatchPushFrame frame;
  frame.iteration = 1;
  frame.entries.push_back({0, hash::Digest128{1, 2}});
  auto reply = client.value().watch_push(frame);
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, WireStatus::kBadRequest);
  stop_server();
}

TEST_F(MonitorTest, MetricsVerbExposesWatchSeriesAndStatsCountSessions) {
  start_server(base_options());
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto x = sim::generate_field(4000, 1);
  const auto phi = sim::generate_field(4000, 2);
  write_history_checkpoint(catalog, "ref", 10, x, phi, params);
  std::uint64_t data_bytes = 0;
  build_live_tree(x, phi, params, &data_bytes);

  auto watcher = connect_client();
  ASSERT_TRUE(watcher.is_ok());
  ASSERT_TRUE(watcher.value().watch_open(open_request(data_bytes))
                  .value_or(Response{})
                  .ok());

  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  auto metrics = client.value().call(Opcode::kMetrics, "");
  ASSERT_TRUE(metrics.is_ok());
  ASSERT_TRUE(metrics.value().ok());
  const std::string& page = metrics.value().payload;
  EXPECT_NE(page.find("# TYPE svc_watch_sessions gauge\n"
                      "svc_watch_sessions 1\n"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("# TYPE svc_watch_pushes counter"), std::string::npos);
  EXPECT_NE(page.find("# TYPE svc_watch_push_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(page.find("svc_watch_detection_latency_iters_bucket{le="),
            std::string::npos);

  // STATS carries the session gauge plus the build/uptime identity fields.
  auto stats = client.value().call(Opcode::kStats, "");
  ASSERT_TRUE(stats.is_ok());
  const JsonValue stats_json = parse_payload(stats.value().payload);
  EXPECT_EQ(stats_json.u64_or("watch_sessions", 99), 1U);
  EXPECT_FALSE(stats_json.string_or("version", "").empty());
  EXPECT_FALSE(stats_json.string_or("compiler", "").empty());
  EXPECT_FALSE(stats_json.string_or("build_type", "").empty());
  ASSERT_NE(stats_json.find("uptime_s"), nullptr);

  ASSERT_TRUE(watcher.value().watch_close().value_or(Response{}).ok());
  stats = client.value().call(Opcode::kStats, "");
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(parse_payload(stats.value().payload).u64_or("watch_sessions", 99),
            0U);

  stop_server();
}

TEST(MonitorMemoryTest, LongSessionHoldsOnlyItsFrontier) {
  // What a WATCH session keeps resident is its frontier tree, not the
  // digests it was pushed: 1000 pushes of fresh digests for every node of a
  // 448-leaf tree (a 28 MB checkpoint at 64 KiB chunks) must leave RSS
  // about where it was. No reference sidecar exists, so every push answers
  // no-reference and only the push path runs.
  constexpr std::uint64_t kLeaves = 448;
  constexpr std::uint64_t kChunkBytes = 64 * 1024;
  constexpr std::uint64_t kPushes = 1000;
  repro::TempDir dir{"svc-monitor-memory"};
  MetadataCache cache(1 << 20);
  MonitorOptions options;
  options.compare.tree.chunk_bytes = kChunkBytes;
  Monitor monitor(std::move(options), &cache);
  const std::string request =
      "{\"root\":\"" + dir.path().string() +
      "\",\"run\":\"live\",\"reference\":\"ref\",\"data_bytes\":" +
      std::to_string(kLeaves * kChunkBytes) + "}";
  const WatchReply opened = monitor.open(1, request);
  ASSERT_EQ(opened.status, WireStatus::kOk) << opened.payload;

  const std::uint64_t num_nodes =
      merkle::TreeLayout::for_leaves(kLeaves).num_nodes();
  ASSERT_EQ(num_nodes, 1023U);
  repro::Xoshiro256 rng(448);
  WatchPushFrame frame;
  frame.entries.resize(num_nodes);
  std::vector<std::uint8_t> payload;
  const double rss_before = telemetry::sample_process_resources().rss_bytes;
  ASSERT_GT(rss_before, 0);
  for (std::uint64_t iteration = 1; iteration <= kPushes; ++iteration) {
    frame.iteration = iteration;
    for (std::uint64_t i = 0; i < num_nodes; ++i) {
      frame.entries[i] = {i, hash::Digest128{rng.next(), rng.next()}};
    }
    payload.clear();
    encode_watch_push(payload, frame);
    const WatchReply reply =
        monitor.push(1, std::string(payload.begin(), payload.end()));
    ASSERT_EQ(reply.status, WireStatus::kOk) << reply.payload;
    ASSERT_NE(reply.payload.find("no-reference"), std::string::npos)
        << reply.payload;
  }
  const double grown =
      telemetry::sample_process_resources().rss_bytes - rss_before;

  const WatchReply closed = monitor.close(1);
  ASSERT_EQ(closed.status, WireStatus::kOk) << closed.payload;
  EXPECT_EQ(parse_payload(closed.payload).u64_or("node_inserts", 0),
            kPushes * num_nodes);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // Sanitizer builds run the pushes but skip the bound: ASan's quarantine
  // keeps freed blocks (every replaced frontier) resident on purpose.
  EXPECT_LT(grown, 16.0 * 1024 * 1024) << "VmRSS grew " << grown << " bytes";
#else
  (void)grown;
#endif
}

}  // namespace
}  // namespace repro::svc
