// In-process daemon + real sockets: a svc::Server on a unix-domain socket
// in a temp dir, driven by svc::Clients from test threads. Covers the
// service's headline contract (verdict parity with one-shot compare, warm
// queries answered with zero sidecar I/O) and its robustness envelope
// (floods, garbage, oversized frames, mid-request disconnects, drains).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <array>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hpp"
#include "merkle/flat.hpp"
#include "merkle/nodestore.hpp"
#include "compare/comparator.hpp"
#include "sim/workload.hpp"
#include "svc/client.hpp"
#include "svc/monitor.hpp"
#include "svc/server.hpp"
#include "telemetry/json_parse.hpp"
#include "telemetry/metrics.hpp"

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

JsonValue parse_payload(const std::string& payload) {
  auto parsed = telemetry::json_parse(payload);
  EXPECT_TRUE(parsed.has_value()) << "unparseable payload: " << payload;
  return parsed.value_or(JsonValue{});
}

std::string compare_request(const std::filesystem::path& a,
                            const std::filesystem::path& b) {
  return "{\"file_a\":\"" + a.string() + "\",\"file_b\":\"" + b.string() +
         "\"}";
}

class LoopbackTest : public ::testing::Test {
 protected:
  LoopbackTest() : dir_{"svc-loopback"} {}

  ~LoopbackTest() override { stop_server(); }

  ServerOptions base_options() {
    ServerOptions opts;
    opts.socket_path = dir_.file("reprod.sock");
    opts.workers = 4;
    opts.compare.error_bound = 1e-5;
    opts.compare.tree = tree_params(1e-5);
    opts.compare.backend = io::BackendKind::kPread;
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

TEST_F(LoopbackTest, ConcurrentVerdictsMatchOneShotAndWarmQueriesSkipIO) {
  const auto params = tree_params(1e-5);
  const auto x = sim::generate_field(6000, 1);
  auto x_div = x;
  sim::apply_divergence(x_div, {.region_fraction = 0.05,
                                .region_values = 100,
                                .magnitude = 1e-3,
                                .seed = 3});
  const auto phi = sim::generate_field(6000, 2);
  write_checkpoint(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint(dir_.file("b.ckpt"), x_div, phi, params);
  write_checkpoint(dir_.file("c.ckpt"), x, phi, params);

  // Ground truth from the one-shot path. It pays sidecar I/O every call.
  cmp::CompareOptions one_shot;
  one_shot.error_bound = 1e-5;
  one_shot.tree = params;
  one_shot.backend = io::BackendKind::kPread;
  const auto divergent =
      cmp::compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), one_shot);
  ASSERT_TRUE(divergent.is_ok()) << divergent.status().to_string();
  ASSERT_FALSE(divergent.value().identical_within_bound());
  ASSERT_GT(divergent.value().metadata_bytes_read, 0U);
  const auto identical =
      cmp::compare_files(dir_.file("a.ckpt"), dir_.file("c.ckpt"), one_shot);
  ASSERT_TRUE(identical.is_ok());
  ASSERT_TRUE(identical.value().identical_within_bound());

  start_server(base_options());

  // N concurrent clients, each comparing both pairs.
  constexpr int kClients = 4;
  std::array<std::string, kClients> divergent_payloads;
  std::array<std::string, kClients> identical_payloads;
  std::array<bool, kClients> ok{};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto client = connect_client();
      if (!client.is_ok()) return;
      auto r1 = client.value().call(
          Opcode::kCompare,
          compare_request(dir_.file("a.ckpt"), dir_.file("b.ckpt")));
      auto r2 = client.value().call(
          Opcode::kCompare,
          compare_request(dir_.file("a.ckpt"), dir_.file("c.ckpt")));
      if (!r1.is_ok() || !r1.value().ok()) return;
      if (!r2.is_ok() || !r2.value().ok()) return;
      divergent_payloads[i] = r1.value().payload;
      identical_payloads[i] = r2.value().payload;
      ok[i] = true;
    });
  }
  for (auto& thread : threads) thread.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(ok[i]) << "client " << i << " failed";
    const JsonValue div = parse_payload(divergent_payloads[i]);
    EXPECT_EQ(div.string_or("verdict", ""), "divergent");
    EXPECT_EQ(div.u64_or("exit_code", 99), 1U);
    EXPECT_EQ(div.u64_or("values_exceeding", 0),
              divergent.value().values_exceeding);
    EXPECT_EQ(div.u64_or("chunks_flagged", 0),
              divergent.value().chunks_flagged);
    const JsonValue same = parse_payload(identical_payloads[i]);
    EXPECT_EQ(same.string_or("verdict", ""), "within-bound");
    EXPECT_EQ(same.u64_or("exit_code", 99), 0U);
    EXPECT_EQ(same.u64_or("values_exceeding", 99), 0U);
  }

  // Warm query: both trees pinned from cache, zero sidecar bytes read.
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  auto warm = client.value().call(
      Opcode::kCompare,
      compare_request(dir_.file("a.ckpt"), dir_.file("b.ckpt")));
  ASSERT_TRUE(warm.is_ok());
  ASSERT_TRUE(warm.value().ok()) << warm.value().payload;
  const JsonValue warm_json = parse_payload(warm.value().payload);
  ASSERT_NE(warm_json.find("cache_hit_a"), nullptr);
  ASSERT_NE(warm_json.find("cache_hit_b"), nullptr);
  EXPECT_TRUE(warm_json.find("cache_hit_a")->boolean);
  EXPECT_TRUE(warm_json.find("cache_hit_b")->boolean);
  EXPECT_EQ(warm_json.u64_or("metadata_bytes_read", 99), 0U);
  EXPECT_EQ(warm_json.u64_or("values_exceeding", 0),
            divergent.value().values_exceeding);

  auto stats = client.value().call(Opcode::kStats, "");
  ASSERT_TRUE(stats.is_ok());
  ASSERT_TRUE(stats.value().ok());
  const JsonValue stats_json = parse_payload(stats.value().payload);
  const JsonValue* cache = stats_json.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->u64_or("hits", 0), 0U);
  EXPECT_EQ(cache->u64_or("entries", 0), 3U);  // a, b, c sidecars resident

  stop_server();
}

TEST_F(LoopbackTest, TimelineAndLoadRunShareTheCache) {
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  for (const std::uint64_t iteration : {10U, 20U, 30U}) {
    const auto x = sim::generate_field(4000, iteration);
    const auto phi = sim::generate_field(4000, iteration + 100);
    auto x_b = x;
    if (iteration >= 20) {
      sim::apply_divergence(x_b, {.region_fraction = 0.05,
                                  .region_values = 80,
                                  .magnitude = 1e-3,
                                  .seed = iteration});
    }
    write_history_checkpoint(catalog, "run-a", iteration, x, phi, params);
    write_history_checkpoint(catalog, "run-b", iteration, x_b, phi, params);
  }

  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());

  const std::string root = dir_.path().string();
  // Pre-warm one run; the second LOAD_RUN is a pure cache hit.
  auto load = client.value().call(
      Opcode::kLoadRun, "{\"root\":\"" + root + "\",\"run\":\"run-a\"}");
  ASSERT_TRUE(load.is_ok());
  ASSERT_TRUE(load.value().ok()) << load.value().payload;
  JsonValue load_json = parse_payload(load.value().payload);
  EXPECT_EQ(load_json.u64_or("loaded", 0), 3U);
  EXPECT_EQ(load_json.u64_or("already_cached", 99), 0U);
  EXPECT_EQ(load_json.u64_or("missing_metadata", 99), 0U);

  load = client.value().call(
      Opcode::kLoadRun, "{\"root\":\"" + root + "\",\"run\":\"run-a\"}");
  ASSERT_TRUE(load.is_ok());
  load_json = parse_payload(load.value().payload);
  EXPECT_EQ(load_json.u64_or("loaded", 99), 0U);
  EXPECT_EQ(load_json.u64_or("already_cached", 0), 3U);

  const std::string timeline_request = "{\"root\":\"" + root +
                                       "\",\"run_a\":\"run-a\"," +
                                       "\"run_b\":\"run-b\"}";
  auto timeline = client.value().call(Opcode::kTimeline, timeline_request);
  ASSERT_TRUE(timeline.is_ok());
  ASSERT_TRUE(timeline.value().ok()) << timeline.value().payload;
  JsonValue tl = parse_payload(timeline.value().payload);
  EXPECT_EQ(tl.u64_or("first_divergent_iteration", 0), 20U);
  EXPECT_EQ(tl.u64_or("first_divergent_rank", 99), 0U);
  ASSERT_NE(tl.find("pairs"), nullptr);
  ASSERT_EQ(tl.find("pairs")->array.size(), 3U);
  EXPECT_EQ(tl.find("pairs")->array[0].u64_or("exit_code", 99), 0U);
  EXPECT_EQ(tl.find("pairs")->array[1].u64_or("exit_code", 99), 1U);
  EXPECT_EQ(tl.find("pairs")->array[2].u64_or("exit_code", 99), 1U);
  // run-a's three trees were pre-warmed; run-b's three were cold.
  EXPECT_EQ(tl.u64_or("cache_hits", 99), 3U);

  timeline = client.value().call(Opcode::kTimeline, timeline_request);
  ASSERT_TRUE(timeline.is_ok());
  tl = parse_payload(timeline.value().payload);
  EXPECT_EQ(tl.u64_or("cache_hits", 0), 6U);

  stop_server();
}

TEST_F(LoopbackTest, PipelinedFloodHitsPerClientInflightCap) {
  const auto params = tree_params(1e-5);
  const auto x = sim::generate_field(20000, 5);
  auto x_div = x;
  sim::apply_divergence(x_div, {.region_fraction = 0.2,
                                .region_values = 512,
                                .magnitude = 1e-3,
                                .seed = 9});
  const auto phi = sim::generate_field(20000, 6);
  write_checkpoint(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint(dir_.file("b.ckpt"), x_div, phi, params);

  ServerOptions opts = base_options();
  opts.workers = 1;
  opts.max_inflight_per_client = 2;
  start_server(std::move(opts));

  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());

  // 16 COMPARE frames in one write: the loop parses them in one batch, so
  // everything beyond the in-flight cap is rejected deterministically.
  constexpr int kRequests = 16;
  std::vector<std::uint8_t> burst;
  const std::string request =
      compare_request(dir_.file("a.ckpt"), dir_.file("b.ckpt"));
  for (int i = 0; i < kRequests; ++i) {
    append_request(burst, Opcode::kCompare,
                   static_cast<std::uint64_t>(i + 1), request);
  }
  std::size_t off = 0;
  while (off < burst.size()) {
    const ssize_t n = ::send(client.value().fd(), burst.data() + off,
                             burst.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }

  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto response = client.value().recv_response();
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    if (response.value().status == WireStatus::kOk) {
      ++accepted;
    } else {
      ASSERT_EQ(response.value().status, WireStatus::kTooManyRequests)
          << response.value().payload;
      ++rejected;
    }
  }
  EXPECT_EQ(accepted + rejected, kRequests);
  EXPECT_GE(accepted, 2);  // at least one cap's worth was dispatched
  EXPECT_GE(rejected, 1);  // and the flood hit the cap

  stop_server();
}

TEST_F(LoopbackTest, UnreadRepliesHitTxCapAndShedTheConnection) {
  ServerOptions opts = base_options();
  opts.max_tx_buffer_bytes = 2048;  // a few dozen ping replies
  start_server(std::move(opts));

  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());

  // Pipeline far more PINGs than the socket buffer plus cap can absorb in
  // replies, never reading one. Once the kernel buffer fills, unsent
  // replies accumulate in the server's tx until the cap sheds us.
  constexpr int kPings = 16384;  // ~570 KB of replies
  // The daemon counts a shed connection as an error.
  const telemetry::Counter& shed =
      telemetry::MetricsRegistry::global().counter("svc.errors");
  const std::uint64_t shed0 = shed.value();
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kPings; ++i) {
    append_request(burst, Opcode::kPing, static_cast<std::uint64_t>(i + 1),
                   "");
  }
  std::size_t off = 0;
  while (off < burst.size()) {
    const ssize_t n = ::send(client.value().fd(), burst.data() + off,
                             burst.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;  // server may already have shed us mid-send
    off += static_cast<std::size_t>(n);
  }

  // Read nothing until the daemon has shed us. Otherwise, if it read the
  // whole burst before answering any of it, draining here would race its
  // replies and could keep its tx under the cap.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{20};
  while (shed.value() == shed0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }

  // Now drain: some replies, then EOF from the shed — never all kPings.
  int ok = 0;
  while (true) {
    auto response = client.value().recv_response();
    if (!response.is_ok()) break;
    ASSERT_EQ(response.value().status, WireStatus::kOk);
    ++ok;
  }
  EXPECT_GT(ok, 0);
  EXPECT_LT(ok, kPings);

  // The daemon is unharmed and still serves other clients.
  auto healthy = connect_client();
  ASSERT_TRUE(healthy.is_ok());
  auto ping = healthy.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok());
  EXPECT_TRUE(ping.value().ok());

  stop_server();
}

TEST_F(LoopbackTest, InPlaceRepublishIsAMissForCompareTimelineAndWatch) {
  // A cached tree must describe the bytes it is compared against. Run B
  // starts identical to run A and every daemon path caches B's trees; then
  // B's iteration 20 is republished in place (temp + rename, as a capture
  // flush publishes) with diverged values. COMPARE, TIMELINE and WATCH must
  // then answer what the one-shot paths answer, not the cached verdict.
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto phi = sim::generate_field(4000, 7);
  const auto x10 = sim::generate_field(4000, 10);
  const auto x20 = sim::generate_field(4000, 20);
  for (const char* run : {"run-a", "run-b"}) {
    write_history_checkpoint(catalog, run, 10, x10, phi, params);
    write_history_checkpoint(catalog, run, 20, x20, phi, params);
  }
  auto x20_diverged = x20;
  sim::apply_divergence(x20_diverged, {.region_fraction = 0.05,
                                       .region_values = 80,
                                       .magnitude = 1e-3,
                                       .seed = 5});

  // The live side of WATCH pushes run A's iteration-20 tree against
  // reference run B.
  ckpt::CheckpointWriter live_writer("test", "live", 20, 0);
  ASSERT_TRUE(live_writer.add_field_f32("X", x20).is_ok());
  ASSERT_TRUE(live_writer.add_field_f32("PHI", phi).is_ok());
  const auto live = merkle::TreeBuilder(params, par::Exec::serial())
                        .build(live_writer.data_section());
  ASSERT_TRUE(live.is_ok());
  WatchPushFrame push;
  push.iteration = 20;
  const merkle::TreeView live_view(live.value());
  for (std::uint64_t i = 0; i < live_view.layout().num_nodes(); ++i) {
    push.entries.push_back({i, live_view.node(i)});
  }

  const std::string root = dir_.path().string();
  const std::string pair = "{\"root\":\"" + root +
                           "\",\"run_a\":\"run-a\",\"run_b\":\"run-b\"";
  const std::string compare_json = pair + ",\"iteration\":20,\"rank\":0}";
  const std::string timeline_json = pair + "}";
  const std::string watch_json =
      "{\"root\":\"" + root +
      "\",\"run\":\"live\",\"reference\":\"run-b\",\"rank\":0," +
      "\"data_bytes\":" + std::to_string(live_writer.data_section().size()) +
      ",\"eps\":1e-5,\"chunk_bytes\":1024}";

  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  const auto call = [&](Opcode op, const std::string& payload) {
    auto reply = client.value().call(op, payload);
    EXPECT_TRUE(reply.is_ok() && reply.value().ok())
        << (reply.is_ok() ? reply.value().payload
                          : reply.status().to_string());
    return parse_payload(reply.is_ok() ? reply.value().payload : "{}");
  };
  // One WATCH session per verdict: a session never takes an iteration twice.
  const auto watch = [&] {
    auto watcher = connect_client();
    EXPECT_TRUE(watcher.is_ok());
    if (!watcher.is_ok()) return JsonValue{};
    EXPECT_TRUE(watcher.value().watch_open(watch_json).is_ok());
    auto reply = watcher.value().watch_push(push);
    EXPECT_TRUE(reply.is_ok() && reply.value().ok());
    return parse_payload(reply.is_ok() ? reply.value().payload : "{}");
  };

  // Identical runs; afterwards every tree of both runs is cached.
  EXPECT_EQ(call(Opcode::kCompare, compare_json).string_or("verdict", ""),
            "within-bound");
  const JsonValue clean_timeline = call(Opcode::kTimeline, timeline_json);
  ASSERT_NE(clean_timeline.find("first_divergent_iteration"), nullptr);
  EXPECT_EQ(clean_timeline.find("first_divergent_iteration")->kind,
            JsonValue::Kind::kNull);
  EXPECT_EQ(watch().string_or("verdict", ""), "clean");

  write_history_checkpoint(catalog, "run-b", 20, x20_diverged, phi, params);

  // The one-shot verdicts on the republished files.
  cmp::CompareOptions one_shot;
  one_shot.error_bound = 1e-5;
  one_shot.tree = params;
  one_shot.backend = io::BackendKind::kPread;
  const auto pair_report = cmp::compare_pair(
      {catalog.ref("run-a", 20, 0), catalog.ref("run-b", 20, 0)}, one_shot);
  ASSERT_TRUE(pair_report.is_ok()) << pair_report.status().to_string();
  ASSERT_GT(pair_report.value().values_exceeding, 0U);
  cmp::HistoryOptions history_options;
  history_options.pair_options = one_shot;
  const auto history =
      cmp::compare_histories(catalog, "run-a", "run-b", history_options);
  ASSERT_TRUE(history.is_ok()) << history.status().to_string();
  ASSERT_EQ(history.value().first_divergent_iteration, 20U);
  const auto reference =
      merkle::MappedBundle::open(catalog.ref("run-b", 20, 0).metadata_path);
  ASSERT_TRUE(reference.is_ok());
  const auto candidates =
      merkle::compare_trees(reference.value().sole_tree().value(), live_view);
  ASSERT_TRUE(candidates.is_ok());
  ASSERT_FALSE(candidates.value().empty());

  const JsonValue compared = call(Opcode::kCompare, compare_json);
  EXPECT_EQ(compared.string_or("verdict", ""), "divergent");
  EXPECT_EQ(compared.u64_or("exit_code", 99), 1U);
  EXPECT_EQ(compared.u64_or("values_exceeding", 0),
            pair_report.value().values_exceeding);
  EXPECT_EQ(call(Opcode::kTimeline, timeline_json)
                .u64_or("first_divergent_iteration", 0),
            20U);
  const JsonValue watched = watch();
  EXPECT_EQ(watched.string_or("verdict", ""), "divergent");
  EXPECT_EQ(watched.u64_or("chunks_flagged", 0), candidates.value().size());

  // Exactly one stale entry: run B's iteration-20 sidecar, reloaded by the
  // first COMPARE and then shared by TIMELINE and WATCH.
  const JsonValue stats = call(Opcode::kStats, "");
  ASSERT_NE(stats.find("cache"), nullptr);
  EXPECT_EQ(stats.find("cache")->u64_or("stale", 0), 1U);

  stop_server();
}

TEST_F(LoopbackTest, GarbageFramesAreRejectedWithoutKillingTheDaemon) {
  start_server(base_options());

  auto garbage_client = connect_client();
  ASSERT_TRUE(garbage_client.is_ok());
  const std::string garbage = "GET / HTTP/1.1\r\nHost: reprod\r\n\r\n";
  ASSERT_GT(::send(garbage_client.value().fd(), garbage.data(),
                   garbage.size(), 0),
            0);
  auto reply = garbage_client.value().recv_response();
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().status, WireStatus::kBadRequest);
  EXPECT_NE(reply.value().payload.find("bad magic"), std::string::npos);
  // The stream cannot be resynchronized: the server closes after replying.
  EXPECT_FALSE(garbage_client.value().recv_response().is_ok());

  // The daemon itself is unharmed.
  auto healthy = connect_client();
  ASSERT_TRUE(healthy.is_ok());
  auto ping = healthy.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok());
  EXPECT_TRUE(ping.value().ok());

  stop_server();
}

TEST_F(LoopbackTest, LegacySidecarGetsAnErrorReplyAndTheDaemonStaysUp) {
  const auto params = tree_params(1e-5);
  const auto x = sim::generate_field(2000, 4);
  const auto phi = sim::generate_field(2000, 5);
  write_checkpoint(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint(dir_.file("b.ckpt"), x, phi, params);
  // Replace a's sidecar with the first bytes of a retired v1 tree.
  std::vector<std::uint8_t> legacy(64, 0);
  std::memcpy(legacy.data(), "RMRK", 4);
  legacy[4] = 1;
  ASSERT_TRUE(repro::write_file(dir_.file("a.ckpt.rmrk"), legacy).is_ok());

  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  auto reply = client.value().call(
      Opcode::kCompare,
      compare_request(dir_.file("a.ckpt"), dir_.file("b.ckpt")));
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_FALSE(reply.value().ok());
  EXPECT_NE(reply.value().payload.find("legacy v1 sidecar (RMRK)"),
            std::string::npos)
      << reply.value().payload;

  auto ping = client.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok());
  EXPECT_TRUE(ping.value().ok());

  stop_server();
}

TEST_F(LoopbackTest, UnprobeablePathsGetAnErrorReplyAndTheDaemonStaysUp) {
  // A path whose stat fails with something other than "not there" (here a
  // symlink loop, ELOOP): COMPARE on it, and TIMELINE / LOAD_RUN on a run
  // holding such an `iter` entry, each answer an error that names the path.
  const std::filesystem::path loop = dir_.file("loop");
  std::filesystem::create_symlink("loop", loop);
  const std::filesystem::path root = dir_.file("cat");
  std::filesystem::create_directories(root / "a");
  std::filesystem::create_directories(root / "b");
  std::filesystem::create_symlink("iter5", root / "a" / "iter5");

  ServerOptions opts = base_options();
  opts.workers = 1;
  start_server(std::move(opts));
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());

  auto reply = client.value().call(Opcode::kCompare,
                                   compare_request(loop, loop));
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_FALSE(reply.value().ok());
  EXPECT_NE(reply.value().payload.find(loop.string()), std::string::npos)
      << reply.value().payload;

  const std::string looping_iter = (root / "a" / "iter5").string();
  reply = client.value().call(Opcode::kTimeline,
                              "{\"root\":\"" + root.string() +
                                  "\",\"run_a\":\"a\",\"run_b\":\"b\"}");
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_FALSE(reply.value().ok());
  EXPECT_NE(reply.value().payload.find(looping_iter), std::string::npos)
      << reply.value().payload;

  reply = client.value().call(
      Opcode::kLoadRun, "{\"root\":\"" + root.string() + "\",\"run\":\"a\"}");
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_FALSE(reply.value().ok());
  EXPECT_NE(reply.value().payload.find(looping_iter), std::string::npos)
      << reply.value().payload;

  auto ping = client.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok()) << ping.status().to_string();
  EXPECT_TRUE(ping.value().ok());

  stop_server();
}

TEST_F(LoopbackTest, DeltaOnlySidecarGetsAnErrorReplyNamingIt) {
  // The daemon resolves no delta chain: a checkpoint whose sidecar holds
  // only a differential (RMFD) section gets an error reply that names the
  // sidecar, even where a delta-store anchor sits beside it, and the
  // daemon stays up.
  const auto params = tree_params(1e-5);
  const auto x = sim::generate_field(4000, 31);
  const auto phi = sim::generate_field(4000, 32);
  write_checkpoint(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint(dir_.file("iter1.ckpt"), x, phi, params);
  const std::filesystem::path full = dir_.file("iter1.ckpt.rmrk");
  auto bundle = merkle::MappedBundle::open(full);
  ASSERT_TRUE(bundle.is_ok()) << bundle.status().to_string();
  auto view = bundle.value().sole_tree();
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  auto tree = view.value().materialize();
  ASSERT_TRUE(tree.is_ok()) << tree.status().to_string();
  std::filesystem::remove(full);
  // iter1.ckpt's sidecar is now iter1.rmrk: a delta on the anchor iter0.
  ASSERT_TRUE(merkle::save_flat(tree.value(), dir_.file("iter0.rmrk")).is_ok());
  const auto delta =
      merkle::compute_tree_delta(tree.value(), tree.value(), 0, 1);
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  const std::filesystem::path sidecar = dir_.file("iter1.rmrk");
  ASSERT_TRUE(
      repro::write_file(sidecar, merkle::flat_serialize_delta(delta.value()))
          .is_ok());

  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  auto reply = client.value().call(
      Opcode::kCompare,
      compare_request(dir_.file("a.ckpt"), dir_.file("iter1.ckpt")));
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_FALSE(reply.value().ok());
  EXPECT_NE(reply.value().payload.find(sidecar.string()), std::string::npos)
      << reply.value().payload;

  auto ping = client.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok()) << ping.status().to_string();
  EXPECT_TRUE(ping.value().ok());

  stop_server();
}

TEST_F(LoopbackTest, OversizedFrameRejectedWithEchoedRequestId) {
  ServerOptions opts = base_options();
  opts.max_frame_bytes = 4096;
  start_server(std::move(opts));

  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  const std::string huge =
      "{\"pad\":\"" + std::string(8000, 'x') + "\"}";
  auto response = client.value().call(Opcode::kCompare, huge);
  // call() matches on the echoed request id, so getting a response at all
  // proves the oversized header was decoded far enough to address it.
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, WireStatus::kBadRequest);
  EXPECT_NE(response.value().payload.find("oversized"), std::string::npos);

  auto healthy = connect_client();
  ASSERT_TRUE(healthy.is_ok());
  EXPECT_TRUE(healthy.value().call(Opcode::kPing, "").is_ok());

  stop_server();
}

TEST_F(LoopbackTest, ClientDisconnectMidRequestIsHarmless) {
  const auto params = tree_params(1e-5);
  const auto x = sim::generate_field(6000, 7);
  const auto phi = sim::generate_field(6000, 8);
  write_checkpoint(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint(dir_.file("b.ckpt"), x, phi, params);

  ServerOptions opts = base_options();
  opts.workers = 1;
  start_server(std::move(opts));

  {
    auto client = connect_client();
    ASSERT_TRUE(client.is_ok());
    ASSERT_TRUE(client.value()
                    .send_request(Opcode::kCompare, 1,
                                  compare_request(dir_.file("a.ckpt"),
                                                  dir_.file("b.ckpt")))
                    .is_ok());
    client.value().close();  // vanish with the request in flight
  }

  // The orphaned completion is dropped; the daemon keeps serving.
  auto healthy = connect_client();
  ASSERT_TRUE(healthy.is_ok());
  auto compare = healthy.value().call(
      Opcode::kCompare,
      compare_request(dir_.file("a.ckpt"), dir_.file("b.ckpt")));
  ASSERT_TRUE(compare.is_ok());
  EXPECT_TRUE(compare.value().ok()) << compare.value().payload;

  stop_server();
}

TEST_F(LoopbackTest, ShutdownOpcodeDrainsTheServer) {
  start_server(base_options());
  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  auto response = client.value().call(Opcode::kShutdown, "");
  ASSERT_TRUE(response.is_ok());
  EXPECT_TRUE(response.value().ok());
  EXPECT_NE(response.value().payload.find("draining"), std::string::npos);
  // serve() returns on its own; stop_server() only joins and checks.
  if (serve_thread_.joinable()) serve_thread_.join();
  EXPECT_TRUE(serve_status_.is_ok()) << serve_status_.to_string();
  server_.reset();
}

TEST_F(LoopbackTest, SigtermDrainsTheServer) {
  start_server(base_options());
  ASSERT_TRUE(install_signal_handlers(*server_).is_ok());

  auto client = connect_client();
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client.value().call(Opcode::kPing, "").is_ok());

  ::raise(SIGTERM);
  if (serve_thread_.joinable()) serve_thread_.join();
  EXPECT_TRUE(serve_status_.is_ok()) << serve_status_.to_string();
  server_.reset();
}

}  // namespace
}  // namespace repro::svc
