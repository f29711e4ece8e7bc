// The scale-out fabric end to end: three in-process svc::Servers on
// unix-domain sockets behind a svc::Router, driven by real clients.
// Covers forward parity (the router hop must be invisible to verdicts),
// worker-kill failover with warm survivor caches, SHUTDOWN drain with no
// dropped inflight replies, chunked TIMELINE streaming through the hop,
// the FabricClient client-side routing mode, and the connect-retry
// satellite on plain Clients.
#include <gtest/gtest.h>

#include <malloc.h>
#include <pthread.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hpp"
#include "merkle/flat.hpp"
#include "sim/workload.hpp"
#include "svc/client.hpp"
#include "svc/hash_ring.hpp"
#include "svc/router.hpp"
#include "svc/server.hpp"
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

/// A 3-worker fabric: each worker is a full in-process daemon on its own
/// unix socket, fronted by one Router. Workers share the process (and thus
/// the global metrics registry), so per-worker assertions go through
/// Server::cache().stats(), never global counters.
class RouterFabricTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 3;

  RouterFabricTest() : dir_{"svc-router"} {}

  ~RouterFabricTest() override {
    stop_router();
    for (int i = 0; i < kWorkers; ++i) stop_worker(i);
  }

  std::filesystem::path worker_socket(int i) const {
    return dir_.file("worker-" + std::to_string(i) + ".sock");
  }

  ServerOptions worker_options(int i) {
    ServerOptions opts;
    opts.socket_path = worker_socket(i);
    opts.workers = 2;
    opts.compare.error_bound = 1e-5;
    opts.compare.tree = tree_params(1e-5);
    opts.compare.backend = io::BackendKind::kPread;
    return opts;
  }

  std::vector<RingWorker> ring_workers() const {
    std::vector<RingWorker> workers;
    for (int i = 0; i < kWorkers; ++i) {
      workers.push_back({worker_socket(i).string(), 1.0});
    }
    return workers;
  }

  void start_worker(int i, ServerOptions opts) {
    workers_[i] = std::make_unique<Server>(std::move(opts));
    ASSERT_TRUE(workers_[i]->start().is_ok());
    worker_threads_[i] = std::thread([this, i] {
      worker_status_[i] = workers_[i]->serve();
    });
  }

  void stop_worker(int i) {
    if (workers_[i] == nullptr) return;
    workers_[i]->request_stop();
    if (worker_threads_[i].joinable()) worker_threads_[i].join();
    EXPECT_TRUE(worker_status_[i].is_ok()) << worker_status_[i].to_string();
    workers_[i].reset();
  }

  void start_fabric(RouterOptions router_opts) {
    for (int i = 0; i < kWorkers; ++i) start_worker(i, worker_options(i));
    router_opts.socket_path = dir_.file("router.sock");
    router_opts.workers = ring_workers();
    router_ = std::make_unique<Router>(std::move(router_opts));
    ASSERT_TRUE(router_->start().is_ok());
    router_thread_ = std::thread([this] {
      router_status_ = router_->serve();
    });
  }

  void stop_router() {
    if (router_ == nullptr) return;
    router_->request_stop();
    if (router_thread_.joinable()) router_thread_.join();
    EXPECT_TRUE(router_status_.is_ok()) << router_status_.to_string();
    router_.reset();
  }

  repro::Result<Client> connect(const std::filesystem::path& socket) {
    ClientOptions opts;
    opts.socket_path = socket;
    opts.timeout = std::chrono::milliseconds{20000};
    return Client::connect(opts);
  }

  repro::Result<Client> connect_router() {
    return connect(dir_.file("router.sock"));
  }

  /// The worker index the ring places this payload on (the same placement
  /// the router computes — RunIdRing is deterministic on both sides).
  int owner_index(const std::string& payload) const {
    const RunIdRing ring(ring_workers());
    const RingWorker* owner = ring.owner(routing_key(payload));
    for (int i = 0; i < kWorkers; ++i) {
      if (owner != nullptr && owner->endpoint == worker_socket(i).string()) {
        return i;
      }
    }
    return -1;
  }

  repro::TempDir dir_;
  std::unique_ptr<Server> workers_[kWorkers];
  std::thread worker_threads_[kWorkers];
  repro::Status worker_status_[kWorkers] = {};
  std::unique_ptr<Router> router_;
  std::thread router_thread_;
  repro::Status router_status_ = repro::Status::ok();
};

TEST_F(RouterFabricTest, ForwardsVerdictsAndLogsUpstreamWithTrace) {
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

  RouterOptions opts;
  opts.access_log_path = dir_.file("router-access.jsonl");
  start_fabric(std::move(opts));

  auto client = connect_router();
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  // PING is answered by the router itself and says so.
  auto ping = client.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok());
  ASSERT_TRUE(ping.value().ok());
  EXPECT_NE(ping.value().payload.find("\"router\":true"), std::string::npos);

  // COMPARE is forwarded byte-for-byte: the verdict, the request id, and
  // the trace trailer all survive the hop.
  const std::string request =
      compare_request(dir_.file("a.ckpt"), dir_.file("b.ckpt"));
  const WireTraceContext trace{0x1122334455667788ULL, 0x99aabbccddeeff00ULL,
                               0xdeadbeefULL};
  ASSERT_TRUE(client.value()
                  .send_request(Opcode::kCompare, 77, request, true, &trace)
                  .is_ok());
  auto response = client.value().recv_response();
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  ASSERT_TRUE(response.value().ok()) << response.value().payload;
  EXPECT_EQ(response.value().request_id, 77U);
  const JsonValue verdict = parse_payload(response.value().payload);
  EXPECT_EQ(verdict.string_or("verdict", ""), "divergent");
  EXPECT_EQ(verdict.u64_or("exit_code", 99), 1U);

  // The router's access record names the worker that served the request,
  // under the client's own request id and trace id.
  const int owner = owner_index(request);
  ASSERT_GE(owner, 0);
  // The record lands just after the reply is sent; poll briefly for it.
  bool found = false;
  for (int attempt = 0; attempt < 100 && !found; ++attempt) {
    std::ifstream log(dir_.file("router-access.jsonl"));
    std::string line;
    while (std::getline(log, line)) {
      const JsonValue record = parse_payload(line);
      if (record.string_or("verb", "") != "COMPARE") continue;
      found = true;
      EXPECT_EQ(record.u64_or("request_id", 0), 77U);
      EXPECT_EQ(record.string_or("upstream", ""),
                worker_socket(owner).string());
      const telemetry::TraceContext expected{trace.trace_hi, trace.trace_lo,
                                             0};
      EXPECT_EQ(record.string_or("trace_id", ""), expected.trace_id_hex());
      EXPECT_EQ(record.string_or("schema", ""), "repro.svc.access");
    }
    if (!found) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(found) << "no COMPARE access record";

  stop_router();
}

TEST_F(RouterFabricTest, TcpPeersAreLoggedInTheSharedPeerFormat) {
  // A TCP listener this time: the access record's peer must use the
  // daemon's "tcp:<ip>:<port>" format (docs/FORMATS.md), not a bare ip:port.
  for (int i = 0; i < kWorkers; ++i) start_worker(i, worker_options(i));
  RouterOptions opts;
  opts.workers = ring_workers();
  opts.access_log_path = dir_.file("router-access.jsonl");
  router_ = std::make_unique<Router>(std::move(opts));
  ASSERT_TRUE(router_->start().is_ok());
  router_thread_ = std::thread([this] { router_status_ = router_->serve(); });

  ClientOptions client_opts;
  client_opts.port = router_->port();
  client_opts.timeout = std::chrono::milliseconds{20000};
  auto client = Client::connect(client_opts);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto ping = client.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok());
  ASSERT_TRUE(ping.value().ok());

  std::string peer;
  for (int attempt = 0; attempt < 100 && peer.empty(); ++attempt) {
    std::ifstream log(dir_.file("router-access.jsonl"));
    std::string line;
    while (std::getline(log, line)) {
      const JsonValue record = parse_payload(line);
      if (record.string_or("verb", "") == "PING") {
        peer = record.string_or("peer", "");
      }
    }
    if (peer.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_EQ(peer.rfind("tcp:127.0.0.1:", 0), 0U) << peer;

  stop_router();
}

TEST_F(RouterFabricTest, KilledWorkerShardFailsOverAndSurvivorsStayWarm) {
  const auto params = tree_params(1e-5);
  // Distinct file pairs land on distinct ring shards; find one pair per
  // worker so every worker has a warm shard before the kill.
  std::vector<std::string> pair_for_worker(kWorkers);
  const auto phi = sim::generate_field(4000, 2);
  int pairs_made = 0;
  for (int seed = 0; pairs_made < kWorkers && seed < 64; ++seed) {
    const std::string name_a = "p" + std::to_string(seed) + "a.ckpt";
    const std::string name_b = "p" + std::to_string(seed) + "b.ckpt";
    const std::string request =
        compare_request(dir_.file(name_a), dir_.file(name_b));
    const int owner = owner_index(request);
    ASSERT_GE(owner, 0);
    if (!pair_for_worker[owner].empty()) continue;
    const auto x = sim::generate_field(4000, seed + 10);
    write_checkpoint(dir_.file(name_a), x, phi, params);
    write_checkpoint(dir_.file(name_b), x, phi, params);
    pair_for_worker[owner] = request;
    ++pairs_made;
  }
  ASSERT_EQ(pairs_made, kWorkers) << "ring never hit every worker";

  RouterOptions opts;
  opts.health_interval = std::chrono::milliseconds(50);
  start_fabric(std::move(opts));

  auto client = connect_router();
  ASSERT_TRUE(client.is_ok());
  // Warm every shard twice: cold load, then a pure cache hit.
  for (int i = 0; i < kWorkers; ++i) {
    for (int round = 0; round < 2; ++round) {
      auto response =
          client.value().call(Opcode::kCompare, pair_for_worker[i]);
      ASSERT_TRUE(response.is_ok());
      ASSERT_TRUE(response.value().ok()) << response.value().payload;
    }
  }

  const int victim = 0;
  const CacheStats before_1 = workers_[1]->cache().stats();
  const CacheStats before_2 = workers_[2]->cache().stats();
  stop_worker(victim);

  // The victim's shard fails over: requests may bounce while the health
  // checker ejects the dead worker, then land on the next worker in the
  // key's rendezvous order.
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    auto response =
        client.value().call(Opcode::kCompare, pair_for_worker[victim]);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    if (response.value().ok()) {
      recovered = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(recovered) << "shard never failed over";
  EXPECT_LT(router_->live_workers(), static_cast<std::size_t>(kWorkers));

  // The survivors' own shards answer from warm caches, untouched by the
  // failover traffic: no new misses or insertions on their servers.
  for (int i = 1; i < kWorkers; ++i) {
    auto response =
        client.value().call(Opcode::kCompare, pair_for_worker[i]);
    ASSERT_TRUE(response.is_ok());
    ASSERT_TRUE(response.value().ok()) << response.value().payload;
    const JsonValue verdict = parse_payload(response.value().payload);
    EXPECT_TRUE(verdict.find("cache_hit_a") != nullptr &&
                verdict.find("cache_hit_a")->boolean)
        << "worker " << i << " shard went cold";
  }
  const CacheStats after_1 = workers_[1]->cache().stats();
  const CacheStats after_2 = workers_[2]->cache().stats();
  // One of the survivors absorbed the victim's shard (cold misses there
  // are expected); the other survivor's cache must be completely quiet.
  const std::uint64_t new_misses_1 = after_1.misses - before_1.misses;
  const std::uint64_t new_misses_2 = after_2.misses - before_2.misses;
  EXPECT_TRUE(new_misses_1 == 0 || new_misses_2 == 0)
      << "both survivors took cold traffic: " << new_misses_1 << " / "
      << new_misses_2;

  stop_router();
}

TEST_F(RouterFabricTest, ShutdownDrainsWithoutDroppingInflightReplies) {
  const auto params = tree_params(1e-5);
  const auto x = sim::generate_field(6000, 7);
  const auto phi = sim::generate_field(6000, 8);
  write_checkpoint(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint(dir_.file("b.ckpt"), x, phi, params);

  start_fabric(RouterOptions{});

  auto flood = connect_router();
  ASSERT_TRUE(flood.is_ok());
  const std::string request =
      compare_request(dir_.file("a.ckpt"), dir_.file("b.ckpt"));
  constexpr int kRequests = 8;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kRequests; ++i) {
    append_request(burst, Opcode::kCompare,
                   static_cast<std::uint64_t>(i + 1), request);
  }
  std::size_t off = 0;
  while (off < burst.size()) {
    const ssize_t n = ::send(flood.value().fd(), burst.data() + off,
                             burst.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  // Read the first reply before draining: the flood is provably inflight.
  auto first = flood.value().recv_response();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(first.value().status, WireStatus::kOk);

  auto admin = connect_router();
  ASSERT_TRUE(admin.is_ok());
  auto shutdown = admin.value().call(Opcode::kShutdown, "");
  ASSERT_TRUE(shutdown.is_ok());
  ASSERT_TRUE(shutdown.value().ok());
  EXPECT_NE(shutdown.value().payload.find("\"draining\":true"),
            std::string::npos);

  // Every request the router had accepted gets a reply — none dropped,
  // no mid-stream EOF — even though the fabric is draining underneath.
  for (int i = 1; i < kRequests; ++i) {
    auto response = flood.value().recv_response();
    ASSERT_TRUE(response.is_ok())
        << "reply " << i << " dropped: " << response.status().to_string();
    EXPECT_NE(response.value().payload, "");
  }

  // serve() returns on its own; stop_router() only joins and checks.
  if (router_thread_.joinable()) router_thread_.join();
  EXPECT_TRUE(router_status_.is_ok()) << router_status_.to_string();
  router_.reset();
  // The SHUTDOWN broadcast also drained every worker.
  for (int i = 0; i < kWorkers; ++i) {
    if (worker_threads_[i].joinable()) worker_threads_[i].join();
    EXPECT_TRUE(worker_status_[i].is_ok());
    workers_[i].reset();
  }
}

TEST_F(RouterFabricTest, LargeTimelineStreamsInChunksThroughTheRouter) {
  const auto params = tree_params(1e-5);
  ckpt::HistoryCatalog catalog{dir_.path()};
  // 30 iterations make the timeline JSON a few KiB — several chunks at
  // the 1 KiB floor chunk size below.
  for (std::uint64_t iteration = 10; iteration <= 300; iteration += 10) {
    const auto x = sim::generate_field(1000, iteration);
    const auto phi = sim::generate_field(1000, iteration + 500);
    auto x_b = x;
    if (iteration >= 160) {
      sim::apply_divergence(x_b, {.region_fraction = 0.05,
                                  .region_values = 80,
                                  .magnitude = 1e-3,
                                  .seed = iteration});
    }
    write_history_checkpoint(catalog, "run-a", iteration, x, phi, params);
    write_history_checkpoint(catalog, "run-b", iteration, x_b, phi, params);
  }

  // Tiny tx cap on the workers: any timeline reply bigger than 1 KiB
  // (cap/4) must stream as TIMELINE_CHUNK continuation frames instead of
  // one giant tx append — which with this cap would shed the connection.
  for (int i = 0; i < kWorkers; ++i) {
    ServerOptions opts = worker_options(i);
    opts.max_tx_buffer_bytes = 4096;
    start_worker(i, std::move(opts));
  }
  RouterOptions router_opts;
  router_opts.socket_path = dir_.file("router.sock");
  router_opts.workers = ring_workers();
  router_ = std::make_unique<Router>(std::move(router_opts));
  ASSERT_TRUE(router_->start().is_ok());
  router_thread_ = std::thread([this] { router_status_ = router_->serve(); });

  const std::string request = "{\"root\":\"" + dir_.path().string() +
                              "\",\"run_a\":\"run-a\",\"run_b\":\"run-b\"}";

  // Direct to the owning worker: the reply streams.
  const int owner = owner_index(request);
  ASSERT_GE(owner, 0);
  auto direct = connect(worker_socket(owner));
  ASSERT_TRUE(direct.is_ok());
  auto direct_reply = direct.value().call(Opcode::kTimeline, request);
  ASSERT_TRUE(direct_reply.is_ok()) << direct_reply.status().to_string();
  ASSERT_TRUE(direct_reply.value().ok()) << direct_reply.value().payload;
  ASSERT_GT(direct_reply.value().payload.size(), 1024U)
      << "timeline too small to exercise streaming";
  EXPECT_GE(direct_reply.value().chunks, 2U);

  // Through the router: chunk frames pass through unreassembled, so the
  // client sees the same stream — and the same reassembled payload.
  auto client = connect_router();
  ASSERT_TRUE(client.is_ok());
  auto routed = client.value().call(Opcode::kTimeline, request);
  ASSERT_TRUE(routed.is_ok()) << routed.status().to_string();
  ASSERT_TRUE(routed.value().ok()) << routed.value().payload;
  EXPECT_GE(routed.value().chunks, 2U);
  // Identical verdict content; only the cache_hits counter can differ
  // (the direct call was the cold one), so compare up to that key.
  const std::string& routed_payload = routed.value().payload;
  const std::string& direct_payload = direct_reply.value().payload;
  EXPECT_EQ(routed_payload.substr(0, routed_payload.find("\"cache_hits\"")),
            direct_payload.substr(0, direct_payload.find("\"cache_hits\"")));
  const JsonValue timeline = parse_payload(routed.value().payload);
  EXPECT_EQ(timeline.u64_or("first_divergent_iteration", 0), 160U);
  ASSERT_NE(timeline.find("pairs"), nullptr);
  EXPECT_EQ(timeline.find("pairs")->array.size(), 30U);

  // The stream never tripped the shed path: both connections still serve.
  EXPECT_TRUE(client.value().call(Opcode::kPing, "").is_ok());
  EXPECT_TRUE(direct.value().call(Opcode::kPing, "").is_ok());

  stop_router();
}

TEST_F(RouterFabricTest, FabricClientRoutesItselfAndFailsOver) {
  const auto params = tree_params(1e-5);
  const auto x = sim::generate_field(4000, 21);
  const auto phi = sim::generate_field(4000, 22);
  write_checkpoint(dir_.file("fa.ckpt"), x, phi, params);
  write_checkpoint(dir_.file("fb.ckpt"), x, phi, params);

  for (int i = 0; i < kWorkers; ++i) start_worker(i, worker_options(i));

  FabricOptions opts;
  opts.workers = ring_workers();
  opts.base.timeout = std::chrono::milliseconds{20000};
  opts.down_backoff = std::chrono::milliseconds{100};
  auto fabric = FabricClient::connect(std::move(opts));
  ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();

  const std::string request =
      compare_request(dir_.file("fa.ckpt"), dir_.file("fb.ckpt"));
  // Client-side routing agrees with the shared ring placement.
  const int owner = owner_index(request);
  ASSERT_GE(owner, 0);
  EXPECT_EQ(fabric.value().endpoint_for(request),
            worker_socket(owner).string());

  auto response = fabric.value().call(Opcode::kCompare, request);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_TRUE(response.value().ok()) << response.value().payload;

  // Kill the owner: the same call fails over to the next worker in the
  // key's rendezvous order without the caller doing anything.
  stop_worker(owner);
  response = fabric.value().call(Opcode::kCompare, request);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_TRUE(response.value().ok()) << response.value().payload;
}

/// This process's virtual size in KiB (VmSize in /proc/self/status).
std::uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoull(line.substr(std::strlen("VmSize:")));
    }
  }
  return 0;
}

TEST_F(RouterFabricTest, HandlerThreadsAreReclaimedWhenConnectionsClose) {
  // Keep glibc from mapping a new 64 MiB malloc arena whenever handler
  // threads overlap under load: only thread stacks may move VmSize here.
  // Set before any fabric thread allocates, while the limit is unset.
  mallopt(M_ARENA_MAX, 1);
  start_fabric(RouterOptions{});
  auto ping_once = [this] {
    auto client = connect_router();
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    auto ping = client.value().call(Opcode::kPing, "");
    ASSERT_TRUE(ping.is_ok()) << ping.status().to_string();
    EXPECT_TRUE(ping.value().ok());
  };
  // Warm up first, so allocator arenas the handler threads create are
  // already mapped before the baseline.
  for (int i = 0; i < 8; ++i) ping_once();

  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  std::size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);

  // Each connection gets its own handler thread. One that is never joined
  // keeps its stack mapped, so 64 sequential connections would grow the
  // process by ~64 stacks.
  const std::uint64_t before_kib = vm_size_kib();
  ASSERT_GT(before_kib, 0U);
  for (int i = 0; i < 64; ++i) ping_once();
  // The accept loop joins finished handlers on its next turn (at most
  // 100 ms away); give the last ones time to go.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t after_kib = vm_size_kib();
  const std::uint64_t grown =
      after_kib > before_kib ? after_kib - before_kib : 0;
  EXPECT_LT(grown * 1024, 16 * stack_bytes)
      << "VmSize grew by " << grown << " KiB over 64 connections";
  stop_router();
}

TEST(ClientConnectRetryTest, ConnectRetriesThroughDaemonStartupRace) {
  repro::TempDir dir{"svc-retry"};
  auto& retries = telemetry::MetricsRegistry::global().counter(
      "svc.client.connect_retries");
  const std::uint64_t before = retries.value();

  ServerOptions server_opts;
  server_opts.socket_path = dir.file("late.sock");
  server_opts.workers = 1;
  server_opts.compare.backend = io::BackendKind::kPread;

  // The daemon binds ~100 ms after the client starts connecting — the
  // startup race the connect retry exists for.
  std::unique_ptr<Server> server;
  repro::Status serve_status;
  std::thread late_start([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server = std::make_unique<Server>(std::move(server_opts));
    ASSERT_TRUE(server->start().is_ok());
    serve_status = server->serve();
  });

  ClientOptions opts;
  opts.socket_path = dir.file("late.sock");
  opts.timeout = std::chrono::milliseconds{10000};
  opts.connect_retry.max_attempts = 200;
  opts.connect_retry.backoff_initial_us = 5000;
  opts.connect_retry.backoff_max_us = 20000;
  auto client = Client::connect(opts);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  EXPECT_GT(retries.value(), before);

  auto ping = client.value().call(Opcode::kPing, "");
  ASSERT_TRUE(ping.is_ok());
  EXPECT_TRUE(ping.value().ok());

  server->request_stop();
  late_start.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.to_string();

  // RetryPolicy::none() restores fail-fast for callers that want it.
  ClientOptions fail_fast;
  fail_fast.socket_path = dir.file("absent.sock");
  fail_fast.connect_retry = io::RetryPolicy::none();
  const std::uint64_t still = retries.value();
  EXPECT_FALSE(Client::connect(fail_fast).is_ok());
  EXPECT_EQ(retries.value(), still);
}

// `repro-cli route --workers w0.sock,w1.sock` from a working directory is
// a legitimate fabric config: a colon-less endpoint must parse as a
// relative unix-socket path, never as a TCP host without a port.
TEST(EndpointParsingTest, BareSocketFilenameIsAUnixPath) {
  const ClientOptions base;
  const ClientOptions bare = endpoint_client_options("w0.sock", base);
  EXPECT_EQ(bare.socket_path, std::filesystem::path("w0.sock"));
  EXPECT_EQ(bare.port, 0);

  const ClientOptions absolute =
      endpoint_client_options("/run/reprod.sock", base);
  EXPECT_EQ(absolute.socket_path,
            std::filesystem::path("/run/reprod.sock"));

  const ClientOptions tcp = endpoint_client_options("127.0.0.1:9001", base);
  EXPECT_TRUE(tcp.socket_path.empty());
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 9001);
}

}  // namespace
}  // namespace repro::svc
