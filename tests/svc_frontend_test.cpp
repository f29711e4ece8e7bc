// The front end the daemon, the router, the monitor and `repro-cli serve`
// share: the listener (unix and TCP), the append-only log file, start-time
// log errors, and the access-record key sets both writers must keep.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hpp"
#include "svc/client.hpp"
#include "svc/log_file.hpp"
#include "svc/router.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"
#include "telemetry/json_parse.hpp"

namespace repro::svc {
namespace {

using telemetry::JsonValue;

std::vector<JsonValue> read_records(const std::filesystem::path& path) {
  std::vector<JsonValue> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = telemetry::json_parse(line);
    EXPECT_TRUE(parsed.has_value() && parsed->is_object())
        << "not one JSON object: " << line;
    if (parsed.has_value()) records.push_back(std::move(parsed).value());
  }
  return records;
}

std::set<std::string> keys_of(const JsonValue& record) {
  std::set<std::string> keys;
  for (const auto& [key, value] : record.object) keys.insert(key);
  return keys;
}

/// Polls `path` until it holds at least `count` records (writers log after
/// the reply is out, so a reader may get there first).
std::vector<JsonValue> await_records(const std::filesystem::path& path,
                                     std::size_t count) {
  std::vector<JsonValue> records;
  for (int attempt = 0; attempt < 200; ++attempt) {
    records = read_records(path);
    if (records.size() >= count) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return records;
}

ServerOptions server_options(const repro::TempDir& dir) {
  ServerOptions opts;
  opts.socket_path = dir.file("reprod.sock");
  opts.workers = 1;
  opts.compare.backend = io::BackendKind::kPread;
  return opts;
}

repro::Result<Client> connect_to(const std::filesystem::path& socket) {
  ClientOptions opts;
  opts.socket_path = socket;
  opts.timeout = std::chrono::milliseconds{20000};
  return Client::connect(opts);
}

/// One PING without and one with a trace-context trailer.
void ping_twice(Client& client, const WireTraceContext& trace) {
  auto plain = client.call(Opcode::kPing, "");
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
  ASSERT_TRUE(
      client.send_request(Opcode::kPing, 900, "", true, &trace).is_ok());
  auto traced = client.recv_response();
  ASSERT_TRUE(traced.is_ok()) << traced.status().to_string();
  EXPECT_EQ(traced.value().request_id, 900U);
}

TEST(LogFileTest, ConcurrentWritersProduceWholeLines) {
  repro::TempDir dir{"svc-frontend"};
  LogFile log;
  ASSERT_TRUE(log.open(dir.file("log.jsonl")).is_ok());
  ASSERT_TRUE(log.enabled());
  constexpr int kThreads = 8;
  constexpr int kRecords = 100;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < kRecords; ++i) {
        // Records past PIPE_BUF (4 KiB) too: whole lines must not depend on
        // the kernel's small-write atomicity.
        const std::string pad((t * 977 + i * 131) % 9000, 'x');
        log.write_line("{\"thread\":" + std::to_string(t) +
                       ",\"seq\":" + std::to_string(i) + ",\"pad\":\"" + pad +
                       "\"}");
      }
    });
  }
  for (auto& writer : writers) writer.join();

  const auto records = read_records(dir.file("log.jsonl"));
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kThreads * kRecords));
  std::vector<int> next(kThreads, 0);
  for (const auto& record : records) {
    const auto t = static_cast<int>(record.u64_or("thread", kThreads));
    ASSERT_LT(t, kThreads);
    // One writer's records stay in its own order.
    EXPECT_EQ(record.u64_or("seq", 0), static_cast<std::uint64_t>(next[t]++));
  }
}

TEST(FrontEndStartTest, UnopenableLogPathFailsStartAndNamesIt) {
  repro::TempDir dir{"svc-frontend"};
  const std::filesystem::path missing = dir.file("no-such-dir/log.jsonl");

  ServerOptions access = server_options(dir);
  access.access_log_path = missing;
  const repro::Status access_status = Server(access).start();
  EXPECT_FALSE(access_status.is_ok());
  EXPECT_NE(access_status.to_string().find(missing.string()),
            std::string::npos)
      << access_status.to_string();

  ServerOptions alerts = server_options(dir);
  alerts.alert_path = missing;
  const repro::Status alert_status = Server(alerts).start();
  EXPECT_FALSE(alert_status.is_ok());
  EXPECT_NE(alert_status.to_string().find(missing.string()),
            std::string::npos)
      << alert_status.to_string();
  // The logs open before the bind, so a failed start leaves no socket.
  EXPECT_FALSE(std::filesystem::exists(dir.file("reprod.sock")));

  RouterOptions router;
  router.socket_path = dir.file("router.sock");
  router.workers = {{dir.file("reprod.sock").string(), 1.0}};
  router.access_log_path = missing;
  const repro::Status router_status = Router(router).start();
  EXPECT_FALSE(router_status.is_ok());
  EXPECT_NE(router_status.to_string().find(missing.string()),
            std::string::npos)
      << router_status.to_string();
}

struct CliRun {
  int exit_code = -1;  ///< -1 when the process did not exit normally
  std::string output;
};

CliRun run_cli(const std::string& arguments) {
  CliRun run;
  const std::string command =
      std::string(REPRO_CLI_BINARY) + " " + arguments + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(FrontEndStartTest, ServeExitsTwoOnUnopenableAccessLog) {
  repro::TempDir dir{"svc-frontend"};
  const CliRun run =
      run_cli("serve --socket " + dir.file("reprod.sock").string() +
              " --access-log " + dir.file("no-such-dir/access.jsonl").string());
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("no-such-dir/access.jsonl"), std::string::npos)
      << run.output;
}

TEST(FrontEndStartTest, ServeExitsTwoOnABadFlushIntervalWithAMetricsPort) {
  // A bad --metrics-flush-ms is a usage error (exit 2), also with
  // --metrics-port: it must not abort the process on a metrics thread
  // that is already running.
  repro::TempDir dir{"svc-frontend"};
  const CliRun run =
      run_cli("serve --socket " + dir.file("reprod.sock").string() +
              " --metrics-port 0 --metrics-flush-ms soon");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(ListenerTest, BindsOverAStaleUnixSocketFile) {
  repro::TempDir dir{"svc-frontend"};
  const std::filesystem::path path = dir.file("stale.sock");
  {
    // A process that died without unlinking its socket leaves this behind.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  {
    Listener listener;
    const repro::Status opened = listener.open(path, "", 0);
    ASSERT_TRUE(opened.is_ok()) << opened.to_string();
    EXPECT_EQ(listener.port(), 0);
    ClientOptions opts;
    opts.socket_path = path;
    EXPECT_TRUE(Client::connect(opts).is_ok());
  }
  // The listener removes the socket file it bound.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ListenerTest, UnixPathTooLongIsInvalidArgument) {
  const std::filesystem::path path = "/tmp/" + std::string(200, 'p') + ".sock";
  Listener listener;
  const repro::Status opened = listener.open(path, "", 0);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.code(), repro::StatusCode::kInvalidArgument);

  ClientOptions opts;
  opts.socket_path = path;
  const auto client = Client::connect(opts);
  ASSERT_FALSE(client.is_ok());
  EXPECT_EQ(client.status().code(), repro::StatusCode::kInvalidArgument);
}

TEST(ListenerTest, TcpPortZeroReportsTheBoundPort) {
  Listener listener;
  const repro::Status opened = listener.open({}, "127.0.0.1", 0);
  ASSERT_TRUE(opened.is_ok()) << opened.to_string();
  const std::uint16_t port = listener.port();
  ASSERT_NE(port, 0);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(listener.fd(),
                          reinterpret_cast<sockaddr*>(&bound), &len),
            0);
  EXPECT_EQ(ntohs(bound.sin_port), port);

  ClientOptions opts;
  opts.port = port;
  EXPECT_TRUE(Client::connect(opts).is_ok());
}

TEST(AccessRecordTest, DaemonAndRouterKeepTheirKeySets) {
  repro::TempDir dir{"svc-frontend"};
  const std::set<std::string> shared = {
      "schema", "version", "verb",      "status",   "request_id", "conn",
      "peer",   "bytes_in", "bytes_out", "wall_us"};
  const std::set<std::string> trace_pair = {"trace_id", "parent_span_id"};
  const WireTraceContext trace{0x1122334455667788ULL, 0x99aabbccddeeff00ULL,
                               0xdeadbeefULL};
  auto with = [](std::set<std::string> keys,
                 const std::set<std::string>& more) {
    keys.insert(more.begin(), more.end());
    return keys;
  };

  ServerOptions server_opts = server_options(dir);
  server_opts.access_log_path = dir.file("daemon.jsonl");
  Server server(server_opts);
  ASSERT_TRUE(server.start().is_ok());
  repro::Status serve_status;
  std::thread serve_thread([&] { serve_status = server.serve(); });

  RouterOptions router_opts;
  router_opts.socket_path = dir.file("router.sock");
  router_opts.workers = {{dir.file("reprod.sock").string(), 1.0}};
  router_opts.access_log_path = dir.file("router.jsonl");
  // No health probes during the test: they would add PINGs to the
  // daemon's log.
  router_opts.health_interval = std::chrono::minutes(10);
  Router router(router_opts);
  ASSERT_TRUE(router.start().is_ok());
  repro::Status route_status;
  std::thread route_thread([&] { route_status = router.serve(); });

  {
    auto daemon_client = connect_to(dir.file("reprod.sock"));
    ASSERT_TRUE(daemon_client.is_ok());
    ping_twice(daemon_client.value(), trace);
    auto router_client = connect_to(dir.file("router.sock"));
    ASSERT_TRUE(router_client.is_ok());
    ping_twice(router_client.value(), trace);
    // Forwarded to the worker: the router logs it with `upstream` set.
    auto forwarded = router_client.value().call(Opcode::kLoadRun,
                                                R"({"root":"","run":""})");
    ASSERT_TRUE(forwarded.is_ok()) << forwarded.status().to_string();
  }

  const std::set<std::string> daemon_keys = with(
      shared, {"queue_us", "cache_lookup_us", "sidecar_load_us", "compute_us",
               "serialize_us", "tx_flush_us", "cache_hit", "slow"});
  const auto daemon = await_records(dir.file("daemon.jsonl"), 3);
  ASSERT_EQ(daemon.size(), 3U);
  EXPECT_EQ(keys_of(daemon[0]), daemon_keys);
  EXPECT_EQ(keys_of(daemon[1]), with(daemon_keys, trace_pair));
  EXPECT_EQ(daemon[2].string_or("verb", ""), "LOAD_RUN");
  EXPECT_EQ(keys_of(daemon[2]), daemon_keys);

  const std::set<std::string> router_keys = with(shared, {"upstream"});
  const auto routed = await_records(dir.file("router.jsonl"), 3);
  ASSERT_EQ(routed.size(), 3U);
  EXPECT_EQ(keys_of(routed[0]), router_keys);
  EXPECT_EQ(keys_of(routed[1]), with(router_keys, trace_pair));
  EXPECT_EQ(routed[2].string_or("upstream", ""),
            dir.file("reprod.sock").string());
  EXPECT_EQ(keys_of(routed[2]), router_keys);
  for (const auto& record : routed) {
    EXPECT_EQ(record.string_or("schema", ""), "repro.svc.access");
  }

  router.request_stop();
  route_thread.join();
  EXPECT_TRUE(route_status.is_ok()) << route_status.to_string();
  server.request_stop();
  serve_thread.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.to_string();
}

}  // namespace
}  // namespace repro::svc
