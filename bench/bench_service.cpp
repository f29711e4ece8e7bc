// Service bench: cold vs warm COMPARE latency against an in-process reprod
// daemon (the tentpole claim of docs/SERVICE.md — a resident metadata cache
// answers repeat divergence queries with zero sidecar I/O).
//
// One svc::Server runs on a unix socket in a temp dir; a svc::Client issues
// COMPARE requests over the real wire protocol. "Cold" clears the metadata
// cache before every request (each query pays two sidecar loads); "warm"
// leaves the cache resident. The shape check asserts warm < cold and that
// warm responses report cache hits with metadata_bytes_read == 0.
//
// A third section saturates the live monitoring plane: one WATCH session
// streams alternating delta frontiers against per-iteration references,
// measuring push round-trip latency and pushes/s in the all-clean steady
// state (docs/OBSERVABILITY.md "Live divergence monitoring").
//
// A final section reads the per-phase request breakdown back out of the
// svc.request.phase.* histograms and the structured access log the daemon
// wrote while serving the sections above (docs/OBSERVABILITY.md "Per-request
// phase breakdown") — the attributed sum per COMPARE becomes the
// svc_request_phase trajectory row.
//
// --json <path> writes a machine-readable summary for plotting scripts.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_artifact.hpp"
#include "bench/bench_common.hpp"
#include "ckpt/history.hpp"
#include "common/json.hpp"
#include "compare/comparator.hpp"
#include "merkle/nodestore.hpp"
#include "svc/client.hpp"
#include "svc/hash_ring.hpp"
#include "svc/monitor.hpp"
#include "svc/server.hpp"
#include "telemetry/json_parse.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace repro;

std::string compare_request(const std::filesystem::path& a,
                            const std::filesystem::path& b) {
  std::string out = "{";
  json_append_string(out, "file_a");
  out += ':';
  json_append_string(out, a.string());
  out += ',';
  json_append_string(out, "file_b");
  out += ':';
  json_append_string(out, b.string());
  out += '}';
  return out;
}

/// One COMPARE round-trip; exits on failure, returns the parsed payload.
telemetry::JsonValue query(svc::Client& client, const std::string& request) {
  auto response = client.call(svc::Opcode::kCompare, request);
  if (!response.is_ok() || !response.value().ok()) {
    std::fprintf(stderr, "COMPARE failed: %s\n",
                 response.is_ok() ? response.value().payload.c_str()
                                  : response.status().to_string().c_str());
    std::exit(1);
  }
  auto parsed = telemetry::json_parse(response.value().payload);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "unparseable payload: %s\n",
                 response.value().payload.c_str());
    std::exit(1);
  }
  return *parsed;
}

struct Row {
  std::string name;
  double median_ms = 0;
  double requests_per_second = 0;
  std::uint64_t metadata_bytes_read = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string artifact_path =
      bench::extract_artifact_path(&argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  bench::print_banner(
      "Service: cold vs warm COMPARE through the reprod daemon",
      "compare-as-a-service extension",
      "Warm queries are served from the sharded metadata cache: zero "
      "sidecar reads.");

  const std::uint64_t values = (1ULL << 20) * bench::scale_factor();
  TempDir dir{"bench-service"};
  const bench::PairFiles pair = bench::make_layered_pair(dir, values, "svc");
  const double eps = 1e-5;
  const std::uint64_t chunk = 4 * kKiB;
  const ckpt::CheckpointPair files = bench::metadata_for(pair, chunk, eps);
  // An agreeing pair: its whole request cost is metadata (load + tree walk),
  // the part the resident cache eliminates — the paper's repeat-query
  // economy in its purest form. Reuses run A's checkpoint and sidecar.
  bench::PairFiles same;
  same.values_a = pair.values_a;
  same.values_b = pair.values_a;
  same.data_bytes = pair.data_bytes;
  same.run_a = pair.run_a;
  same.run_b = dir.file("svc-c.ckpt");
  bench::write_single_field_checkpoint(same.run_b, pair.values_a, "run-c");
  const ckpt::CheckpointPair agreeing = bench::metadata_for(same, chunk, eps);
  std::printf("checkpoint size: %s\n\n",
              format_size(pair.data_bytes).c_str());

  svc::ServerOptions options;
  options.socket_path = dir.file("reprod.sock");
  options.workers = 2;
  options.access_log_path = dir.file("access.jsonl");
  options.compare.error_bound = eps;
  options.compare.tree.chunk_bytes = chunk;
  options.compare.tree.hash.error_bound = eps;
  svc::Server server(std::move(options));
  if (!server.start().is_ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  std::thread serve_thread([&server] { (void)server.serve(); });

  svc::ClientOptions client_options;
  client_options.socket_path = dir.file("reprod.sock");
  auto client = svc::Client::connect(client_options);
  if (!client.is_ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().to_string().c_str());
    return 1;
  }
  const std::string divergent_request =
      compare_request(files.run_a.checkpoint_path,
                      files.run_b.checkpoint_path);
  const std::string agreeing_request =
      compare_request(agreeing.run_a.checkpoint_path,
                      agreeing.run_b.checkpoint_path);

  // Ground truth for verdict parity.
  cmp::CompareOptions one_shot;
  one_shot.error_bound = eps;
  one_shot.tree.chunk_bytes = chunk;
  one_shot.tree.hash.error_bound = eps;
  const auto reference = cmp::compare_pair(files, one_shot);
  if (!reference.is_ok()) {
    std::fprintf(stderr, "one-shot compare failed: %s\n",
                 reference.status().to_string().c_str());
    return 1;
  }

  const int reps = 9;
  bool shapes_ok = true;
  std::uint64_t warm_metadata_bytes = 0;
  bool warm_hits = true;

  // Verdict parity through the daemon (cold, then warm).
  for (int i = 0; i < 2; ++i) {
    const auto payload = query(client.value(), divergent_request);
    if (payload.u64_or("values_exceeding", 0) !=
        reference.value().values_exceeding) {
      shapes_ok = false;
    }
  }

  // Cold: every request reloads both sidecars into the cache.
  const bench::WallStats cold_stats = bench::wall_stats_of(reps, [&] {
    server.cache().clear();
    Stopwatch clock;
    (void)query(client.value(), agreeing_request);
    return clock.seconds() * 1e3;
  });
  const double cold_ms = cold_stats.median_ms;
  // What each cold query had to load: the two trees now resident.
  const std::uint64_t cold_sidecar_bytes = server.cache().stats().bytes;

  // Warm: the trees stay resident; only the verdict travels.
  const bench::WallStats warm_stats = bench::wall_stats_of(reps, [&] {
    Stopwatch clock;
    const auto payload = query(client.value(), agreeing_request);
    const double ms = clock.seconds() * 1e3;
    warm_metadata_bytes = payload.u64_or("metadata_bytes_read", 1);
    const auto* hit_a = payload.find("cache_hit_a");
    const auto* hit_b = payload.find("cache_hit_b");
    warm_hits = hit_a != nullptr && hit_a->boolean && hit_b != nullptr &&
                hit_b->boolean;
    if (payload.u64_or("values_exceeding", 99) != 0) shapes_ok = false;
    return ms;
  });
  const double warm_ms = warm_stats.median_ms;

  // Warm request throughput over one connection.
  const int burst = 50;
  Stopwatch burst_clock;
  for (int i = 0; i < burst; ++i) query(client.value(), agreeing_request);
  const double burst_seconds = burst_clock.seconds();
  const double req_per_s =
      burst_seconds > 0 ? static_cast<double>(burst) / burst_seconds : 0;

  // WATCH saturation: one streaming session pushing delta frontiers against
  // per-iteration references (the live monitoring plane's steady state).
  // The live run alternates between two frontiers so every push carries a
  // real (non-empty) delta, and every reference matches, so each verdict is
  // the cheap clean path: one root compare, no leaf sweep, no alert.
  merkle::TreeParams watch_params;
  watch_params.chunk_bytes = chunk;
  watch_params.hash.error_bound = eps;
  ckpt::CheckpointWriter writer_a("bench", "watch-live", 1, 0);
  ckpt::CheckpointWriter writer_b("bench", "watch-live", 2, 0);
  (void)writer_a.add_field_f32("X", pair.values_a);
  (void)writer_b.add_field_f32("X", pair.values_b);
  const std::uint64_t watch_data_bytes = writer_a.data_section().size();
  auto tree_a = merkle::TreeBuilder(watch_params, par::Exec::serial())
                    .build(writer_a.data_section());
  auto tree_b = merkle::TreeBuilder(watch_params, par::Exec::serial())
                    .build(writer_b.data_section());
  if (!tree_a.is_ok() || !tree_b.is_ok()) {
    std::fprintf(stderr, "watch frontier build failed\n");
    return 1;
  }
  auto delta_ab = merkle::compute_tree_delta(tree_a.value(), tree_b.value(),
                                             0, 1);
  auto delta_ba = merkle::compute_tree_delta(tree_b.value(), tree_a.value(),
                                             0, 1);
  if (!delta_ab.is_ok() || !delta_ba.is_ok()) {
    std::fprintf(stderr, "watch delta build failed\n");
    return 1;
  }

  const int watch_reps = 40;
  const ckpt::HistoryCatalog catalog{dir.path()};
  for (int i = 1; i <= watch_reps + 1; ++i) {
    auto ref = catalog.make_ref("watch-ref", static_cast<std::uint64_t>(i), 0);
    const auto& tree = (i % 2 == 1) ? tree_a.value() : tree_b.value();
    if (!ref.is_ok() ||
        !merkle::save_flat(tree, ref.value().metadata_path).is_ok()) {
      std::fprintf(stderr, "watch reference seed failed\n");
      return 1;
    }
  }

  std::string open_request = "{";
  json_append_string(open_request, "root");
  open_request += ':';
  json_append_string(open_request, dir.path().string());
  open_request += strprintf(
      ",\"run\":\"watch-live\",\"reference\":\"watch-ref\",\"rank\":0,"
      "\"data_bytes\":%llu,\"eps\":%g,\"chunk_bytes\":%llu}",
      static_cast<unsigned long long>(watch_data_bytes), eps,
      static_cast<unsigned long long>(chunk));
  auto opened = client.value().watch_open(open_request);
  if (!opened.is_ok() || !opened.value().ok()) {
    std::fprintf(stderr, "WATCH_OPEN failed: %s\n",
                 opened.is_ok() ? opened.value().payload.c_str()
                                : opened.status().to_string().c_str());
    return 1;
  }

  bool watch_clean = true;
  auto push = [&](std::uint64_t iteration, bool is_delta,
                  const std::vector<merkle::DeltaNode>& entries) {
    svc::WatchPushFrame frame;
    frame.iteration = iteration;
    frame.delta = is_delta;
    frame.entries = entries;
    auto response = client.value().watch_push(frame);
    if (!response.is_ok() || !response.value().ok()) {
      std::fprintf(stderr, "WATCH_PUSH failed: %s\n",
                   response.is_ok() ? response.value().payload.c_str()
                                    : response.status().to_string().c_str());
      std::exit(1);
    }
    auto payload = telemetry::json_parse(response.value().payload);
    if (!payload.has_value() ||
        payload->string_or("verdict", "") != "clean") {
      watch_clean = false;
    }
  };

  // First push establishes the full frontier; the timed loop streams deltas.
  std::vector<merkle::DeltaNode> full_nodes;
  const merkle::TreeView view_a(tree_a.value());
  full_nodes.reserve(view_a.layout().num_nodes());
  for (std::uint64_t i = 0; i < view_a.layout().num_nodes(); ++i) {
    full_nodes.push_back({i, view_a.node(i)});
  }
  push(1, false, full_nodes);

  std::uint64_t watch_iter = 2;
  const std::uint64_t delta_payload_bytes =
      svc::kWatchPushHeaderBytes +
      std::max(delta_ab.value().nodes.size(), delta_ba.value().nodes.size()) *
          svc::kWatchPushEntryBytes;
  Stopwatch watch_burst;
  const bench::WallStats watch_stats = bench::wall_stats_of(watch_reps, [&] {
    const auto& entries = (watch_iter % 2 == 0) ? delta_ab.value().nodes
                                                : delta_ba.value().nodes;
    Stopwatch clock;
    push(watch_iter, true, entries);
    ++watch_iter;
    return clock.seconds() * 1e3;
  });
  const double watch_seconds = watch_burst.seconds();
  const double pushes_per_s =
      watch_seconds > 0 ? static_cast<double>(watch_reps) / watch_seconds : 0;
  auto watch_summary = client.value().watch_close();
  if (!watch_summary.is_ok() || !watch_summary.value().ok()) {
    std::fprintf(stderr, "WATCH_CLOSE failed\n");
    return 1;
  }
  const auto summary_json =
      telemetry::json_parse(watch_summary.value().payload);
  const bool watch_alerted =
      summary_json.has_value() && summary_json->find("alerted") != nullptr &&
      summary_json->find("alerted")->boolean;

  client.value().close();
  server.request_stop();
  serve_thread.join();

  // Per-phase breakdown: the svc.request.phase.* histograms aggregate every
  // request the sections above pushed through the daemon; the access log
  // gives the same phases attributed per request.
  static constexpr const char* kPhaseMetrics[] = {
      "svc.request.phase.queue_us",
      "svc.request.phase.cache_lookup_us",
      "svc.request.phase.sidecar_load_us",
      "svc.request.phase.compute_us",
      "svc.request.phase.serialize_us",
      "svc.request.phase.tx_flush_us",
  };
  const auto metrics = telemetry::MetricsRegistry::global().snapshot();
  std::printf("\nper-phase request latency (svc.request.phase.* histograms):\n");
  TextTable phase_table({"Phase", "Count", "Mean (us)", "Max (us)"});
  for (const char* metric : kPhaseMetrics) {
    const auto found = metrics.histograms.find(metric);
    if (found == metrics.histograms.end()) continue;
    phase_table.add_row(
        {metric,
         strprintf("%llu",
                   static_cast<unsigned long long>(found->second.count)),
         strprintf("%.1f", found->second.mean()),
         strprintf("%.1f", found->second.max)});
  }
  phase_table.print();

  // Attributed latency per COMPARE from the access log: the sum of the six
  // phase fields of each record, and how much of the served wall time the
  // phases explain.
  std::vector<double> attributed_ms;
  double attributed_us = 0;
  double logged_wall_us = 0;
  {
    std::ifstream access_log(dir.file("access.jsonl"));
    std::string line;
    while (std::getline(access_log, line)) {
      const auto record = telemetry::json_parse(line);
      if (!record.has_value() ||
          record->string_or("verb", "") != "COMPARE") {
        continue;
      }
      double request_us = 0;
      for (const char* metric : kPhaseMetrics) {
        // Access-log field names drop the "svc.request.phase." prefix.
        request_us += record->number_or(metric + 18, 0);
      }
      attributed_ms.push_back(request_us / 1e3);
      attributed_us += request_us;
      logged_wall_us += record->number_or("wall_us", 0);
    }
  }
  std::sort(attributed_ms.begin(), attributed_ms.end());
  bench::WallStats phase_stats;
  if (!attributed_ms.empty()) {
    phase_stats.median_ms = attributed_ms[attributed_ms.size() / 2];
    phase_stats.p90_ms = attributed_ms[std::min(
        attributed_ms.size() - 1, attributed_ms.size() * 9 / 10)];
  }
  std::printf("access log: %zu COMPARE records, phases explain %.1f%% of "
              "served wall time\n",
              attributed_ms.size(),
              logged_wall_us > 0 ? 100.0 * attributed_us / logged_wall_us
                                 : 0.0);

  // Scale-out saturation (docs/SERVICE.md "Scale-out topology"): the same
  // warm COMPARE traffic, but sharded over a worker pool with client-side
  // ring routing, across the fabric's three scaling dimensions —
  // connections x pipelining depth x shard (worker) count. The baseline
  // cell is the status-quo deployment this repo benched until now: one
  // daemon, one connection, strictly blocking round trips. The fabric cell
  // runs 4 workers x 8 connections x 4-deep pipelines over shard pairs
  // pre-picked to spread evenly across the ring, so every worker carries
  // an equal slice of the key space.
  constexpr int kScaleWorkers = 4;
  constexpr int kScalePairs = 8;
  constexpr int kScaleRequests = 2048;
  const std::uint64_t scale_values = 16 * 1024;  // 64 KiB checkpoints

  std::vector<std::filesystem::path> scale_sockets;
  std::vector<svc::RingWorker> scale_ring_workers;
  for (int i = 0; i < kScaleWorkers; ++i) {
    scale_sockets.push_back(dir.file(strprintf("scale-w%d.sock", i)));
    scale_ring_workers.push_back({scale_sockets.back().string(), 1.0});
  }
  const svc::RunIdRing scale_ring(scale_ring_workers);

  // Shard tags whose file-pair routing keys land exactly evenly on the
  // 4-worker ring (paths are deterministic, so owners are known before any
  // data is generated).
  std::vector<std::string> scale_requests;
  {
    std::map<std::string, int> per_worker;
    for (int seed = 0;
         static_cast<int>(scale_requests.size()) < kScalePairs && seed < 256;
         ++seed) {
      const std::string tag = "shard" + std::to_string(seed);
      const std::string request = compare_request(
          dir.file(tag + "-a.ckpt"), dir.file(tag + "-b.ckpt"));
      const svc::RingWorker* owner =
          scale_ring.owner(svc::routing_key(request));
      if (owner == nullptr ||
          per_worker[owner->endpoint] >= kScalePairs / kScaleWorkers) {
        continue;
      }
      ++per_worker[owner->endpoint];
      const bench::PairFiles shard_pair = bench::make_layered_pair(
          dir, scale_values, tag, static_cast<std::uint64_t>(seed) + 7);
      (void)bench::metadata_for(shard_pair, chunk, eps);
      scale_requests.push_back(request);
    }
  }
  bool scale_ok =
      static_cast<int>(scale_requests.size()) == kScalePairs;

  // One cell of the saturation matrix: `worker_count` single-threaded
  // daemons, `conns` client connections each pipelining `pipeline` requests
  // at a time, every connection pinned to the ring owner of its shard.
  const auto run_saturation = [&](int worker_count, int conns, int pipeline,
                                  double* req_per_s) -> bool {
    std::vector<svc::RingWorker> cell_workers;
    for (int i = 0; i < worker_count; ++i) {
      cell_workers.push_back({scale_sockets[i].string(), 1.0});
    }
    const svc::RunIdRing cell_ring(cell_workers);
    std::vector<std::unique_ptr<svc::Server>> servers;
    std::vector<std::thread> serve_threads;
    for (int i = 0; i < worker_count; ++i) {
      svc::ServerOptions worker;
      worker.socket_path = scale_sockets[i];
      worker.workers = 1;
      worker.compare.error_bound = eps;
      worker.compare.tree.chunk_bytes = chunk;
      worker.compare.tree.hash.error_bound = eps;
      servers.push_back(std::make_unique<svc::Server>(std::move(worker)));
      if (!servers.back()->start().is_ok()) return false;
      serve_threads.emplace_back(
          [daemon = servers.back().get()] { (void)daemon->serve(); });
    }
    svc::ClientOptions base;
    base.timeout = std::chrono::milliseconds{30000};
    // Warm every shard on its owning worker: the timed flood below is pure
    // resident-cache traffic.
    bool ok = true;
    for (const std::string& request : scale_requests) {
      const svc::RingWorker* owner =
          cell_ring.owner(svc::routing_key(request));
      auto warm_client = svc::Client::connect(
          svc::endpoint_client_options(owner->endpoint, base));
      if (!warm_client.is_ok()) {
        ok = false;
        break;
      }
      for (int round = 0; round < 2 && ok; ++round) {
        auto response =
            warm_client.value().call(svc::Opcode::kCompare, request);
        ok = response.is_ok() && response.value().ok();
      }
    }
    std::atomic<int> failures{0};
    Stopwatch flood_clock;
    if (ok) {
      std::vector<std::thread> clients;
      const int per_conn = kScaleRequests / conns;
      for (int t = 0; t < conns; ++t) {
        clients.emplace_back([&, t] {
          const std::string& request =
              scale_requests[static_cast<std::size_t>(t) %
                             scale_requests.size()];
          const svc::RingWorker* owner =
              cell_ring.owner(svc::routing_key(request));
          auto conn = svc::Client::connect(
              svc::endpoint_client_options(owner->endpoint, base));
          if (!conn.is_ok()) {
            failures.fetch_add(per_conn);
            return;
          }
          std::uint64_t request_id = 1;
          for (int sent = 0; sent < per_conn; sent += pipeline) {
            const int depth = std::min(pipeline, per_conn - sent);
            for (int d = 0; d < depth; ++d) {
              if (!conn.value()
                       .send_request(svc::Opcode::kCompare, request_id++,
                                     request)
                       .is_ok()) {
                failures.fetch_add(1);
              }
            }
            for (int d = 0; d < depth; ++d) {
              auto response = conn.value().recv_response();
              if (!response.is_ok() || !response.value().ok()) {
                failures.fetch_add(1);
              }
            }
          }
        });
      }
      for (auto& conn : clients) conn.join();
    }
    const double wall = flood_clock.seconds();
    for (auto& daemon : servers) daemon->request_stop();
    for (auto& thread : serve_threads) thread.join();
    if (failures.load() != 0) ok = false;
    *req_per_s = wall > 0 ? static_cast<double>(kScaleRequests) / wall : 0;
    return ok;
  };

  double baseline_rps = 0;   // 1 worker, 1 conn, blocking
  double pipelined_rps = 0;  // 1 worker, 8 conns, pipeline 4
  double fabric_rps = 0;     // 4 workers, 8 conns, pipeline 4
  if (scale_ok) scale_ok = run_saturation(1, 1, 1, &baseline_rps);
  if (scale_ok) scale_ok = run_saturation(1, 8, 4, &pipelined_rps);
  if (scale_ok) {
    scale_ok = run_saturation(kScaleWorkers, 8, 4, &fabric_rps);
  }
  const double scale_speedup =
      baseline_rps > 0 ? fabric_rps / baseline_rps : 0;
  // The >=2.5x gate needs one core per worker: on fewer cores the blocking
  // baseline's "wait" is the same core running the worker, so there is no
  // idle time for extra workers to reclaim and any measured ratio is just
  // scheduler noise. The functional gate (every sharded request answered,
  // zero failures) applies regardless.
  const unsigned scale_cores = std::thread::hardware_concurrency();
  const bool scale_gate_applies =
      scale_cores >= static_cast<unsigned>(kScaleWorkers);
  std::printf("\nscale-out saturation (%d shard pairs, %s checkpoints, "
              "%d requests per cell):\n",
              kScalePairs,
              format_size(scale_values * sizeof(float)).c_str(),
              kScaleRequests);
  TextTable scale_table(
      {"Workers x Conns x Pipeline", "Req/s", "vs baseline"});
  scale_table.add_row({"1 x 1 x 1 (status quo)",
                       strprintf("%.0f", baseline_rps), "1.00x"});
  scale_table.add_row(
      {"1 x 8 x 4", strprintf("%.0f", pipelined_rps),
       strprintf("%.2fx", baseline_rps > 0 ? pipelined_rps / baseline_rps
                                           : 0)});
  scale_table.add_row({"4 x 8 x 4 (fabric)", strprintf("%.0f", fabric_rps),
                       strprintf("%.2fx", scale_speedup)});
  scale_table.print();

  std::vector<Row> rows = {
      {"cold (cache cleared per request)", cold_ms, 0, cold_sidecar_bytes},
      {"warm (resident cache)", warm_ms, req_per_s, warm_metadata_bytes},
      {"watch (streamed delta push)", watch_stats.median_ms, pushes_per_s,
       delta_payload_bytes},
      {"scale-out fabric (4 workers, warm)",
       fabric_rps > 0 ? 1000.0 / fabric_rps : 0, fabric_rps,
       scale_values * sizeof(float)},
  };
  TextTable table({"Mode", "Median latency (ms)", "Req/s",
                   "Bytes/query"});
  for (const Row& row : rows) {
    table.add_row({row.name, strprintf("%.3f", row.median_ms),
                   row.requests_per_second > 0
                       ? strprintf("%.0f", row.requests_per_second)
                       : "-",
                   format_size(row.metadata_bytes_read)});
  }
  table.print();

  if (!(warm_ms < cold_ms)) shapes_ok = false;
  if (warm_metadata_bytes != 0 || !warm_hits) shapes_ok = false;
  if (!watch_clean || watch_alerted) shapes_ok = false;
  if (!scale_ok) shapes_ok = false;
  if (scale_gate_applies && scale_speedup < 2.5) shapes_ok = false;
  std::printf("\nshape check (%s):\n"
              "  [1] warm median latency < cold median latency\n"
              "  [2] warm queries hit the cache and read 0 sidecar bytes\n"
              "  [3] daemon verdicts match the one-shot comparator\n"
              "  [4] every streamed WATCH push verified clean against its "
              "reference (no false alert)\n"
              "  [5] fabric served every sharded request; aggregate "
              "throughput >= 2.5x the blocking baseline (measured %.2fx%s)\n",
              shapes_ok ? "PASS" : "CHECK FAILED", scale_speedup,
              scale_gate_applies
                  ? ""
                  : strprintf(", ratio gate skipped: %u core(s) < %d workers",
                              scale_cores, kScaleWorkers)
                        .c_str());

  if (!artifact_path.empty()) {
    const std::string config = strprintf(
        "%s checkpoint, %s chunks, eps=%g, 2 workers",
        format_size(pair.data_bytes).c_str(), format_size(chunk).c_str(),
        eps);
    const std::vector<bench::TrajectoryRow> trajectory = {
        {"svc_compare_cold", config, cold_stats.median_ms, cold_stats.p90_ms,
         cold_sidecar_bytes},
        {"svc_compare_warm", config, warm_stats.median_ms, warm_stats.p90_ms,
         warm_metadata_bytes},
        {"svc_watch_push",
         strprintf("%s frontier, %s chunks, eps=%g, streamed deltas",
                   format_size(watch_data_bytes).c_str(),
                   format_size(chunk).c_str(), eps),
         watch_stats.median_ms, watch_stats.p90_ms, delta_payload_bytes},
        {"svc_request_phase",
         strprintf("six-phase attributed sum per COMPARE, %zu requests",
                   attributed_ms.size()),
         phase_stats.median_ms, phase_stats.p90_ms, pair.data_bytes},
        // median = fabric cell wall, p90 = blocking baseline wall: the row
        // tracks both ends of the saturation matrix over time.
        {"svc_scaleout",
         strprintf("%d workers x 8 conns x 4 pipeline vs 1x1x1, %d shard "
                   "pairs, %s checkpoints, warm, %.2fx on %u core(s)",
                   kScaleWorkers, kScalePairs,
                   format_size(scale_values * sizeof(float)).c_str(),
                   scale_speedup, scale_cores),
         fabric_rps > 0 ? 1000.0 * kScaleRequests / fabric_rps : 0,
         baseline_rps > 0 ? 1000.0 * kScaleRequests / baseline_rps : 0,
         static_cast<std::uint64_t>(kScaleRequests) * scale_values *
             sizeof(float)},
    };
    const auto written =
        bench::write_trajectory(artifact_path, "service", trajectory);
    if (!written.is_ok()) {
      std::fprintf(stderr, "error: artifact write failed: %s\n",
                   written.to_string().c_str());
      return 1;
    }
    std::printf("\nwrote trajectory artifact to %s\n",
                artifact_path.c_str());
  }

  if (!json_path.empty()) {
    std::string out = "{\"benchmarks\": [";
    bool first_row = true;
    for (const Row& row : rows) {
      if (!first_row) out += ',';
      first_row = false;
      out += "{\"name\": ";
      json_append_string(out, row.name);
      out += ", \"median_ms\": ";
      json_append_number(out, row.median_ms);
      out += ", \"requests_per_second\": ";
      json_append_number(out, row.requests_per_second);
      out += ", \"metadata_bytes_read\": ";
      json_append_number(out, row.metadata_bytes_read);
      out += '}';
    }
    out += "],\n\"metrics\": ";
    out += telemetry::MetricsRegistry::global().snapshot().to_json();
    out += "}\n";
    const auto written = repro::write_file(
        json_path, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(out.data()),
                       out.size()));
    if (!written.is_ok()) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote benchmark summary to %s\n", json_path.c_str());
  }
  return shapes_ok ? 0 : 1;
}
