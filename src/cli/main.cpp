// repro-cli: offline capture and comparison tool (the paper's contribution
// (2) exposes the runtime both as a library API and as a command line tool).
//
//   repro-cli simulate  --out DIR --run ID [--particles N --steps S ...]
//   repro-cli tree      CKPT [--chunk 64K --eps 1e-6 --out FILE.rmrk]
//   repro-cli compare   A.ckpt B.ckpt [--eps 1e-6 --backend uring ...]
//   repro-cli history   ROOT RUN_A RUN_B [--eps 1e-6 --stop-early]
//   repro-cli timeline  ROOT RUN_A RUN_B [--json --ansi --ledger-out F]
//   repro-cli inspect   FILE.(ckpt|rmrk)
//
// Exit codes follow the diff(1) convention so scripts can branch on the
// verdict: 0 = within bound, 1 = divergence found, 2 = usage or runtime
// error.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "baseline/allclose.hpp"
#include "baseline/direct.hpp"
#include "ckpt/capture.hpp"
#include "ckpt/delta_store.hpp"
#include "cli/args.hpp"
#include "common/bytes.hpp"
#include "common/fs.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "compare/comparator.hpp"
#include "compare/fields.hpp"
#include "diverge/ledger.hpp"
#include "diverge/timeline.hpp"
#include "merkle/compare.hpp"
#include "merkle/proof.hpp"
#include "sim/hacc_lite.hpp"
#include "merkle/nodestore.hpp"
#include "svc/client.hpp"
#include "svc/monitor.hpp"
#include "svc/router.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"
#include "telemetry/json_parse.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/report.hpp"
#include "telemetry/resource_sampler.hpp"
#include "telemetry/trace.hpp"

namespace repro::cli {
namespace {

/// Set by run() when --metrics-out is present; commands enrich it with
/// their verdict, key numbers and phase timers. run() attaches the global
/// metrics snapshot and publishes the document after the command returns.
telemetry::RunReport* g_run_report = nullptr;

void print_usage() {
  std::puts(
      "repro-cli — scalable capture and comparison of intermediate "
      "multi-run results\n"
      "\n"
      "  repro-cli simulate --out DIR --run ID [--particles N] [--steps S]\n"
      "            [--mesh M] [--rank R] [--capture-every K]\n"
      "            [--noise-seed S] [--noise-start N] [--jitter X]\n"
      "            [--chunk 64K] [--eps 1e-6]\n"
      "      run the haccette mini-app, capturing checkpoints + metadata;\n"
      "      --noise-start delays nondeterminism until iteration N\n"
      "\n"
      "  repro-cli tree CKPT [--chunk 64K] [--eps 1e-6] [--block 4]\n"
      "            [--out FILE.rmrk]\n"
      "      build Merkle metadata (an RMF2 sidecar) for an existing\n"
      "      checkpoint\n"
      "\n"
      "  repro-cli compare A.ckpt B.ckpt [--eps 1e-6] [--chunk 64K]\n"
      "            [--backend uring|mmap|pread|threads] [--diffs N]\n"
      "            [--method ours|direct|allclose] [--ledger-out FILE]\n"
      "      compare two checkpoints within the error bound\n"
      "\n"
      "  every subcommand also accepts:\n"
      "    --trace-out PATH    write a Chrome trace-event JSON (Perfetto)\n"
      "                        with live resource counter samples (RSS,\n"
      "                        CPU, io_uring depth; --sample-period-ms P)\n"
      "    --metrics-out PATH  write a structured run report with the\n"
      "                        metrics snapshot, phase timers and verdict\n"
      "\n"
      "  repro-cli history ROOT RUN_A RUN_B [--eps 1e-6] [--stop-early]\n"
      "            [--ragged] [--ledger-out FILE]\n"
      "      compare two runs' checkpoint histories, report first "
      "divergence\n"
      "\n"
      "  repro-cli timeline ROOT RUN_A RUN_B [--eps 1e-6] [--json]\n"
      "            [--ansi] [--heatmap-width W] [--ledger-out FILE]\n"
      "      render an iteration x field divergence timeline with\n"
      "      chunk-space heatmaps (tolerates ragged histories)\n"
      "\n"
      "  repro-cli inspect FILE\n"
      "      print checkpoint or metadata file structure\n"
      "\n"
      "  repro-cli info SIDECAR\n"
      "      print a sidecar's format version, section table, and\n"
      "      per-tree summary (see docs/FORMATS.md)\n"
      "\n"
      "  repro-cli fields A.ckpt B.ckpt [--bounds X=1e-6,PHI=1e-2]\n"
      "            [--default-eps 1e-6] [--chunk 16K]\n"
      "      compare field by field under per-field error bounds\n"
      "\n"
      "  repro-cli prove CKPT --index I [--chunk 64K] [--eps 1e-6]\n"
      "            [--out FILE.rprf]\n"
      "      emit an inclusion proof for chunk I (prints the root to pin)\n"
      "\n"
      "  repro-cli verify PROOF.rprf CKPT --root HEX [--chunk 64K]\n"
      "            [--eps 1e-6]\n"
      "      check a chunk of CKPT against a pinned root via the proof\n"
      "\n"
      "  repro-cli delta append ROOT RUN RANK ITER CKPT [--chunk 64K]\n"
      "  repro-cli delta timeline ROOT RUN_A RUN_B RANK [--json]\n"
      "            [--eps 1e-6]\n"
      "  repro-cli delta reconstruct ROOT RUN RANK ITER OUT.bin ...\n"
      "  repro-cli delta stats ROOT RUN RANK ...\n"
      "      delta-compacted checkpoint history store\n"
      "\n"
      "  repro-cli serve (--socket PATH | --port N) [--cache-bytes 256M]\n"
      "            [--cache-shards 8] [--workers 2] [--max-inflight 8]\n"
      "            [--request-timeout-ms 30000] [--eps 1e-6]\n"
      "            [--backend uring|mmap|pread|threads]\n"
      "            [--alert-out FILE] [--max-watch-sessions 64]\n"
      "            [--metrics-port N] [--metrics-flush-ms 10000]\n"
      "            [--access-log FILE] [--slow-request-ms 1000]\n"
      "      run the reprod compare daemon: answers COMPARE/TIMELINE\n"
      "      queries from a sharded LRU metadata cache and hosts live\n"
      "      WATCH divergence sessions; drains cleanly on SIGTERM or a\n"
      "      SHUTDOWN frame (see docs/SERVICE.md). --alert-out collects\n"
      "      first-divergence alerts (JSONL); --metrics-port exposes the\n"
      "      Prometheus text exposition on a loopback TCP port; with\n"
      "      --metrics-out a snapshot is also flushed every\n"
      "      --metrics-flush-ms while serving. --access-log appends one\n"
      "      repro.svc.access v1 JSON record per request with the\n"
      "      per-phase latency breakdown; requests at or beyond\n"
      "      --slow-request-ms wall time are flagged slow\n"
      "\n"
      "  repro-cli route (--socket PATH | --port N)\n"
      "            --workers EP[=W],EP[=W],... [--health-interval-ms 250]\n"
      "            [--upstream-timeout-ms 30000] [--pool-per-worker 4]\n"
      "            [--access-log FILE] [--max-frame-bytes N]\n"
      "      run the reprod-router front proxy: shards requests over a\n"
      "      worker pool by rendezvous-hashed run id, with PING health\n"
      "      checks, ejection + backoff re-admission, and streamed\n"
      "      TIMELINE_CHUNK passthrough (docs/SERVICE.md \"Scale-out\n"
      "      topology\"). Worker endpoints are unix socket paths or\n"
      "      host:port, with an optional =WEIGHT ring weight\n"
      "\n"
      "  repro-cli watch ROOT RUN --reference REF [--rank 0]\n"
      "            (--socket PATH | --port N) [--eps 1e-6] [--chunk 64K]\n"
      "      stream RUN's captured checkpoints to a reprod daemon as a\n"
      "      WATCH session: Merkle digests only (full nodes first, deltas\n"
      "      after), one live verdict per iteration, exit 1 on the first\n"
      "      divergence against REF\n"
      "\n"
      "  repro-cli client (--socket PATH | --port N) OP [...]\n"
      "      one request against a running daemon; OP is one of:\n"
      "        ping | stats | shutdown | metrics\n"
      "        compare A.ckpt B.ckpt [--eps E]\n"
      "        timeline ROOT RUN_A RUN_B [--eps E] | load-run ROOT RUN\n"
      "      compare/timeline verdicts map onto exit codes 0/1 as usual;\n"
      "      stats also prints the daemon's build/uptime summary\n"
      "\n"
      "  repro-cli trace-merge A.json B.json --out MERGED.json\n"
      "      join two --trace-out files (e.g. a client's and the daemon's)\n"
      "      into one causal timeline: spans are matched by the propagated\n"
      "      trace_id, the clock offset is estimated from matched\n"
      "      request-span midpoints (PING round trips preferred), and the\n"
      "      merged view shows each source file as its own process\n"
      "      (docs/OBSERVABILITY.md)\n"
      "\n"
      "exit codes: 0 = within the error bound, 1 = divergence found,\n"
      "            2 = usage or runtime error\n");
}

int fail(const repro::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 2;
}

repro::Result<merkle::TreeParams> tree_params_from(const Args& args) {
  merkle::TreeParams params;
  REPRO_ASSIGN_OR_RETURN(params.chunk_bytes,
                         args.get_size("chunk", 64 * repro::kKiB));
  REPRO_ASSIGN_OR_RETURN(params.hash.error_bound, args.get_f64("eps", 1e-6));
  REPRO_ASSIGN_OR_RETURN(const std::uint64_t block, args.get_u64("block", 4));
  params.hash.values_per_block = static_cast<std::uint32_t>(block);
  return params;
}

int cmd_simulate(const Args& args) {
  if (!args.has("out") || !args.has("run")) {
    std::fprintf(stderr, "simulate requires --out DIR and --run ID\n");
    return 2;
  }
  sim::SimConfig config;
  auto particles = args.get_u64("particles", 1ULL << 15);
  if (!particles.is_ok()) return fail(particles.status());
  config.num_particles = particles.value();
  auto steps = args.get_u64("steps", 50);
  if (!steps.is_ok()) return fail(steps.status());
  config.steps = static_cast<std::uint32_t>(steps.value());
  auto mesh = args.get_u64("mesh", 32);
  if (!mesh.is_ok()) return fail(mesh.status());
  config.mesh_dim = static_cast<std::uint32_t>(mesh.value());
  auto seed = args.get_u64("seed", 12345);
  if (!seed.is_ok()) return fail(seed.status());
  auto rank = args.get_u64("rank", 0);
  if (!rank.is_ok()) return fail(rank.status());
  // Each rank simulates a distinct particle population (seed offset), so a
  // multi-rank history has per-rank payloads that still align across runs.
  config.seed = seed.value() + rank.value();

  auto noise_seed = args.get_u64("noise-seed", 0);
  if (!noise_seed.is_ok()) return fail(noise_seed.status());
  auto jitter = args.get_f64("jitter", 0.0);
  if (!jitter.is_ok()) return fail(jitter.status());
  auto noise_start = args.get_u64("noise-start", 0);
  if (!noise_start.is_ok()) return fail(noise_start.status());
  if (noise_seed.value() != 0 || jitter.value() > 0) {
    config.noise.enabled = true;
    config.noise.run_seed = noise_seed.value() + rank.value();
    config.noise.jitter_magnitude = jitter.value();
    config.noise.start_iteration = noise_start.value();
  }

  auto capture_every = args.get_u64("capture-every", 10);
  if (!capture_every.is_ok()) return fail(capture_every.status());
  std::vector<std::uint64_t> capture_iterations;
  for (std::uint64_t it = capture_every.value(); it <= config.steps;
       it += capture_every.value()) {
    capture_iterations.push_back(it);
  }

  auto tree = tree_params_from(args);
  if (!tree.is_ok()) return fail(tree.status());

  const std::string run_id = args.get("run", "run");
  ckpt::HistoryCatalog catalog{args.get("out", ".")};
  ckpt::CaptureOptions capture_options;
  capture_options.tree = tree.value();
  repro::TempDir local{"repro-cli-local"};
  ckpt::CaptureEngine engine(local.path(), catalog, capture_options);

  sim::HaccLite app(config);
  repro::Status status = app.initialize();
  if (!status.is_ok()) return fail(status);

  status = app.run(capture_iterations, [&](std::uint64_t iteration) {
    ckpt::CheckpointWriter writer("haccette", run_id, iteration,
                                  static_cast<std::uint32_t>(rank.value()));
    REPRO_RETURN_IF_ERROR(app.add_checkpoint_fields(writer));
    return engine.capture(writer);
  });
  if (!status.is_ok()) return fail(status);
  status = engine.wait_all();
  if (!status.is_ok()) return fail(status);

  const auto& stats = engine.stats();
  std::printf("captured %llu checkpoints (%s data, %s metadata) to %s\n",
              static_cast<unsigned long long>(stats.checkpoints_captured),
              repro::format_size(stats.bytes_captured).c_str(),
              repro::format_size(stats.metadata_bytes).c_str(),
              catalog.root().c_str());
  return 0;
}

int cmd_tree(const Args& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "tree requires a checkpoint path\n");
    return 2;
  }
  const std::filesystem::path ckpt_path = args.positional()[1];
  auto params = tree_params_from(args);
  if (!params.is_ok()) return fail(params.status());

  auto reader = ckpt::CheckpointReader::open(ckpt_path);
  if (!reader.is_ok()) return fail(reader.status());
  auto data = reader.value().read_data();
  if (!data.is_ok()) return fail(data.status());

  merkle::TreeBuilder builder(params.value(), par::Exec::parallel());
  auto tree = builder.build(data.value());
  if (!tree.is_ok()) return fail(tree.status());

  const std::filesystem::path out =
      args.get("out", ckpt_path.string() + ".rmrk");
  const repro::Status saved = merkle::save_flat(tree.value(), out);
  if (!saved.is_ok()) return fail(saved);

  std::printf("wrote %s: %llu chunks of %s, eps=%g, %s metadata (%.2f%% of "
              "checkpoint)\n",
              out.c_str(),
              static_cast<unsigned long long>(tree.value().num_chunks()),
              repro::format_size(params.value().chunk_bytes).c_str(),
              params.value().hash.error_bound,
              repro::format_size(tree.value().metadata_bytes()).c_str(),
              100.0 * static_cast<double>(tree.value().metadata_bytes()) /
                  static_cast<double>(data.value().size()));
  return 0;
}

int cmd_compare(const Args& args) {
  if (args.positional().size() < 3) {
    std::fprintf(stderr, "compare requires two checkpoint paths\n");
    return 2;
  }
  const std::filesystem::path path_a = args.positional()[1];
  const std::filesystem::path path_b = args.positional()[2];
  auto eps = args.get_f64("eps", 1e-6);
  if (!eps.is_ok()) return fail(eps.status());
  const std::string method = args.get("method", "ours");

  if (method == "allclose") {
    baseline::AllCloseOptions options;
    options.atol = eps.value();
    auto report = baseline::allclose_files(path_a, path_b, options);
    if (!report.is_ok()) return fail(report.status());
    std::printf("allclose: %s (%llu of %llu values exceed %g) in %.3fs "
                "(%s)\n",
                report.value().all_close ? "PASS" : "FAIL",
                static_cast<unsigned long long>(
                    report.value().values_exceeding),
                static_cast<unsigned long long>(
                    report.value().values_compared),
                options.atol, report.value().total_seconds,
                repro::format_throughput(
                    report.value().throughput_bytes_per_second())
                    .c_str());
    return report.value().all_close ? 0 : 1;
  }

  auto backend = io::parse_backend(args.get("backend", "uring"));
  if (!backend.is_ok()) return fail(backend.status());
  auto diffs = args.get_u64("diffs", 10);
  if (!diffs.is_ok()) return fail(diffs.status());
  const std::string ledger_out = args.get("ledger-out", "");

  cmp::CompareReport report;
  if (method == "direct") {
    baseline::DirectOptions options;
    options.error_bound = eps.value();
    options.backend = backend.value();
    options.collect_diffs = diffs.value() > 0;
    options.max_diffs = diffs.value();
    auto result = baseline::direct_compare(path_a, path_b, options);
    if (!result.is_ok()) return fail(result.status());
    report = std::move(result).value();
  } else if (method == "ours") {
    cmp::CompareOptions options;
    options.error_bound = eps.value();
    options.backend = backend.value();
    options.collect_diffs = diffs.value() > 0;
    options.max_diffs = diffs.value();
    options.collect_field_stats = !ledger_out.empty();
    auto params = tree_params_from(args);
    if (!params.is_ok()) return fail(params.status());
    options.tree = params.value();
    auto result = cmp::compare_files(path_a, path_b, options);
    if (!result.is_ok()) return fail(result.status());
    report = std::move(result).value();
  } else {
    std::fprintf(stderr, "unknown --method '%s'\n", method.c_str());
    return 2;
  }

  std::printf("%s: %llu values exceed eps=%g", method.c_str(),
              static_cast<unsigned long long>(report.values_exceeding),
              eps.value());
  if (report.chunks_total > 0) {
    std::printf(" (%llu/%llu chunks flagged, %.2f%% of data re-read)",
                static_cast<unsigned long long>(report.chunks_flagged),
                static_cast<unsigned long long>(report.chunks_total),
                100.0 * report.fraction_data_flagged());
  }
  std::printf("\nruntime %.3fs, throughput %s\n", report.total_seconds,
              repro::format_throughput(report.throughput_bytes_per_second())
                  .c_str());
  for (const auto& name : report.timers.names()) {
    std::printf("  %-16s %.4fs\n", name.c_str(),
                report.timers.seconds(name));
  }
  if (report.io_recovery_active()) {
    std::printf("io recovery: %llu retries, %llu short reads, "
                "%llu interrupts, %llu backend fallbacks\n",
                static_cast<unsigned long long>(report.io_retries),
                static_cast<unsigned long long>(report.io_short_reads),
                static_cast<unsigned long long>(report.io_interrupts),
                static_cast<unsigned long long>(report.io_fallbacks));
  } else {
    std::printf("io clean; full counters via --metrics-out=PATH\n");
  }

  if (g_run_report != nullptr) {
    g_run_report->set_verdict(report.values_exceeding == 0 ? "within-bound"
                                                           : "diverged");
    g_run_report->add_info("method", method);
    g_run_report->add_info("file_a", path_a.string());
    g_run_report->add_info("file_b", path_b.string());
    g_run_report->add_value("error_bound", eps.value());
    g_run_report->add_value("data_bytes",
                            static_cast<double>(report.data_bytes));
    g_run_report->add_value("chunks_total",
                            static_cast<double>(report.chunks_total));
    g_run_report->add_value("chunks_flagged",
                            static_cast<double>(report.chunks_flagged));
    g_run_report->add_value("values_compared",
                            static_cast<double>(report.values_compared));
    g_run_report->add_value("values_exceeding",
                            static_cast<double>(report.values_exceeding));
    g_run_report->add_value("io_retries",
                            static_cast<double>(report.io_retries));
    g_run_report->add_value("io_fallbacks",
                            static_cast<double>(report.io_fallbacks));
    g_run_report->add_value("total_seconds", report.total_seconds);
    g_run_report->add_timers(report.timers);
  }
  if (!report.diffs.empty()) {
    std::printf("sample differences:\n");
    for (const auto& diff : report.diffs) {
      std::printf("  %s[%llu]: %.8g vs %.8g\n",
                  diff.field.empty() ? "?" : diff.field.c_str(),
                  static_cast<unsigned long long>(diff.element_index),
                  diff.value_a, diff.value_b);
    }
  }
  if (!ledger_out.empty()) {
    diverge::DivergenceLedger ledger(path_a.string(), path_b.string(),
                                     eps.value());
    ckpt::CheckpointPair pair;
    pair.run_a.run_id = path_a.string();
    pair.run_a.checkpoint_path = path_a;
    pair.run_b.run_id = path_b.string();
    pair.run_b.checkpoint_path = path_b;
    ledger.add_pair(pair, report);
    const repro::Status status = ledger.write_jsonl(ledger_out);
    if (!status.is_ok()) return fail(status);
    std::printf("ledger written to %s (%zu records)\n", ledger_out.c_str(),
                ledger.records().size());
  }
  return report.values_exceeding == 0 ? 0 : 1;
}

int cmd_history(const Args& args) {
  if (args.positional().size() < 4) {
    std::fprintf(stderr, "history requires ROOT RUN_A RUN_B\n");
    return 2;
  }
  ckpt::HistoryCatalog catalog{args.positional()[1]};
  auto eps = args.get_f64("eps", 1e-6);
  if (!eps.is_ok()) return fail(eps.status());

  cmp::HistoryOptions options;
  options.pair_options.error_bound = eps.value();
  options.stop_at_first_divergence = args.has("stop-early");
  options.allow_ragged = args.has("ragged");
  const std::string ledger_out = args.get("ledger-out", "");
  options.pair_options.collect_field_stats = !ledger_out.empty();
  auto params = tree_params_from(args);
  if (!params.is_ok()) return fail(params.status());
  options.pair_options.tree = params.value();

  auto history = cmp::compare_histories(catalog, args.positional()[2],
                                        args.positional()[3], options);
  if (!history.is_ok()) return fail(history.status());

  for (const auto& ref : history.value().only_in_a) {
    std::fprintf(stderr, "warning: iter%llu/rank%u exists only in %s\n",
                 static_cast<unsigned long long>(ref.iteration), ref.rank,
                 args.positional()[2].c_str());
  }
  for (const auto& ref : history.value().only_in_b) {
    std::fprintf(stderr, "warning: iter%llu/rank%u exists only in %s\n",
                 static_cast<unsigned long long>(ref.iteration), ref.rank,
                 args.positional()[3].c_str());
  }

  repro::TextTable table({"iteration", "rank", "values>eps", "chunks flagged",
                          "data re-read"});
  for (const auto& [pair, report] : history.value().pairs) {
    table.add_row({std::to_string(pair.run_a.iteration),
                   std::to_string(pair.run_a.rank),
                   std::to_string(report.values_exceeding),
                   std::to_string(report.chunks_flagged) + "/" +
                       std::to_string(report.chunks_total),
                   repro::strprintf("%.2f%%",
                                    100.0 * report.fraction_data_flagged())});
  }
  table.print();
  const bool diverged =
      history.value().first_divergent_iteration.has_value();
  if (g_run_report != nullptr) {
    g_run_report->set_verdict(diverged ? "diverged" : "within-bound");
    g_run_report->add_info("run_a", args.positional()[2]);
    g_run_report->add_info("run_b", args.positional()[3]);
    g_run_report->add_value("error_bound", eps.value());
    g_run_report->add_value(
        "pairs_compared", static_cast<double>(history.value().pairs.size()));
    g_run_report->add_value("total_seconds", history.value().total_seconds);
    if (diverged) {
      g_run_report->add_value(
          "first_divergent_iteration",
          static_cast<double>(*history.value().first_divergent_iteration));
    }
    for (const auto& [pair, report] : history.value().pairs) {
      g_run_report->add_timers(report.timers);
    }
  }
  if (!ledger_out.empty()) {
    diverge::DivergenceLedger ledger(args.positional()[2],
                                     args.positional()[3], eps.value());
    ledger.add_history(history.value());
    const repro::Status status = ledger.write_jsonl(ledger_out);
    if (!status.is_ok()) return fail(status);
    std::printf("ledger written to %s (%zu records)\n", ledger_out.c_str(),
                ledger.records().size());
  }
  if (diverged) {
    std::printf("first divergence: iteration %llu (rank %u)\n",
                static_cast<unsigned long long>(
                    *history.value().first_divergent_iteration),
                *history.value().first_divergent_rank);
    return 1;
  }
  std::printf("histories agree within eps=%g\n", eps.value());
  return 0;
}

int cmd_timeline(const Args& args) {
  if (args.positional().size() < 4) {
    std::fprintf(stderr, "timeline requires ROOT RUN_A RUN_B\n");
    return 2;
  }
  ckpt::HistoryCatalog catalog{args.positional()[1]};
  const std::string& run_a = args.positional()[2];
  const std::string& run_b = args.positional()[3];
  auto eps = args.get_f64("eps", 1e-6);
  if (!eps.is_ok()) return fail(eps.status());
  auto heatmap_width = args.get_u64("heatmap-width", 64);
  if (!heatmap_width.is_ok()) return fail(heatmap_width.status());

  // Forensics wants the whole picture: per-field stats always on, compare
  // every surviving pair of a ragged history instead of refusing.
  cmp::HistoryOptions options;
  options.pair_options.error_bound = eps.value();
  options.pair_options.collect_field_stats = true;
  options.allow_ragged = true;
  auto params = tree_params_from(args);
  if (!params.is_ok()) return fail(params.status());
  options.pair_options.tree = params.value();

  auto history = cmp::compare_histories(catalog, run_a, run_b, options);
  if (!history.is_ok()) return fail(history.status());

  diverge::DivergenceLedger ledger(run_a, run_b, eps.value());
  ledger.add_history(history.value());

  const std::string ledger_out = args.get("ledger-out", "");
  if (!ledger_out.empty()) {
    const repro::Status status = ledger.write_jsonl(ledger_out);
    if (!status.is_ok()) return fail(status);
  }

  for (const auto& ref : history.value().only_in_a) {
    std::fprintf(stderr, "warning: iter%llu/rank%u exists only in %s\n",
                 static_cast<unsigned long long>(ref.iteration), ref.rank,
                 run_a.c_str());
  }
  for (const auto& ref : history.value().only_in_b) {
    std::fprintf(stderr, "warning: iter%llu/rank%u exists only in %s\n",
                 static_cast<unsigned long long>(ref.iteration), ref.rank,
                 run_b.c_str());
  }

  diverge::TimelineOptions timeline_options;
  timeline_options.json = args.has("json");
  timeline_options.ansi = args.has("ansi");
  timeline_options.heatmap_width =
      static_cast<std::size_t>(heatmap_width.value());
  const std::string rendered =
      diverge::render_timeline(ledger, timeline_options);
  std::fputs(rendered.c_str(), stdout);

  const diverge::LedgerSummary summary = ledger.summarize();
  const bool diverged = summary.first_divergent_iteration.has_value();
  if (g_run_report != nullptr) {
    g_run_report->set_verdict(diverged ? "diverged" : "within-bound");
    g_run_report->add_info("run_a", run_a);
    g_run_report->add_info("run_b", run_b);
    g_run_report->add_value("error_bound", eps.value());
    g_run_report->add_value(
        "pairs_compared", static_cast<double>(history.value().pairs.size()));
    g_run_report->add_value("ledger_records",
                            static_cast<double>(ledger.records().size()));
    if (diverged) {
      g_run_report->add_value(
          "first_divergent_iteration",
          static_cast<double>(*summary.first_divergent_iteration));
    }
    for (const auto& [pair, report] : history.value().pairs) {
      g_run_report->add_timers(report.timers);
    }
  }
  if (!ledger_out.empty() && !timeline_options.json) {
    // stdout stays pure JSON under --json; the ledger note would corrupt it.
    std::printf("ledger written to %s (%zu records)\n", ledger_out.c_str(),
                ledger.records().size());
  }
  return diverged ? 1 : 0;
}

int cmd_inspect(const Args& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "inspect requires a file path\n");
    return 2;
  }
  const std::filesystem::path path = args.positional()[1];
  if (path.extension() == ".rmrk") {
    auto sidecar = merkle::MappedBundle::open(path);
    if (!sidecar.is_ok()) return fail(sidecar.status());
    auto tree = sidecar.value().sole_tree();
    if (!tree.is_ok()) return fail(tree.status());
    const merkle::TreeView& t = tree.value();
    std::printf("merkle metadata %s\n", path.c_str());
    std::printf("  data size     %s\n",
                repro::format_size(t.data_bytes()).c_str());
    std::printf("  chunk size    %s\n",
                repro::format_size(t.params().chunk_bytes).c_str());
    std::printf("  value kind    %.*s\n",
                static_cast<int>(
                    merkle::value_kind_name(t.params().value_kind).size()),
                merkle::value_kind_name(t.params().value_kind).data());
    std::printf("  error bound   %g\n", t.params().hash.error_bound);
    std::printf("  chunks        %llu (depth %u)\n",
                static_cast<unsigned long long>(t.num_chunks()),
                t.layout().depth);
    std::printf("  root digest   %s\n", t.root().hex().c_str());
    return 0;
  }

  auto reader = ckpt::CheckpointReader::open(path);
  if (!reader.is_ok()) return fail(reader.status());
  const auto& info = reader.value().info();
  std::printf("checkpoint %s\n", path.c_str());
  std::printf("  application   %s\n  run           %s\n",
              info.application.c_str(), info.run_id.c_str());
  std::printf("  iteration     %llu\n  rank          %u\n",
              static_cast<unsigned long long>(info.iteration), info.rank);
  repro::TextTable table({"field", "type", "elements", "bytes"});
  for (const auto& field : info.fields) {
    table.add_row({field.name, std::string{merkle::value_kind_name(field.kind)},
                   std::to_string(field.element_count),
                   repro::format_size(field.byte_size())});
  }
  table.print();
  return 0;
}

const char* section_name(std::uint32_t id) {
  switch (static_cast<merkle::SectionId>(id)) {
    case merkle::SectionId::kTreeTable: return "tree-table";
    case merkle::SectionId::kNames: return "names";
    case merkle::SectionId::kNodes: return "nodes";
    case merkle::SectionId::kDelta: return "delta";
  }
  return "unknown";
}

/// `repro-cli info SIDECAR`: header/section structure and a per-tree
/// summary. Unlike inspect (which reads one tree), info reports what is
/// physically on disk — the debugging entry point for format questions.
int cmd_info(const Args& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "info requires a sidecar path\n");
    return 2;
  }
  const std::filesystem::path path = args.positional()[1];
  auto bytes = repro::read_file(path);
  if (!bytes.is_ok()) return fail(bytes.status());
  // Legacy v1 files, unknown versions and foreign magic fail here with the
  // parse-layer error that names the problem.
  auto view = merkle::BundleView::parse(bytes.value());
  if (!view.is_ok()) return fail(view.status());
  std::printf("sidecar %s\n", path.c_str());
  std::printf("  format        RMF2 (flat, mmap-able)\n");
  std::printf("  file size     %s\n",
              repro::format_size(bytes.value().size()).c_str());
  std::printf("  version       %u\n", merkle::kFlatVersion);
  std::printf("  sections      %zu\n", view.value().sections().size());
  for (const auto& section : view.value().sections()) {
    std::printf("    %-11s offset=%-8llu length=%-10llu "
                "checksum=%016llx\n",
                section_name(section.id),
                static_cast<unsigned long long>(section.offset),
                static_cast<unsigned long long>(section.length),
                static_cast<unsigned long long>(section.checksum));
  }
  std::printf("  trees         %zu\n", view.value().size());
  for (std::size_t i = 0; i < view.value().size(); ++i) {
    const merkle::TreeView& tree = view.value().tree(i);
    const std::string_view name = view.value().name(i);
    std::printf("    %s: %llu chunks of %s, eps=%g, root %s\n",
                name.empty() ? "(unnamed)" : std::string(name).c_str(),
                static_cast<unsigned long long>(tree.num_chunks()),
                repro::format_size(tree.params().chunk_bytes).c_str(),
                tree.params().hash.error_bound, tree.root().hex().c_str());
  }
  if (view.value().has_delta()) {
    auto delta = view.value().delta();
    if (!delta.is_ok()) return fail(delta.status());
    std::printf("  differential  iteration %llu vs %llu: %zu changed "
                "nodes (%zu chunks) of %llu leaves\n",
                static_cast<unsigned long long>(delta.value().iteration),
                static_cast<unsigned long long>(delta.value().base_iteration),
                delta.value().nodes.size(),
                delta.value().changed_chunks().size(),
                static_cast<unsigned long long>(delta.value().num_leaves));
    if (view.value().size() == 0) {
      std::printf("  note: delta-only sidecar — trees resolve against "
                  "iter%llu.rmrk in the same directory\n",
                  static_cast<unsigned long long>(
                      delta.value().base_iteration));
    }
  }
  return 0;
}

/// Parse "X=1e-6,PHI=1e-2" into a field->bound map.
repro::Result<std::map<std::string, double, std::less<>>> parse_bounds(
    const std::string& text) {
  std::map<std::string, double, std::less<>> bounds;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::size_t equals = text.find('=', pos);
    if (equals == std::string::npos || equals >= comma) {
      return repro::invalid_argument(
          "--bounds expects FIELD=EPS[,FIELD=EPS...]");
    }
    const std::string name = text.substr(pos, equals - pos);
    try {
      bounds[name] = std::stod(text.substr(equals + 1, comma - equals - 1));
    } catch (const std::exception&) {
      return repro::invalid_argument("bad bound for field " + name);
    }
    pos = comma + 1;
  }
  return bounds;
}

int cmd_fields(const Args& args) {
  if (args.positional().size() < 3) {
    std::fprintf(stderr, "fields requires two checkpoint paths\n");
    return 2;
  }
  cmp::FieldCompareOptions options;
  auto default_eps = args.get_f64("default-eps", 1e-6);
  if (!default_eps.is_ok()) return fail(default_eps.status());
  options.compare.error_bound = default_eps.value();
  auto chunk = args.get_size("chunk", 16 * repro::kKiB);
  if (!chunk.is_ok()) return fail(chunk.status());
  options.compare.tree.chunk_bytes = chunk.value();
  if (args.has("bounds")) {
    auto bounds = parse_bounds(args.get("bounds", ""));
    if (!bounds.is_ok()) return fail(bounds.status());
    options.field_bounds = std::move(bounds).value();
  }
  auto backend = io::parse_backend(args.get("backend", "uring"));
  if (!backend.is_ok()) return fail(backend.status());
  options.compare.backend = backend.value();

  const auto report = cmp::compare_fields(args.positional()[1],
                                          args.positional()[2], options);
  if (!report.is_ok()) return fail(report.status());

  repro::TextTable table({"field", "eps", "values>eps", "chunks flagged",
                          "data re-read"});
  for (const auto& field : report.value().fields) {
    table.add_row({field.field, repro::strprintf("%g", field.error_bound),
                   std::to_string(field.values_exceeding),
                   std::to_string(field.chunks_flagged) + "/" +
                       std::to_string(field.chunks_total),
                   repro::format_size(field.bytes_read_per_file)});
  }
  table.print();
  std::printf("verdict: %s (%.3fs)\n",
              report.value().identical_within_bounds()
                  ? "all fields within their bounds"
                  : "DIVERGED",
              report.value().total_seconds);
  return report.value().identical_within_bounds() ? 0 : 1;
}

int cmd_prove(const Args& args) {
  if (args.positional().size() < 2 || !args.has("index")) {
    std::fprintf(stderr, "prove requires a checkpoint path and --index\n");
    return 2;
  }
  auto index = args.get_u64("index", 0);
  if (!index.is_ok()) return fail(index.status());
  auto params = tree_params_from(args);
  if (!params.is_ok()) return fail(params.status());

  auto reader = ckpt::CheckpointReader::open(args.positional()[1]);
  if (!reader.is_ok()) return fail(reader.status());
  auto data = reader.value().read_data();
  if (!data.is_ok()) return fail(data.status());
  auto tree = merkle::TreeBuilder(params.value(), par::Exec::parallel())
                  .build(data.value());
  if (!tree.is_ok()) return fail(tree.status());

  auto proof = merkle::prove_inclusion(tree.value(), index.value());
  if (!proof.is_ok()) return fail(proof.status());
  const std::filesystem::path out = args.get(
      "out", args.positional()[1] + ".chunk" +
                 std::to_string(index.value()) + ".rprf");
  const repro::Status saved =
      repro::write_file(out, proof.value().serialize());
  if (!saved.is_ok()) return fail(saved);
  std::printf("proof for chunk %llu written to %s (%zu bytes)\n"
              "pin this root: %s\n",
              static_cast<unsigned long long>(index.value()), out.c_str(),
              proof.value().serialize().size(),
              tree.value().root().hex().c_str());
  return 0;
}

int cmd_verify(const Args& args) {
  if (args.positional().size() < 3 || !args.has("root")) {
    std::fprintf(stderr,
                 "verify requires PROOF CKPT and --root HEX\n");
    return 2;
  }
  const std::string root_hex = args.get("root", "");
  if (root_hex.size() != 32) {
    std::fprintf(stderr, "--root must be 32 hex chars\n");
    return 2;
  }
  hash::Digest128 root;
  try {
    root.lo = std::stoull(root_hex.substr(0, 16), nullptr, 16);
    root.hi = std::stoull(root_hex.substr(16, 16), nullptr, 16);
  } catch (const std::exception&) {
    std::fprintf(stderr, "--root is not valid hex\n");
    return 2;
  }
  auto params = tree_params_from(args);
  if (!params.is_ok()) return fail(params.status());

  auto proof_bytes = repro::read_file(args.positional()[1]);
  if (!proof_bytes.is_ok()) return fail(proof_bytes.status());
  auto proof = merkle::InclusionProof::deserialize(proof_bytes.value());
  if (!proof.is_ok()) return fail(proof.status());

  auto reader = ckpt::CheckpointReader::open(args.positional()[2]);
  if (!reader.is_ok()) return fail(reader.status());
  auto data = reader.value().read_data();
  if (!data.is_ok()) return fail(data.status());
  const std::uint64_t begin =
      proof.value().chunk * params.value().chunk_bytes;
  if (begin >= data.value().size()) {
    std::fprintf(stderr, "proof's chunk lies outside this checkpoint\n");
    return 2;
  }
  const std::uint64_t length = std::min<std::uint64_t>(
      params.value().chunk_bytes, data.value().size() - begin);
  const repro::Status status = merkle::verify_chunk_data(
      proof.value(),
      std::span<const std::uint8_t>(data.value().data() + begin, length),
      params.value(), root);
  if (status.is_ok()) {
    std::printf("OK: chunk %llu of %s belongs to root %s (within eps)\n",
                static_cast<unsigned long long>(proof.value().chunk),
                args.positional()[2].c_str(), root_hex.c_str());
    return 0;
  }
  std::printf("REJECTED: %s\n", status.to_string().c_str());
  return 1;
}

int cmd_delta(const Args& args) {
  if (args.positional().size() < 5) {
    std::fprintf(stderr,
                 "delta requires a subcommand, store root, run and rank\n");
    return 2;
  }
  const std::string& action = args.positional()[1];
  const std::filesystem::path root = args.positional()[2];
  auto params = tree_params_from(args);
  if (!params.is_ok()) return fail(params.status());
  ckpt::DeltaStoreOptions options;
  options.tree = params.value();

  if (action == "timeline") {
    // delta timeline ROOT RUN_A RUN_B RANK: incremental divergence walk —
    // one full compare at the first common iteration, then only the chunks
    // the RMFD sidecars say moved (O(divergence), not O(iterations*tree)).
    if (args.positional().size() < 6) {
      std::fprintf(stderr, "delta timeline requires ROOT RUN_A RUN_B RANK\n");
      return 2;
    }
    std::uint64_t timeline_rank = 0;
    try {
      timeline_rank = std::stoull(args.positional()[5]);
    } catch (const std::exception&) {
      std::fprintf(stderr, "RANK must be an integer\n");
      return 2;
    }
    auto store_a = ckpt::DeltaStore::load(
        root, args.positional()[3],
        static_cast<std::uint32_t>(timeline_rank), options);
    if (!store_a.is_ok()) return fail(store_a.status());
    auto store_b = ckpt::DeltaStore::load(
        root, args.positional()[4],
        static_cast<std::uint32_t>(timeline_rank), options);
    if (!store_b.is_ok()) return fail(store_b.status());
    ckpt::TimelineStats timeline_stats;
    auto timeline = ckpt::incremental_timeline(store_a.value(),
                                               store_b.value(),
                                               &timeline_stats);
    if (!timeline.is_ok()) return fail(timeline.status());
    if (args.has("json")) {
      std::printf("{\"iterations\":%llu,\"node_visits\":%llu,"
                  "\"full_visit_equiv\":%llu,\"timeline\":[",
                  static_cast<unsigned long long>(timeline_stats.iterations),
                  static_cast<unsigned long long>(timeline_stats.node_visits),
                  static_cast<unsigned long long>(
                      timeline_stats.full_visit_equiv));
      for (std::size_t i = 0; i < timeline.value().size(); ++i) {
        std::printf("%s{\"iteration\":%llu,\"diverged_chunks\":%llu}",
                    i == 0 ? "" : ",",
                    static_cast<unsigned long long>(
                        timeline.value()[i].iteration),
                    static_cast<unsigned long long>(
                        timeline.value()[i].diverged_chunks));
      }
      std::printf("]}\n");
      return 0;
    }
    repro::TextTable table({"iteration", "diverged chunks"});
    for (const auto& entry : timeline.value()) {
      table.add_row({std::to_string(entry.iteration),
                     std::to_string(entry.diverged_chunks)});
    }
    table.print();
    std::printf("%llu node visits over %llu iterations (full re-compare "
                "would have visited %llu)\n",
                static_cast<unsigned long long>(timeline_stats.node_visits),
                static_cast<unsigned long long>(timeline_stats.iterations),
                static_cast<unsigned long long>(
                    timeline_stats.full_visit_equiv));
    return 0;
  }

  const std::string run = args.positional()[3];
  std::uint64_t rank = 0;
  try {
    rank = std::stoull(args.positional()[4]);
  } catch (const std::exception&) {
    std::fprintf(stderr, "RANK must be an integer\n");
    return 2;
  }

  auto store = ckpt::DeltaStore::load(root, run,
                                      static_cast<std::uint32_t>(rank),
                                      options);
  if (!store.is_ok()) return fail(store.status());

  if (action == "stats") {
    const ckpt::DeltaStoreStats& stats = store.value().stats();
    // load() only recovers iteration numbers, not historical stats; report
    // what is recoverable: the iteration list and on-disk footprint.
    std::uint64_t on_disk = 0;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             root / run / ("rank" + std::to_string(rank)))) {
      if (entry.is_regular_file()) on_disk += entry.file_size();
    }
    std::printf("delta store %s/%s/rank%llu: %zu iterations (%zu anchors), "
                "%s on disk\n",
                root.c_str(), run.c_str(),
                static_cast<unsigned long long>(rank),
                store.value().iterations().size(),
                store.value().anchors().size(),
                repro::format_size(on_disk).c_str());
    if (stats.captures > 0) {
      std::printf("session stats: %.2fx compaction, %.2fx metadata dedup "
                  "(%s vs %s full-per-iteration)\n",
                  stats.compaction_ratio(), stats.metadata_savings(),
                  repro::format_size(stats.metadata_bytes).c_str(),
                  repro::format_size(stats.metadata_full_bytes).c_str());
    }
    return 0;
  }

  if (args.positional().size() < 7) {
    std::fprintf(stderr, "delta %s requires ITER and a file path\n",
                 action.c_str());
    return 2;
  }
  std::uint64_t iteration = 0;
  try {
    iteration = std::stoull(args.positional()[5]);
  } catch (const std::exception&) {
    std::fprintf(stderr, "ITER must be an integer\n");
    return 2;
  }
  const std::filesystem::path file = args.positional()[6];

  if (action == "append") {
    auto reader = ckpt::CheckpointReader::open(file);
    if (!reader.is_ok()) return fail(reader.status());
    auto data = reader.value().read_data();
    if (!data.is_ok()) return fail(data.status());
    const repro::Status status =
        store.value().append(iteration, data.value());
    if (!status.is_ok()) return fail(status);
    const auto& stats = store.value().stats();
    std::printf("appended iteration %llu: %s raw -> %s stored this "
                "session\n",
                static_cast<unsigned long long>(iteration),
                repro::format_size(stats.raw_bytes).c_str(),
                repro::format_size(stats.stored_bytes).c_str());
    return 0;
  }
  if (action == "reconstruct") {
    auto data = store.value().reconstruct(iteration);
    if (!data.is_ok()) return fail(data.status());
    const repro::Status status = repro::write_file(file, data.value());
    if (!status.is_ok()) return fail(status);
    std::printf("reconstructed iteration %llu -> %s (%s)\n",
                static_cast<unsigned long long>(iteration), file.c_str(),
                repro::format_size(data.value().size()).c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown delta subcommand '%s'\n", action.c_str());
  return 2;
}

/// `repro-cli serve`: run the reprod compare daemon until SIGTERM/SIGINT
/// or a SHUTDOWN frame drains it.
int cmd_serve(const Args& args) {
  if (!args.has("socket") && !args.has("port")) {
    std::fprintf(stderr,
                 "serve requires --socket PATH or --port N (0 = ephemeral)\n");
    return 2;
  }
  svc::ServerOptions options;
  options.socket_path = args.get("socket", "");
  auto port = args.get_u64("port", 0);
  if (!port.is_ok()) return fail(port.status());
  options.port = static_cast<std::uint16_t>(port.value());
  auto cache_bytes = args.get_size("cache-bytes", 256 * repro::kMiB);
  if (!cache_bytes.is_ok()) return fail(cache_bytes.status());
  options.cache_bytes = cache_bytes.value();
  auto cache_shards = args.get_u64("cache-shards", 8);
  if (!cache_shards.is_ok()) return fail(cache_shards.status());
  options.cache_shards = cache_shards.value();
  auto workers = args.get_u64("workers", 2);
  if (!workers.is_ok()) return fail(workers.status());
  options.workers = workers.value();
  auto inflight = args.get_u64("max-inflight", 8);
  if (!inflight.is_ok()) return fail(inflight.status());
  options.max_inflight_per_client =
      static_cast<std::uint32_t>(inflight.value());
  auto timeout_ms = args.get_u64("request-timeout-ms", 30000);
  if (!timeout_ms.is_ok()) return fail(timeout_ms.status());
  options.request_timeout = std::chrono::milliseconds(timeout_ms.value());
  auto max_frame = args.get_size("max-frame-bytes", svc::kDefaultMaxFrameBytes);
  if (!max_frame.is_ok()) return fail(max_frame.status());
  options.max_frame_bytes = static_cast<std::uint32_t>(max_frame.value());

  auto eps = args.get_f64("eps", 1e-6);
  if (!eps.is_ok()) return fail(eps.status());
  auto backend = io::parse_backend(args.get("backend", "uring"));
  if (!backend.is_ok()) return fail(backend.status());
  auto params = tree_params_from(args);
  if (!params.is_ok()) return fail(params.status());
  options.compare.error_bound = eps.value();
  options.compare.backend = backend.value();
  options.compare.tree = params.value();
  options.alert_path = args.get("alert-out", "");
  auto watch_sessions = args.get_u64("max-watch-sessions", 64);
  if (!watch_sessions.is_ok()) return fail(watch_sessions.status());
  options.max_watch_sessions = watch_sessions.value();
  options.access_log_path = args.get("access-log", "");
  auto slow_ms = args.get_u64("slow-request-ms", 1000);
  if (!slow_ms.is_ok()) return fail(slow_ms.status());
  options.slow_request_ms = slow_ms.value();

  svc::Server server(std::move(options));
  repro::Status status = svc::install_signal_handlers(server);
  if (!status.is_ok()) return fail(status);
  status = server.start();
  if (!status.is_ok()) return fail(status);

  // Parsed before either sidecar thread starts: returning with a joinable
  // std::thread would abort the process.
  const std::string metrics_out = args.get("metrics-out", "");
  auto flush_ms = args.get_u64("metrics-flush-ms", 10000);
  if (!flush_ms.is_ok()) return fail(flush_ms.status());

  // Scrape endpoint: a loopback TCP listener that writes the Prometheus
  // text exposition and closes — no HTTP layer, so `nc 127.0.0.1 PORT`
  // (or any raw-TCP scraper) gets the page. Runs on its own thread; the
  // daemon's event loop never blocks on a slow scraper.
  std::atomic<bool> sidecars_stop{false};
  svc::Listener metrics_listener;
  std::thread metrics_thread;
  if (args.has("metrics-port")) {
    auto metrics_port = args.get_u64("metrics-port", 0);
    if (!metrics_port.is_ok()) return fail(metrics_port.status());
    status = metrics_listener.open(
        {}, "127.0.0.1", static_cast<std::uint16_t>(metrics_port.value()));
    if (!status.is_ok()) return fail(status);
    std::printf("metrics exposition on tcp:127.0.0.1:%u\n",
                metrics_listener.port());
    metrics_thread = std::thread([fd = metrics_listener.fd(), &sidecars_stop] {
      while (!sidecars_stop.load(std::memory_order_relaxed)) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 200) <= 0) continue;
        const int peer = ::accept(fd, nullptr, nullptr);
        if (peer < 0) continue;
        const std::string page = telemetry::render_prometheus(
            telemetry::MetricsRegistry::global().snapshot());
        (void)svc::send_all(
            peer, std::span(reinterpret_cast<const std::uint8_t*>(page.data()),
                            page.size()));
        ::shutdown(peer, SHUT_WR);
        ::close(peer);
      }
    });
  }

  // Periodic --metrics-out flush: the standard run() publish only fires
  // after serve() returns, which for a daemon is "never, until shutdown" —
  // a monitoring agent tailing the file would see nothing. Re-publish the
  // snapshot on a timer so the file tracks the live registry.
  std::thread flush_thread;
  if (!metrics_out.empty() && flush_ms.value() > 0) {
    flush_thread = std::thread([&sidecars_stop, &server, metrics_out,
                                period_ms = flush_ms.value()] {
      std::uint64_t slept = 0;
      while (!sidecars_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        slept += 50;
        if (slept < period_ms) continue;
        slept = 0;
        telemetry::RunReport snapshot("serve");
        snapshot.set_verdict("serving");
        snapshot.add_info("endpoint", server.endpoint());
        snapshot.set_metrics(telemetry::MetricsRegistry::global().snapshot());
        (void)snapshot.write_json(metrics_out);
      }
    });
  }

  std::printf("reprod listening on %s\n", server.endpoint().c_str());
  std::fflush(stdout);  // tests poll for this line before connecting
  status = server.serve();
  sidecars_stop.store(true, std::memory_order_relaxed);
  if (metrics_thread.joinable()) metrics_thread.join();
  if (flush_thread.joinable()) flush_thread.join();
  if (!status.is_ok()) return fail(status);

  const svc::CacheStats stats = server.cache().stats();
  std::printf("drained; cache: %llu hits, %llu misses, %llu evictions, "
              "%llu bytes resident\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions),
              static_cast<unsigned long long>(stats.bytes));
  if (g_run_report != nullptr) {
    g_run_report->set_verdict("drained");
    g_run_report->add_info("endpoint", server.endpoint());
    g_run_report->add_value("cache_hits", static_cast<double>(stats.hits));
    g_run_report->add_value("cache_misses",
                            static_cast<double>(stats.misses));
    g_run_report->add_value("cache_evictions",
                            static_cast<double>(stats.evictions));
    g_run_report->add_value("cache_bytes", static_cast<double>(stats.bytes));
  }
  return 0;
}

namespace {
svc::Router* g_router = nullptr;

void router_signal_handler(int) {
  if (g_router != nullptr) g_router->request_stop();
}

/// Parses a --workers value: comma-separated endpoints, each optionally
/// suffixed "=WEIGHT" (ring weight, default 1.0).
repro::Result<std::vector<svc::RingWorker>> parse_worker_list(
    std::string_view spec) {
  std::vector<svc::RingWorker> workers;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    std::string_view item = spec.substr(
        start, comma == std::string_view::npos ? spec.size() - start
                                               : comma - start);
    if (!item.empty()) {
      svc::RingWorker worker;
      const std::size_t eq = item.rfind('=');
      if (eq != std::string_view::npos) {
        const std::string weight_text(item.substr(eq + 1));
        char* end = nullptr;
        const double weight = std::strtod(weight_text.c_str(), &end);
        if (end == weight_text.c_str() || *end != '\0' || weight <= 0) {
          return repro::invalid_argument("bad worker weight: " +
                                         std::string(item));
        }
        worker.weight = weight;
        item = item.substr(0, eq);
      }
      worker.endpoint = std::string(item);
      workers.push_back(std::move(worker));
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (workers.empty()) {
    return repro::invalid_argument("--workers needs at least one endpoint");
  }
  return workers;
}
}  // namespace

/// `repro-cli route`: run the reprod-router front proxy until
/// SIGTERM/SIGINT or a SHUTDOWN frame drains the fabric (docs/SERVICE.md
/// "Scale-out topology").
int cmd_route(const Args& args) {
  if (!args.has("socket") && !args.has("port")) {
    std::fprintf(stderr,
                 "route requires --socket PATH or --port N (0 = ephemeral)\n");
    return 2;
  }
  if (!args.has("workers")) {
    std::fprintf(stderr, "route requires --workers EP[=W],EP[=W],...\n");
    return 2;
  }
  svc::RouterOptions options;
  options.socket_path = args.get("socket", "");
  auto port = args.get_u64("port", 0);
  if (!port.is_ok()) return fail(port.status());
  options.port = static_cast<std::uint16_t>(port.value());
  auto workers = parse_worker_list(args.get("workers", ""));
  if (!workers.is_ok()) return fail(workers.status());
  options.workers = std::move(workers).value();
  auto health_ms = args.get_u64("health-interval-ms", 250);
  if (!health_ms.is_ok()) return fail(health_ms.status());
  options.health_interval = std::chrono::milliseconds(health_ms.value());
  auto upstream_ms = args.get_u64("upstream-timeout-ms", 30000);
  if (!upstream_ms.is_ok()) return fail(upstream_ms.status());
  options.upstream_timeout = std::chrono::milliseconds(upstream_ms.value());
  auto pool = args.get_u64("pool-per-worker", 4);
  if (!pool.is_ok()) return fail(pool.status());
  options.pool_per_worker = pool.value();
  auto max_frame = args.get_size("max-frame-bytes", svc::kDefaultMaxFrameBytes);
  if (!max_frame.is_ok()) return fail(max_frame.status());
  options.max_frame_bytes = static_cast<std::uint32_t>(max_frame.value());
  options.access_log_path = args.get("access-log", "");

  svc::Router router(std::move(options));
  repro::Status status = router.start();
  if (!status.is_ok()) return fail(status);
  g_router = &router;
  std::signal(SIGINT, router_signal_handler);
  std::signal(SIGTERM, router_signal_handler);

  std::printf("reprod-router listening on %s\n", router.endpoint().c_str());
  std::fflush(stdout);  // tests poll for this line before connecting
  status = router.serve();
  g_router = nullptr;
  if (!status.is_ok()) return fail(status);
  std::printf("drained; %zu workers live at exit\n", router.live_workers());
  if (g_run_report != nullptr) {
    g_run_report->set_verdict("drained");
    g_run_report->add_info("endpoint", router.endpoint());
  }
  return 0;
}

/// `repro-cli watch ROOT RUN --reference REF`: stream one run's captured
/// checkpoints to a reprod daemon as a live WATCH session. Only Merkle
/// digests cross the wire — the full node array on the first push, then
/// compute_tree_delta() deltas — and the daemon answers each push with a
/// verdict against the reference run's resident sidecar. Exit codes follow
/// the compare convention: 0 clean, 1 diverged, 2 error.
int cmd_watch(const Args& args) {
  if (args.positional().size() < 3 || !args.has("reference")) {
    std::fprintf(stderr, "watch requires ROOT RUN and --reference REF\n");
    return 2;
  }
  const std::string root = args.positional()[1];
  const std::string run = args.positional()[2];
  const std::string reference = args.get("reference", "");
  auto rank = args.get_u64("rank", 0);
  if (!rank.is_ok()) return fail(rank.status());
  auto params = tree_params_from(args);
  if (!params.is_ok()) return fail(params.status());

  svc::ClientOptions options;
  options.socket_path = args.get("socket", "");
  auto port = args.get_u64("port", 0);
  if (!port.is_ok()) return fail(port.status());
  options.port = static_cast<std::uint16_t>(port.value());
  options.host = args.get("host", "127.0.0.1");
  if (options.socket_path.empty() && options.port == 0) {
    std::fprintf(stderr, "watch requires --socket PATH or --port N\n");
    return 2;
  }
  auto timeout_ms = args.get_u64("timeout-ms", 30000);
  if (!timeout_ms.is_ok()) return fail(timeout_ms.status());
  options.timeout = std::chrono::milliseconds(timeout_ms.value());

  ckpt::HistoryCatalog catalog{root};
  auto refs = catalog.checkpoints(run);
  if (!refs.is_ok()) return fail(refs.status());
  std::vector<ckpt::CheckpointRef> work;
  for (auto& ref : refs.value()) {
    if (ref.rank == rank.value()) work.push_back(std::move(ref));
  }
  if (work.empty()) {
    std::fprintf(stderr, "no rank%llu checkpoints under %s/%s\n",
                 static_cast<unsigned long long>(rank.value()), root.c_str(),
                 run.c_str());
    return 2;
  }

  auto client = svc::Client::connect(options);
  if (!client.is_ok()) return fail(client.status());

  bool opened = false;
  bool diverged = false;
  merkle::MerkleTree previous;
  std::uint64_t previous_iteration = 0;
  for (const auto& ref : work) {
    auto reader = ckpt::CheckpointReader::open(ref.checkpoint_path);
    if (!reader.is_ok()) return fail(reader.status());
    auto data = reader.value().read_data();
    if (!data.is_ok()) return fail(data.status());
    auto tree = merkle::TreeBuilder(params.value(), par::Exec::parallel())
                    .build(data.value());
    if (!tree.is_ok()) return fail(tree.status());

    if (!opened) {
      std::string open_payload = "{";
      bool first = true;
      repro::append_kv(open_payload, "root", root, &first);
      repro::append_kv(open_payload, "run", run, &first);
      repro::append_kv(open_payload, "reference", reference, &first);
      repro::append_kv(open_payload, "rank", rank.value(), &first);
      repro::append_kv(open_payload, "data_bytes",
                       std::uint64_t{data.value().size()}, &first);
      repro::append_kv(open_payload, "eps", params.value().hash.error_bound,
                       &first);
      repro::append_kv(open_payload, "chunk_bytes",
                       params.value().chunk_bytes, &first);
      repro::append_kv(open_payload, "values_per_block",
                       std::uint64_t{params.value().hash.values_per_block},
                       &first);
      open_payload += '}';
      auto open_reply = client.value().watch_open(open_payload);
      if (!open_reply.is_ok()) return fail(open_reply.status());
      if (!open_reply.value().ok()) {
        std::fprintf(stderr, "WATCH_OPEN %s %s\n",
                     svc::wire_status_name(open_reply.value().status),
                     open_reply.value().payload.c_str());
        return 2;
      }
      std::printf("watching %s/%s rank%llu against %s (%zu checkpoints)\n",
                  root.c_str(), run.c_str(),
                  static_cast<unsigned long long>(rank.value()),
                  reference.c_str(), work.size());
      opened = true;
    }

    svc::WatchPushFrame frame;
    frame.iteration = ref.iteration;
    if (previous.num_chunks() == 0) {
      // First push: the complete node array, so the daemon can seed its
      // frontier without ever touching this run's files.
      const merkle::TreeView view(tree.value());
      const std::uint64_t num_nodes = view.layout().num_nodes();
      frame.entries.reserve(num_nodes);
      for (std::uint64_t i = 0; i < num_nodes; ++i) {
        frame.entries.push_back({i, view.node(i)});
      }
    } else {
      auto delta = merkle::compute_tree_delta(previous, tree.value(),
                                              previous_iteration,
                                              ref.iteration);
      if (!delta.is_ok()) return fail(delta.status());
      frame.delta = true;
      frame.entries = std::move(delta.value().nodes);
      if (frame.entries.empty()) {
        // Identical iteration: an empty push is a protocol violation, so
        // re-assert the (unchanged) root to advance the session's cursor.
        frame.entries.push_back({0, merkle::TreeView(tree.value()).node(0)});
      }
    }
    auto reply = client.value().watch_push(frame);
    if (!reply.is_ok()) return fail(reply.status());
    if (!reply.value().ok()) {
      std::fprintf(stderr, "WATCH_PUSH %s %s\n",
                   svc::wire_status_name(reply.value().status),
                   reply.value().payload.c_str());
      return 2;
    }
    const auto doc = telemetry::json_parse(reply.value().payload);
    std::string verdict = "?";
    std::uint64_t flagged = 0;
    std::uint64_t total = 0;
    if (doc.has_value() && doc->is_object()) {
      verdict = doc->string_or("verdict", "?");
      flagged = doc->u64_or("chunks_flagged", 0);
      total = doc->u64_or("chunks_total", 0);
    }
    std::printf("iter%-6llu %-12s", static_cast<unsigned long long>(
                                        ref.iteration),
                verdict.c_str());
    if (verdict == "divergent") {
      std::printf(" %llu/%llu chunks flagged",
                  static_cast<unsigned long long>(flagged),
                  static_cast<unsigned long long>(total));
      diverged = true;
    }
    std::printf(" (%zu digest entries%s)\n", frame.entries.size(),
                frame.delta ? ", delta" : ", full");
    previous = std::move(tree).value();
    previous_iteration = ref.iteration;
  }

  auto summary = client.value().watch_close();
  if (!summary.is_ok()) return fail(summary.status());
  std::printf("%s %s\n", svc::wire_status_name(summary.value().status),
              summary.value().payload.c_str());
  if (g_run_report != nullptr) {
    g_run_report->set_verdict(diverged ? "diverged" : "within-bound");
    g_run_report->add_info("run", run);
    g_run_report->add_info("reference", reference);
    g_run_report->add_value("iterations_pushed",
                            static_cast<double>(work.size()));
  }
  return diverged ? 1 : 0;
}

/// `repro-cli client OP ...`: one request against a running daemon. Prints
/// the response payload (JSON) and mirrors COMPARE verdicts into the usual
/// 0/1/2 exit-code contract.
int cmd_client(const Args& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "client requires an operation: ping | compare A B | "
                 "timeline ROOT RUN_A RUN_B | load-run ROOT RUN | stats | "
                 "shutdown\n");
    return 2;
  }
  svc::ClientOptions options;
  options.socket_path = args.get("socket", "");
  auto port = args.get_u64("port", 0);
  if (!port.is_ok()) return fail(port.status());
  options.port = static_cast<std::uint16_t>(port.value());
  options.host = args.get("host", "127.0.0.1");
  if (options.socket_path.empty() && options.port == 0) {
    std::fprintf(stderr, "client requires --socket PATH or --port N\n");
    return 2;
  }
  auto timeout_ms = args.get_u64("timeout-ms", 30000);
  if (!timeout_ms.is_ok()) return fail(timeout_ms.status());
  options.timeout = std::chrono::milliseconds(timeout_ms.value());

  const std::string& op = args.positional()[1];
  svc::Opcode opcode;
  std::string payload;
  auto add_eps = [&](std::string& out) {
    if (args.has("eps")) {
      auto eps = args.get_f64("eps", 1e-6);
      if (eps.is_ok()) {
        out += ",\"eps\":";
        repro::json_append_number(out, eps.value());
      }
    }
  };
  if (op == "ping") {
    opcode = svc::Opcode::kPing;
  } else if (op == "stats") {
    opcode = svc::Opcode::kStats;
  } else if (op == "metrics") {
    opcode = svc::Opcode::kMetrics;
  } else if (op == "shutdown") {
    opcode = svc::Opcode::kShutdown;
  } else if (op == "compare") {
    if (args.positional().size() < 4) {
      std::fprintf(stderr, "client compare requires A.ckpt B.ckpt\n");
      return 2;
    }
    opcode = svc::Opcode::kCompare;
    payload = "{\"file_a\":";
    repro::json_append_string(payload, args.positional()[2]);
    payload += ",\"file_b\":";
    repro::json_append_string(payload, args.positional()[3]);
    add_eps(payload);
    payload += '}';
  } else if (op == "timeline") {
    if (args.positional().size() < 5) {
      std::fprintf(stderr, "client timeline requires ROOT RUN_A RUN_B\n");
      return 2;
    }
    opcode = svc::Opcode::kTimeline;
    payload = "{\"root\":";
    repro::json_append_string(payload, args.positional()[2]);
    payload += ",\"run_a\":";
    repro::json_append_string(payload, args.positional()[3]);
    payload += ",\"run_b\":";
    repro::json_append_string(payload, args.positional()[4]);
    add_eps(payload);
    payload += '}';
  } else if (op == "load-run") {
    if (args.positional().size() < 4) {
      std::fprintf(stderr, "client load-run requires ROOT RUN\n");
      return 2;
    }
    opcode = svc::Opcode::kLoadRun;
    payload = "{\"root\":";
    repro::json_append_string(payload, args.positional()[2]);
    payload += ",\"run\":";
    repro::json_append_string(payload, args.positional()[3]);
    payload += '}';
  } else {
    std::fprintf(stderr, "unknown client operation '%s'\n", op.c_str());
    return 2;
  }

  auto client = svc::Client::connect(options);
  if (!client.is_ok()) return fail(client.status());
  auto response = client.value().call(opcode, payload);
  if (!response.is_ok()) return fail(response.status());
  if (opcode == svc::Opcode::kMetrics && response.value().ok()) {
    // The exposition page is multi-line plain text; print it verbatim so
    // `repro-cli client ... metrics | promtool check metrics` works.
    std::fputs(response.value().payload.c_str(), stdout);
    return 0;
  }
  std::printf("%s %s\n", svc::wire_status_name(response.value().status),
              response.value().payload.c_str());
  if (!response.value().ok()) return 2;
  if (opcode == svc::Opcode::kStats) {
    // Satellite readability: surface the build/uptime identity fields the
    // daemon now reports without making callers parse the JSON.
    const auto doc = telemetry::json_parse(response.value().payload);
    if (doc.has_value() && doc->is_object()) {
      std::printf("daemon %s (%s, %s, simd=%s), up %llus, "
                  "%llu watch sessions\n",
                  doc->string_or("version", "?").c_str(),
                  doc->string_or("compiler", "?").c_str(),
                  doc->string_or("build_type", "?").c_str(),
                  doc->string_or("simd_level", "?").c_str(),
                  static_cast<unsigned long long>(doc->u64_or("uptime_s", 0)),
                  static_cast<unsigned long long>(
                      doc->u64_or("watch_sessions", 0)));
    }
  }
  if (opcode == svc::Opcode::kCompare ||
      opcode == svc::Opcode::kTimeline) {
    // Mirror the server-side verdict into the exit code: COMPARE carries
    // it directly; TIMELINE diverged iff a first divergence was found.
    const auto doc = telemetry::json_parse(response.value().payload);
    if (doc.has_value() && doc->is_object()) {
      if (opcode == svc::Opcode::kCompare) {
        return static_cast<int>(doc->u64_or("exit_code", 0));
      }
      const telemetry::JsonValue* first =
          doc->find("first_divergent_iteration");
      return (first != nullptr &&
              first->kind != telemetry::JsonValue::Kind::kNull)
                 ? 1
                 : 0;
    }
  }
  return 0;
}

/// Re-serializes a parsed JsonValue (used by trace-merge to re-emit trace
/// events it did not need to understand, e.g. counter samples and args).
void append_json_value(std::string& out, const telemetry::JsonValue& value) {
  using Kind = telemetry::JsonValue::Kind;
  switch (value.kind) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case Kind::kNumber:
      repro::json_append_number(out, value.number);
      break;
    case Kind::kString:
      repro::json_append_string(out, value.string);
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : value.array) {
        if (!first) out += ',';
        first = false;
        append_json_value(out, item);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, item] : value.object) {
        if (!first) out += ',';
        first = false;
        repro::json_append_string(out, key);
        out += ':';
        append_json_value(out, item);
      }
      out += '}';
      break;
    }
  }
}

/// One completed span reconstructed from a Chrome trace's B/E event pair,
/// with the trace-context identity the tracer attaches to span args.
struct MergeSpan {
  std::string name;
  std::string op;
  std::string trace_id;
  std::string span_id;
  std::string parent_span_id;
  double begin_us = 0;
  double end_us = 0;

  [[nodiscard]] double midpoint_us() const { return (begin_us + end_us) / 2; }
};

/// Pairs B/E events per (pid, tid) stack and returns the completed spans
/// that carry a trace_id. Unbalanced events are tolerated and skipped.
std::vector<MergeSpan> collect_spans(const telemetry::JsonValue& events) {
  std::vector<MergeSpan> spans;
  std::map<std::string, std::vector<MergeSpan>> stacks;
  for (const auto& event : events.array) {
    if (!event.is_object()) continue;
    const std::string ph = event.string_or("ph", "");
    const std::string key = std::to_string(event.u64_or("pid", 0)) + "/" +
                            std::to_string(event.u64_or("tid", 0));
    if (ph == "B") {
      MergeSpan span;
      span.name = event.string_or("name", "");
      span.begin_us = event.number_or("ts", 0);
      if (const telemetry::JsonValue* span_args = event.find("args")) {
        span.op = span_args->string_or("op", "");
        span.trace_id = span_args->string_or("trace_id", "");
        span.span_id = span_args->string_or("span_id", "");
        span.parent_span_id = span_args->string_or("parent_span_id", "");
      }
      stacks[key].push_back(std::move(span));
    } else if (ph == "E") {
      auto& stack = stacks[key];
      if (stack.empty()) continue;
      MergeSpan span = std::move(stack.back());
      stack.pop_back();
      span.end_us = event.number_or("ts", span.begin_us);
      if (!span.trace_id.empty()) spans.push_back(std::move(span));
    }
  }
  return spans;
}

/// Re-emits one trace event with its pid forced to `pid` and (for non-
/// metadata events) its timestamp shifted by `ts_shift_us`.
void append_merged_event(std::string& out, const telemetry::JsonValue& event,
                         std::uint64_t pid, double ts_shift_us) {
  const bool metadata = event.string_or("ph", "") == "M";
  out += '{';
  bool first = true;
  bool saw_pid = false;
  for (const auto& [key, value] : event.object) {
    if (!first) out += ',';
    first = false;
    repro::json_append_string(out, key);
    out += ':';
    if (key == "pid") {
      repro::json_append_number(out, pid);
      saw_pid = true;
    } else if (key == "ts" && !metadata &&
               value.kind == telemetry::JsonValue::Kind::kNumber) {
      repro::json_append_number(out, value.number + ts_shift_us);
    } else {
      append_json_value(out, value);
    }
  }
  if (!saw_pid) {
    if (!first) out += ',';
    out += "\"pid\":";
    repro::json_append_number(out, pid);
  }
  out += '}';
}

/// `repro-cli trace-merge A B --out MERGED`: joins two --trace-out files
/// into one Chrome trace. Steady-clock timestamps from different processes
/// share no epoch, so the offset applied to file B is estimated from spans
/// the trace-context trailer causally linked across the files: a matched
/// (parent, child) pair should be centered on the same instant under
/// symmetric network delay, and PING round trips (no handler work) bound
/// the estimate tightest. No matched pair ⇒ offset 0 plus a warning.
int cmd_trace_merge(const Args& args) {
  if (args.positional().size() < 3 || !args.has("out")) {
    std::fprintf(stderr,
                 "trace-merge requires A.json B.json and --out FILE\n");
    return 2;
  }
  const std::string path_a = args.positional()[1];
  const std::string path_b = args.positional()[2];
  const std::string out_path = args.get("out", "");

  std::optional<telemetry::JsonValue> docs[2];
  const std::string* paths[2] = {&path_a, &path_b};
  const telemetry::JsonValue* events[2] = {nullptr, nullptr};
  for (int i = 0; i < 2; ++i) {
    auto bytes = repro::read_file(*paths[i]);
    if (!bytes.is_ok()) return fail(bytes.status());
    docs[i] = telemetry::json_parse(std::string(
        reinterpret_cast<const char*>(bytes.value().data()),
        bytes.value().size()));
    if (!docs[i].has_value() || !docs[i]->is_object()) {
      std::fprintf(stderr, "error: %s is not a JSON trace document\n",
                   paths[i]->c_str());
      return 2;
    }
    events[i] = docs[i]->find("traceEvents");
    if (events[i] == nullptr || !events[i]->is_array()) {
      std::fprintf(stderr, "error: %s has no traceEvents array\n",
                   paths[i]->c_str());
      return 2;
    }
  }

  const std::vector<MergeSpan> spans_a = collect_spans(*events[0]);
  const std::vector<MergeSpan> spans_b = collect_spans(*events[1]);

  // Matched causal pairs: same trace_id across the files, one span the
  // direct parent of the other. The parent is the request round trip and
  // the child the remote handler, whichever file each lives in, so the
  // midpoint-difference formula is direction-independent.
  double offset_sum = 0;
  std::uint64_t offset_count = 0;
  double ping_offset_sum = 0;
  std::uint64_t ping_offset_count = 0;
  for (const auto& a : spans_a) {
    for (const auto& b : spans_b) {
      if (a.trace_id != b.trace_id) continue;
      const bool a_parent =
          !a.span_id.empty() && b.parent_span_id == a.span_id;
      const bool b_parent =
          !b.span_id.empty() && a.parent_span_id == b.span_id;
      if (!a_parent && !b_parent) continue;
      const double offset = a.midpoint_us() - b.midpoint_us();
      offset_sum += offset;
      ++offset_count;
      if ((a_parent ? a.op : b.op) == "PING") {
        ping_offset_sum += offset;
        ++ping_offset_count;
      }
    }
  }
  double offset_us = 0;
  if (ping_offset_count > 0) {
    offset_us = ping_offset_sum / static_cast<double>(ping_offset_count);
  } else if (offset_count > 0) {
    offset_us = offset_sum / static_cast<double>(offset_count);
  } else {
    std::fprintf(stderr,
                 "warning: no spans share a trace_id across the files; "
                 "merging with zero clock offset\n");
  }

  std::string merged;
  merged.reserve(256);
  merged += "{\"traceEvents\":[";
  bool first = true;
  for (int i = 0; i < 2; ++i) {
    // Name each merged process after its source file so the viewer's
    // process lanes identify which side emitted which spans.
    if (!first) merged += ',';
    first = false;
    merged += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    merged += std::to_string(i + 1);
    merged += ",\"tid\":0,\"args\":{\"name\":";
    repro::json_append_string(merged, *paths[i]);
    merged += "}}";
    for (const auto& event : events[i]->array) {
      if (!event.is_object()) continue;
      merged += ',';
      append_merged_event(merged, event, static_cast<std::uint64_t>(i + 1),
                          i == 0 ? 0.0 : offset_us);
    }
  }
  merged += "],\"otherData\":{\"clock_offset_us\":";
  repro::json_append_number(merged, offset_us);
  merged += ",\"matched_span_pairs\":";
  repro::json_append_number(merged,
                            static_cast<std::uint64_t>(offset_count));
  merged += "}}";

  const repro::Status status = repro::write_file(
      out_path, std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(merged.data()),
                    merged.size()));
  if (!status.is_ok()) return fail(status);
  std::printf("merged %zu + %zu events into %s "
              "(%llu matched span pairs, clock offset %+.1f us; "
              "load in https://ui.perfetto.dev)\n",
              events[0]->array.size(), events[1]->array.size(),
              out_path.c_str(),
              static_cast<unsigned long long>(offset_count), offset_us);
  if (g_run_report != nullptr) {
    g_run_report->set_verdict("merged");
    g_run_report->add_value("matched_span_pairs",
                            static_cast<double>(offset_count));
    g_run_report->add_value("clock_offset_us", offset_us);
  }
  return 0;
}

int dispatch(const std::string& command, const Args& args) {
  if (command == "simulate") return cmd_simulate(args);
  if (command == "tree") return cmd_tree(args);
  if (command == "compare") return cmd_compare(args);
  if (command == "history") return cmd_history(args);
  if (command == "timeline") return cmd_timeline(args);
  if (command == "inspect") return cmd_inspect(args);
  if (command == "info") return cmd_info(args);
  if (command == "fields") return cmd_fields(args);
  if (command == "prove") return cmd_prove(args);
  if (command == "verify") return cmd_verify(args);
  if (command == "delta") return cmd_delta(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "route") return cmd_route(args);
  if (command == "watch") return cmd_watch(args);
  if (command == "client") return cmd_client(args);
  if (command == "trace-merge") return cmd_trace_merge(args);
  // Explicit usage-error path: say what was wrong, then the usage text,
  // and exit 2 like every other misuse (not a silent fallthrough).
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", command.c_str());
  print_usage();
  return 2;
}

int run(int argc, const char* const* argv) {
  auto args = Args::parse(argc - 1, argv + 1);
  if (!args.is_ok()) return fail(args.status());
  if (args.value().positional().empty()) {
    print_usage();
    return 2;
  }
  const std::string& command = args.value().positional().front();

  // Telemetry plumbing shared by every subcommand. Tracing must be enabled
  // before any work runs; the outputs publish after the command finishes,
  // whatever its exit code, so failed runs can still be diagnosed.
  const std::string trace_out = args.value().get("trace-out", "");
  const std::string metrics_out = args.value().get("metrics-out", "");
  telemetry::ResourceSampler sampler;
  if (!trace_out.empty()) {
    telemetry::Tracer::global().set_enabled(true);
    // Live resource counters ride along in every trace: RSS, CPU, I/O and
    // the internal queue-depth gauges, as Chrome "C"-phase samples.
    auto period = args.value().get_u64("sample-period-ms", 50);
    if (!period.is_ok()) return fail(period.status());
    telemetry::ResourceSampler::Options sampler_options;
    sampler_options.period =
        std::chrono::milliseconds(std::max<std::uint64_t>(1, period.value()));
    sampler.start(sampler_options);
  }
  telemetry::RunReport run_report(command);
  if (!metrics_out.empty()) g_run_report = &run_report;

  const int exit_code = dispatch(command, args.value());

  g_run_report = nullptr;
  if (!trace_out.empty()) {
    sampler.stop();  // final sample lands before the trace is serialized
    telemetry::Tracer::global().set_enabled(false);
    const repro::Status status =
        telemetry::Tracer::global().write_chrome_trace(trace_out);
    if (!status.is_ok()) return fail(status);
    std::printf("trace written to %s (%llu spans, %llu counter samples; "
                "load in https://ui.perfetto.dev)\n",
                trace_out.c_str(),
                static_cast<unsigned long long>(
                    telemetry::Tracer::global().span_count()),
                static_cast<unsigned long long>(
                    telemetry::Tracer::global().counter_count()));
  }
  if (!metrics_out.empty()) {
    run_report.add_value("exit_code", static_cast<double>(exit_code));
    run_report.set_metrics(telemetry::MetricsRegistry::global().snapshot());
    const repro::Status status = run_report.write_json(metrics_out);
    if (!status.is_ok()) return fail(status);
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  return exit_code;
}

}  // namespace
}  // namespace repro::cli

int main(int argc, char** argv) { return repro::cli::run(argc, argv); }
