// Metadata bench: the warm-page-cache cost of opening one RMF2 sidecar
// (docs/FORMATS.md, docs/PERF.md) — a load maps the file and validates
// offsets + checksums, after which node reads are memcpys straight out of
// the page cache — and the size and timeline savings of differential RMFD
// sidecars over a 64-iteration history.
//
// The shape check asserts differential sidecars are at least 3x smaller
// than full per-iteration sidecars and that the incremental timeline visits
// at least 3x fewer nodes than per-iteration reloads.
//
// --artifact-out <path> writes the repro-bench-trajectory/v1 document that
// is committed as BENCH_metadata.json at the repo root.
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "bench/bench_artifact.hpp"
#include "bench/bench_common.hpp"
#include "ckpt/delta_store.hpp"
#include "common/fs.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"
#include "sim/workload.hpp"

namespace {

using namespace repro;

[[noreturn]] void die(const char* what, const repro::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.to_string().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string artifact_path =
      bench::extract_artifact_path(&argc, argv);

  bench::print_banner(
      "Metadata sidecars: RMF2 mmap load (warm page cache) and differential "
      "history",
      "zero-copy metadata extension",
      "RMF2 sidecars are used in place: open cost is validation, not "
      "parsing.");

  // 8M floats (32 MiB) at 4 KiB chunks -> 8192 leaves, ~256 KiB metadata.
  const std::uint64_t values = (8ULL << 20) * bench::scale_factor();
  const std::vector<float> data = sim::generate_field(values, /*seed=*/7);
  const std::uint64_t chunk = 4 * kKiB;
  const double eps = 1e-5;

  merkle::TreeParams params;
  params.chunk_bytes = chunk;
  params.hash.error_bound = eps;
  auto tree = merkle::TreeBuilder(params, par::Exec::parallel())
                  .build(std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(data.data()),
                      data.size() * sizeof(float)));
  if (!tree.is_ok()) die("tree build failed", tree.status());

  TempDir dir{"bench-metadata"};
  const std::filesystem::path sidecar_path = dir.file("tree.rmrk");
  if (const auto saved = merkle::save_flat(tree.value(), sidecar_path);
      !saved.is_ok()) {
    die("sidecar save failed", saved);
  }
  const std::uint64_t sidecar_bytes = tree.value().metadata_bytes();
  std::printf("data: %s   metadata: %s\n\n",
              format_size(data.size() * sizeof(float)).c_str(),
              format_size(sidecar_bytes).c_str());

  const hash::Digest128 want_root = tree.value().root();
  const std::uint64_t want_chunks = tree.value().num_chunks();

  // Warm the file into the page cache and sanity-check its content before
  // timing anything.
  {
    auto opened = merkle::MappedBundle::open(sidecar_path);
    if (!opened.is_ok()) die("warmup open failed", opened.status());
    auto view = opened.value().sole_tree();
    if (!view.is_ok()) die("sole_tree failed", view.status());
    if (!(view.value().root() == want_root) ||
        view.value().num_chunks() != want_chunks) {
      std::fprintf(stderr, "sidecar content mismatch\n");
      return 1;
    }
    if (!opened.value().mapped()) {
      std::fprintf(stderr, "warning: sidecar open fell back to a heap read\n");
    }
  }

  const int reps = 15;
  // mmap + header/offset validation + per-section checksum pass; the root
  // read is a 16-byte memcpy out of the mapping.
  const bench::WallStats load_stats = bench::wall_stats_of(reps, [&] {
    Stopwatch clock;
    auto opened = merkle::MappedBundle::open(sidecar_path);
    if (!opened.is_ok()) die("sidecar open failed", opened.status());
    auto view = opened.value().sole_tree();
    if (!view.is_ok() || !(view.value().root() == want_root)) {
      die("sidecar view failed", view.status());
    }
    return clock.seconds() * 1e3;
  });

  // ---- Differential metadata: 90%-stable workload over 64 iterations ----
  //
  // Two runs capture the same drifting field (a contiguous 10% window of
  // chunks changes each iteration — localized dynamics, the common HPC
  // case); run B additionally diverges in its first chunks from the
  // midpoint on. Differential RMFD sidecars should shrink metadata bytes by
  // roughly the stability fraction, and the incremental timeline should
  // visit O(divergence) nodes instead of reloading both full trees per
  // iteration.
  const std::uint64_t diff_values = (2ULL << 20) * bench::scale_factor();
  const std::uint64_t iterations = 64;
  std::vector<float> field_a = sim::generate_field(diff_values, /*seed=*/11);
  std::vector<float> field_b = field_a;
  const std::uint64_t values_per_chunk = chunk / sizeof(float);
  const std::uint64_t diff_chunks = diff_values / values_per_chunk;
  const std::uint64_t window = diff_chunks / 10;  // 10% churn -> 90% stable

  merkle::TreeParams diff_params = params;
  ckpt::DeltaStoreOptions store_options;
  store_options.tree = diff_params;

  TempDir diff_dir{"bench-metadata-diff"};
  auto store_a = ckpt::DeltaStore::open(diff_dir.path(), "run_a", 0,
                                        store_options);
  if (!store_a.is_ok()) die("delta store open failed", store_a.status());
  auto store_b = ckpt::DeltaStore::open(diff_dir.path(), "run_b", 0,
                                        store_options);
  if (!store_b.is_ok()) die("delta store open failed", store_b.status());

  const auto mutate = [&](std::vector<float>& field, std::uint64_t iter,
                          bool diverge) {
    const std::uint64_t start = (iter * window) % diff_chunks;
    for (std::uint64_t c = 0; c < window; ++c) {
      const std::uint64_t chunk_index = (start + c) % diff_chunks;
      const std::uint64_t begin = chunk_index * values_per_chunk;
      for (std::uint64_t v = 0; v < values_per_chunk; ++v) {
        field[begin + v] += 0.5f;
      }
    }
    if (diverge) {
      // Persistent drift in the first 2% of chunks from the midpoint on.
      const std::uint64_t drift = std::max<std::uint64_t>(diff_chunks / 50, 1);
      for (std::uint64_t v = 0; v < drift * values_per_chunk; ++v) {
        field[v] += 0.25f;
      }
    }
  };
  const auto bytes_of = [](const std::vector<float>& field) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(field.data()),
        field.size() * sizeof(float));
  };

  Stopwatch append_clock;
  for (std::uint64_t iter = 0; iter < iterations; ++iter) {
    if (iter > 0) {
      mutate(field_a, iter, false);
      mutate(field_b, iter, iter >= iterations / 2);
    }
    if (const auto appended = store_a.value().append(iter, bytes_of(field_a));
        !appended.is_ok()) {
      die("append run_a failed", appended);
    }
    if (const auto appended = store_b.value().append(iter, bytes_of(field_b));
        !appended.is_ok()) {
      die("append run_b failed", appended);
    }
  }
  const double append_ms = append_clock.seconds() * 1e3;

  const ckpt::DeltaStoreStats& diff_stats = store_a.value().stats();
  const double savings = diff_stats.metadata_savings();

  ckpt::TimelineStats timeline_stats;
  const int timeline_reps = 5;
  const bench::WallStats timeline_wall =
      bench::wall_stats_of(timeline_reps, [&] {
        Stopwatch clock;
        auto timeline = ckpt::incremental_timeline(
            store_a.value(), store_b.value(), &timeline_stats);
        if (!timeline.is_ok()) die("timeline failed", timeline.status());
        if (timeline.value().size() != iterations ||
            timeline.value().back().diverged_chunks == 0) {
          std::fprintf(stderr, "timeline shape unexpected\n");
          std::exit(1);
        }
        return clock.seconds() * 1e3;
      });
  const double visit_reduction =
      timeline_stats.node_visits > 0
          ? static_cast<double>(timeline_stats.full_visit_equiv) /
                static_cast<double>(timeline_stats.node_visits)
          : 0;

  std::printf("\ndifferential history: %llu iterations, %s deduped metadata "
              "vs %s full-per-iteration (%.1fx), %llu anchors\n",
              static_cast<unsigned long long>(iterations),
              format_size(diff_stats.metadata_bytes).c_str(),
              format_size(diff_stats.metadata_full_bytes).c_str(), savings,
              static_cast<unsigned long long>(
                  store_a.value().anchors().size()));
  std::printf("incremental timeline: %llu node visits vs %llu full-reload "
              "equivalent (%.1fx fewer), %.2f ms\n",
              static_cast<unsigned long long>(timeline_stats.node_visits),
              static_cast<unsigned long long>(
                  timeline_stats.full_visit_equiv),
              visit_reduction, timeline_wall.median_ms);

  const std::string config =
      strprintf("%s data, %s chunks, eps=%g",
                format_size(data.size() * sizeof(float)).c_str(),
                format_size(chunk).c_str(), eps);
  const std::string diff_config =
      strprintf("%s data, %s chunks, %llu iters, 90%% stable, anchor=%llu",
                format_size(diff_values * sizeof(float)).c_str(),
                format_size(chunk).c_str(),
                static_cast<unsigned long long>(iterations),
                static_cast<unsigned long long>(
                    store_options.anchor_interval));
  const std::vector<bench::TrajectoryRow> rows = {
      {"metadata_load_v2_mmap_warm", config, load_stats.median_ms,
       load_stats.p90_ms, sidecar_bytes},
      {"metadata_differential_sidecars_64iter", diff_config, append_ms,
       append_ms, diff_stats.metadata_bytes},
      {"metadata_full_per_iteration_equiv", diff_config, 0.0, 0.0,
       diff_stats.metadata_full_bytes},
      {"metadata_timeline_incremental", diff_config,
       timeline_wall.median_ms, timeline_wall.p90_ms,
       timeline_stats.node_visits * hash::kDigestBytes},
  };

  TextTable table({"Load path", "Median (ms)", "p90 (ms)", "File size"});
  for (const bench::TrajectoryRow& row : rows) {
    table.add_row({row.name, strprintf("%.4f", row.median_wall_ms),
                   strprintf("%.4f", row.p90_wall_ms),
                   format_size(row.bytes).c_str()});
  }
  table.print();

  const bool shapes_ok = savings >= 3.0 && visit_reduction >= 3.0;
  std::printf("\nshape check (%s):\n"
              "  [1] differential sidecars >= 3x smaller than "
              "full-per-iteration (%.1fx)\n"
              "  [2] incremental timeline >= 3x fewer node visits than "
              "per-iteration reloads (%.1fx)\n",
              shapes_ok ? "PASS" : "CHECK FAILED", savings,
              visit_reduction);

  bool want_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) want_json = true;
  }
  if (want_json) {
    std::printf("{\"metadata_bytes\":%llu,\"metadata_full_bytes\":%llu,"
                "\"metadata_savings\":%.3f,\"node_visits\":%llu,"
                "\"full_visit_equiv\":%llu,\"visit_reduction\":%.3f,"
                "\"iterations\":%llu,\"shapes_ok\":%s}\n",
                static_cast<unsigned long long>(diff_stats.metadata_bytes),
                static_cast<unsigned long long>(
                    diff_stats.metadata_full_bytes),
                savings,
                static_cast<unsigned long long>(timeline_stats.node_visits),
                static_cast<unsigned long long>(
                    timeline_stats.full_visit_equiv),
                visit_reduction,
                static_cast<unsigned long long>(iterations),
                shapes_ok ? "true" : "false");
  }

  if (!artifact_path.empty()) {
    const auto written =
        bench::write_trajectory(artifact_path, "metadata", rows);
    if (!written.is_ok()) die("artifact write failed", written);
    std::printf("\nwrote trajectory artifact to %s\n", artifact_path.c_str());
  }
  return shapes_ok ? 0 : 1;
}
