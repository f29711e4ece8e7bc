#include "compare/comparator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/direct.hpp"
#include "common/fs.hpp"
#include "merkle/flat.hpp"
#include "sim/workload.hpp"

namespace repro::cmp {
namespace {

merkle::TreeParams tree_params(double eps, std::uint64_t chunk_bytes = 4096) {
  merkle::TreeParams params;
  params.chunk_bytes = chunk_bytes;
  params.hash.error_bound = eps;
  return params;
}

/// Write a checkpoint (fields X and PHI) and its capture-time metadata.
void write_checkpoint_with_metadata(const std::filesystem::path& path,
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

/// Write one history-catalog checkpoint (fields X and PHI), optionally with
/// its .rmrk sidecar.
void write_history_checkpoint(const ckpt::HistoryCatalog& catalog,
                              const char* run, std::uint64_t iteration,
                              std::uint32_t rank, const std::vector<float>& x,
                              const std::vector<float>& phi,
                              const merkle::TreeParams& params,
                              bool with_metadata = true) {
  const auto ref = catalog.make_ref(run, iteration, rank);
  ASSERT_TRUE(ref.is_ok());
  ckpt::CheckpointWriter writer("test", run, iteration, rank);
  ASSERT_TRUE(writer.add_field_f32("X", x).is_ok());
  ASSERT_TRUE(writer.add_field_f32("PHI", phi).is_ok());
  ASSERT_TRUE(writer.write(ref.value().checkpoint_path).is_ok());
  if (with_metadata) {
    const auto tree = merkle::TreeBuilder(params, par::Exec::serial())
                          .build(writer.data_section());
    ASSERT_TRUE(tree.is_ok());
    ASSERT_TRUE(
        merkle::save_flat(tree.value(), ref.value().metadata_path).is_ok());
  }
}

class ComparatorTest : public ::testing::Test {
 protected:
  ComparatorTest() : dir_{"comparator-test"} {}

  CompareOptions options(double eps) const {
    CompareOptions opts;
    opts.error_bound = eps;
    opts.tree = tree_params(eps);
    opts.backend = io::BackendKind::kPread;
    return opts;
  }

  repro::TempDir dir_;
};

TEST_F(ComparatorTest, IdenticalCheckpointsReadNoBulkData) {
  const auto x = sim::generate_field(20000, 1);
  const auto phi = sim::generate_field(20000, 2);
  const auto params = tree_params(1e-5);
  write_checkpoint_with_metadata(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint_with_metadata(dir_.file("b.ckpt"), x, phi, params);

  const auto report =
      compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), options(1e-5));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().identical_within_bound());
  EXPECT_EQ(report.value().chunks_flagged, 0U);
  EXPECT_EQ(report.value().values_compared, 0U);
  // The headline property: agreement proven from metadata alone.
  EXPECT_EQ(report.value().bytes_read_per_file, 0U);
  EXPECT_GT(report.value().metadata_bytes_read, 0U);
}

TEST_F(ComparatorTest, AgreesWithDirectAndGroundTruth) {
  const double eps = 1e-5;
  const auto x = sim::generate_field(50000, 3);
  auto x_b = x;
  sim::DivergenceSpec spec;
  spec.region_fraction = 0.07;
  spec.region_values = 800;
  spec.magnitude = 1e-3;
  sim::apply_divergence(x_b, spec);
  const auto phi = sim::generate_field(50000, 4);

  const auto params = tree_params(eps);
  write_checkpoint_with_metadata(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint_with_metadata(dir_.file("b.ckpt"), x_b, phi, params);

  const auto ours =
      compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), options(eps));
  ASSERT_TRUE(ours.is_ok()) << ours.status().to_string();

  baseline::DirectOptions direct_options;
  direct_options.error_bound = eps;
  direct_options.backend = io::BackendKind::kPread;
  const auto direct = baseline::direct_compare(
      dir_.file("a.ckpt"), dir_.file("b.ckpt"), direct_options);
  ASSERT_TRUE(direct.is_ok()) << direct.status().to_string();

  const std::uint64_t truth = sim::count_exceeding(x, x_b, eps);
  EXPECT_GT(truth, 0U);
  EXPECT_EQ(ours.value().values_exceeding, truth);
  EXPECT_EQ(direct.value().values_exceeding, truth);
  // Stage 2 must have read strictly less than the full checkpoint.
  EXPECT_LT(ours.value().bytes_read_per_file, ours.value().data_bytes);
  EXPECT_GT(ours.value().chunks_flagged, 0U);
  EXPECT_LT(ours.value().chunks_flagged, ours.value().chunks_total);
}

TEST_F(ComparatorTest, DiffsMappedToFieldsAndElements) {
  const double eps = 1e-5;
  auto x = sim::generate_field(5000, 5);
  auto phi = sim::generate_field(5000, 6);
  const auto params = tree_params(eps, 1024);
  write_checkpoint_with_metadata(dir_.file("a.ckpt"), x, phi, params);
  x[123] += 1.0f;     // X[123]
  phi[4000] -= 2.0f;  // PHI[4000]
  write_checkpoint_with_metadata(dir_.file("b.ckpt"), x, phi, params);

  CompareOptions opts = options(eps);
  opts.tree = params;
  opts.collect_diffs = true;
  const auto report =
      compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), opts);
  ASSERT_TRUE(report.is_ok());
  ASSERT_EQ(report.value().diffs.size(), 2U);
  auto diffs = report.value().diffs;
  std::sort(diffs.begin(), diffs.end(), [](const auto& a, const auto& b) {
    return a.value_index < b.value_index;
  });
  EXPECT_EQ(diffs[0].field, "X");
  EXPECT_EQ(diffs[0].element_index, 123U);
  EXPECT_EQ(diffs[1].field, "PHI");
  EXPECT_EQ(diffs[1].element_index, 4000U);
}

TEST_F(ComparatorTest, ErrorBoundMismatchRejected) {
  const auto x = sim::generate_field(1000, 7);
  const auto phi = sim::generate_field(1000, 8);
  write_checkpoint_with_metadata(dir_.file("a.ckpt"), x, phi,
                                 tree_params(1e-5));
  write_checkpoint_with_metadata(dir_.file("b.ckpt"), x, phi,
                                 tree_params(1e-5));
  const auto report =
      compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), options(1e-3));
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), repro::StatusCode::kFailedPrecondition);
}

TEST_F(ComparatorTest, MissingMetadataIsBuiltAndPersisted) {
  const auto x = sim::generate_field(10000, 9);
  const auto phi = sim::generate_field(10000, 10);
  for (const char* name : {"a.ckpt", "b.ckpt"}) {
    ckpt::CheckpointWriter writer("test", "run", 1, 0);
    ASSERT_TRUE(writer.add_field_f32("X", x).is_ok());
    ASSERT_TRUE(writer.add_field_f32("PHI", phi).is_ok());
    ASSERT_TRUE(writer.write(dir_.file(name)).is_ok());
  }
  const auto report =
      compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), options(1e-5));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().identical_within_bound());
  // Sidecars were persisted for next time.
  EXPECT_TRUE(std::filesystem::exists(dir_.file("a.ckpt.rmrk")));
  EXPECT_TRUE(std::filesystem::exists(dir_.file("b.ckpt.rmrk")));
}

TEST_F(ComparatorTest, MissingMetadataRejectedWhenBuildDisabled) {
  const auto x = sim::generate_field(100, 11);
  ckpt::CheckpointWriter writer("test", "run", 1, 0);
  ASSERT_TRUE(writer.add_field_f32("X", x).is_ok());
  ASSERT_TRUE(writer.write(dir_.file("a.ckpt")).is_ok());
  ASSERT_TRUE(writer.write(dir_.file("b.ckpt")).is_ok());
  CompareOptions opts = options(1e-5);
  opts.build_metadata_if_missing = false;
  EXPECT_EQ(compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), opts)
                .status()
                .code(),
            repro::StatusCode::kNotFound);
}

TEST_F(ComparatorTest, AllBackendsReportTheSameDiffCount) {
  const double eps = 1e-5;
  const auto x = sim::generate_field(30000, 12);
  auto x_b = x;
  sim::apply_divergence(x_b, {.region_fraction = 0.1, .region_values = 256,
                              .magnitude = 1e-3});
  const auto phi = sim::generate_field(30000, 13);
  const auto params = tree_params(eps);
  write_checkpoint_with_metadata(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint_with_metadata(dir_.file("b.ckpt"), x_b, phi, params);

  std::vector<std::uint64_t> counts;
  for (const auto backend :
       {io::BackendKind::kPread, io::BackendKind::kMmap,
        io::BackendKind::kUring, io::BackendKind::kThreadAsync}) {
    if (backend == io::BackendKind::kUring && !io::uring_available()) {
      continue;
    }
    CompareOptions opts = options(eps);
    opts.backend = backend;
    opts.backend_fallback = false;
    const auto report =
        compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), opts);
    ASSERT_TRUE(report.is_ok())
        << io::backend_name(backend) << ": " << report.status().to_string();
    counts.push_back(report.value().values_exceeding);
  }
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[0]);
  }
  EXPECT_GT(counts[0], 0U);
}

TEST_F(ComparatorTest, TimersChargeTheFivePhases) {
  const auto x = sim::generate_field(20000, 14);
  auto x_b = x;
  sim::apply_divergence(x_b, {.region_fraction = 0.2, .region_values = 512,
                              .magnitude = 1e-3});
  const auto phi = sim::generate_field(20000, 15);
  const auto params = tree_params(1e-5);
  write_checkpoint_with_metadata(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint_with_metadata(dir_.file("b.ckpt"), x_b, phi, params);
  const auto report =
      compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), options(1e-5));
  ASSERT_TRUE(report.is_ok());
  const TimerSet& timers = report.value().timers;
  for (const char* phase : {kPhaseSetup, kPhaseRead, kPhaseDeserialize,
                            kPhaseCompareTree, kPhaseCompareDirect}) {
    EXPECT_GT(timers.seconds(phase), 0.0) << phase;
  }
  EXPECT_LE(timers.total_seconds(), report.value().total_seconds + 1e-6);
}

TEST_F(ComparatorTest, SizeMismatchRejected) {
  const auto params = tree_params(1e-5);
  write_checkpoint_with_metadata(dir_.file("a.ckpt"),
                                 sim::generate_field(1000, 16),
                                 sim::generate_field(1000, 17), params);
  write_checkpoint_with_metadata(dir_.file("b.ckpt"),
                                 sim::generate_field(2000, 16),
                                 sim::generate_field(2000, 17), params);
  EXPECT_EQ(compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                          options(1e-5))
                .status()
                .code(),
            repro::StatusCode::kFailedPrecondition);
}

TEST_F(ComparatorTest, HistoriesFirstDivergence) {
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto params = tree_params(1e-5);
  // Iterations 10, 20, 30; runs agree at 10, diverge from 20 on.
  for (const std::uint64_t iteration : {10U, 20U, 30U}) {
    auto x = sim::generate_field(5000, iteration);
    const auto phi = sim::generate_field(5000, iteration + 100);
    for (const char* run : {"run-a", "run-b"}) {
      auto x_run = x;
      if (iteration >= 20 && std::string{run} == "run-b") {
        sim::apply_divergence(
            x_run, {.region_fraction = 0.05, .region_values = 100,
                    .magnitude = 1e-3, .seed = iteration});
      }
      const auto ref = catalog.make_ref(run, iteration, 0);
      ASSERT_TRUE(ref.is_ok());
      ckpt::CheckpointWriter writer("test", run, iteration, 0);
      ASSERT_TRUE(writer.add_field_f32("X", x_run).is_ok());
      ASSERT_TRUE(writer.add_field_f32("PHI", phi).is_ok());
      ASSERT_TRUE(writer.write(ref.value().checkpoint_path).is_ok());
      const auto tree = merkle::TreeBuilder(params, par::Exec::serial())
                            .build(writer.data_section());
      ASSERT_TRUE(tree.is_ok());
      ASSERT_TRUE(
          merkle::save_flat(tree.value(), ref.value().metadata_path).is_ok());
    }
  }

  HistoryOptions history_options;
  history_options.pair_options = options(1e-5);
  const auto history =
      compare_histories(catalog, "run-a", "run-b", history_options);
  ASSERT_TRUE(history.is_ok()) << history.status().to_string();
  ASSERT_TRUE(history.value().first_divergent_iteration.has_value());
  EXPECT_EQ(*history.value().first_divergent_iteration, 20U);
  EXPECT_EQ(history.value().pairs.size(), 3U);

  // Early-exit mode stops after the divergent pair.
  history_options.stop_at_first_divergence = true;
  const auto early =
      compare_histories(catalog, "run-a", "run-b", history_options);
  ASSERT_TRUE(early.is_ok());
  EXPECT_EQ(early.value().pairs.size(), 2U);
}

TEST_F(ComparatorTest, DiffSampleIsDeterministicAcrossSchedules) {
  const double eps = 1e-5;
  const auto x = sim::generate_field(40000, 21);
  auto x_b = x;
  // Scatter diffs at known ascending positions across many chunks.
  std::vector<std::uint64_t> injected;
  for (std::size_t i = 37; i < x_b.size(); i += 197) {
    x_b[i] += 1.0f;
    injected.push_back(i);
  }
  ASSERT_GT(injected.size(), 32U);
  const auto phi = sim::generate_field(40000, 22);
  const auto params = tree_params(eps, 1024);
  write_checkpoint_with_metadata(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint_with_metadata(dir_.file("b.ckpt"), x_b, phi, params);

  CompareOptions opts = options(eps);
  opts.tree = params;
  opts.collect_diffs = true;
  opts.max_diffs = 16;
  opts.exec = par::Exec::parallel();

  // The contract (CompareOptions::collect_diffs): the max_diffs smallest
  // value indices, ascending, independent of the dynamic schedule. X is the
  // first field, so its element index is its data-section value index.
  const std::vector<std::uint64_t> expected(injected.begin(),
                                            injected.begin() + 16);
  for (int attempt = 0; attempt < 4; ++attempt) {
    const auto report =
        compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), opts);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().values_exceeding, injected.size());
    ASSERT_EQ(report.value().diffs.size(), 16U);
    std::vector<std::uint64_t> indices;
    for (const auto& diff : report.value().diffs) {
      indices.push_back(diff.value_index);
      EXPECT_EQ(diff.field, "X");
    }
    EXPECT_TRUE(std::is_sorted(indices.begin(), indices.end()));
    EXPECT_EQ(indices, expected) << "attempt " << attempt;
  }
}

TEST_F(ComparatorTest, FieldStatsCoverGeometryAndSeverity) {
  const double eps = 1e-5;
  const auto x = sim::generate_field(20000, 31);
  auto x_b = x;
  sim::apply_divergence(x_b, {.region_fraction = 0.05, .region_values = 200,
                              .magnitude = 1e-3, .seed = 7});
  const auto phi = sim::generate_field(20000, 32);
  const auto params = tree_params(eps, 1024);
  write_checkpoint_with_metadata(dir_.file("a.ckpt"), x, phi, params);
  write_checkpoint_with_metadata(dir_.file("b.ckpt"), x_b, phi, params);

  CompareOptions opts = options(eps);
  opts.tree = params;
  opts.collect_field_stats = true;
  const auto report =
      compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"), opts);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  // Clean fields get an entry too — the timeline renders their rows.
  ASSERT_EQ(report.value().field_divergences.size(), 2U);
  const FieldDivergence& fx = report.value().field_divergences[0];
  const FieldDivergence& fphi = report.value().field_divergences[1];
  EXPECT_EQ(fx.field, "X");
  EXPECT_EQ(fphi.field, "PHI");

  // Chunk geometry: X fills the first 80000 bytes => chunks [0, 78] at
  // 1 KiB; PHI starts in the boundary chunk.
  EXPECT_EQ(fx.chunk_begin, 0U);
  EXPECT_EQ(fx.chunks_total, 79U);
  EXPECT_EQ(fphi.chunk_begin, 78U);

  EXPECT_TRUE(fx.diverged());
  EXPECT_EQ(fx.values_exceeding, sim::count_exceeding(x, x_b, eps));
  EXPECT_GT(fx.max_abs_diff, eps);
  EXPECT_GT(fx.rel_l2_error, 0.0);
  EXPECT_FALSE(fphi.diverged());
  EXPECT_EQ(fx.values_exceeding + fphi.values_exceeding,
            report.value().values_exceeding);

  // Flagged ranges: inclusive runs inside the field's chunk window that
  // cover exactly chunks_flagged chunks.
  ASSERT_FALSE(fx.flagged_ranges.empty());
  std::uint64_t covered = 0;
  for (const auto& [lo, hi] : fx.flagged_ranges) {
    EXPECT_LE(lo, hi);
    EXPECT_GE(lo, fx.chunk_begin);
    EXPECT_LT(hi, fx.chunk_begin + fx.chunks_total);
    covered += hi - lo + 1;
  }
  EXPECT_EQ(covered, fx.chunks_flagged);
  EXPECT_GT(fx.chunks_flagged, 0U);
}

TEST_F(ComparatorTest, RaggedHistoryComparesIntersection) {
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto params = tree_params(1e-5);
  // run-b crashed after iteration 20: its iteration-30 checkpoint is gone.
  for (const std::uint64_t iteration : {10U, 20U, 30U}) {
    const auto x = sim::generate_field(4000, iteration);
    const auto phi = sim::generate_field(4000, iteration + 100);
    auto x_b = x;
    if (iteration >= 20) {
      sim::apply_divergence(x_b, {.region_fraction = 0.05,
                                  .region_values = 100,
                                  .magnitude = 1e-3,
                                  .seed = iteration});
    }
    write_history_checkpoint(catalog, "run-a", iteration, 0, x, phi, params);
    if (iteration != 30) {
      write_history_checkpoint(catalog, "run-b", iteration, 0, x_b, phi,
                               params);
    }
  }

  HistoryOptions history_options;
  history_options.pair_options = options(1e-5);
  // The strict contract still refuses ragged layouts...
  EXPECT_EQ(compare_histories(catalog, "run-a", "run-b", history_options)
                .status()
                .code(),
            repro::StatusCode::kFailedPrecondition);

  // ...while --ragged semantics compare the intersection and report the
  // orphan instead of crashing.
  history_options.allow_ragged = true;
  const auto history =
      compare_histories(catalog, "run-a", "run-b", history_options);
  ASSERT_TRUE(history.is_ok()) << history.status().to_string();
  EXPECT_EQ(history.value().pairs.size(), 2U);
  ASSERT_TRUE(history.value().first_divergent_iteration.has_value());
  EXPECT_EQ(*history.value().first_divergent_iteration, 20U);
  ASSERT_EQ(history.value().only_in_a.size(), 1U);
  EXPECT_EQ(history.value().only_in_a[0].iteration, 30U);
  EXPECT_TRUE(history.value().only_in_b.empty());
}

TEST_F(ComparatorTest, RaggedHistoryWithMissingSidecarsStillCompares) {
  ckpt::HistoryCatalog catalog{dir_.path()};
  const auto params = tree_params(1e-5);
  for (const std::uint64_t iteration : {10U, 20U}) {
    const auto x = sim::generate_field(3000, iteration);
    const auto phi = sim::generate_field(3000, iteration + 50);
    // Iteration 20 was captured without .rmrk sidecars on either side (the
    // capture died before the metadata flush): trees rebuild on the fly.
    const bool with_metadata = iteration == 10;
    write_history_checkpoint(catalog, "run-a", iteration, 0, x, phi, params,
                             with_metadata);
    write_history_checkpoint(catalog, "run-b", iteration, 0, x, phi, params,
                             with_metadata);
  }
  HistoryOptions history_options;
  history_options.pair_options = options(1e-5);
  history_options.allow_ragged = true;
  const auto history =
      compare_histories(catalog, "run-a", "run-b", history_options);
  ASSERT_TRUE(history.is_ok()) << history.status().to_string();
  EXPECT_EQ(history.value().pairs.size(), 2U);
  EXPECT_FALSE(history.value().first_divergent_iteration.has_value());
}

}  // namespace
}  // namespace repro::cmp
