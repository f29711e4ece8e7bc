#include "cluster/scaling.hpp"

#include <gtest/gtest.h>

#include "common/fs.hpp"
#include "merkle/flat.hpp"
#include "sim/workload.hpp"

namespace repro::cluster {
namespace {

merkle::TreeParams tree_params(double eps) {
  merkle::TreeParams params;
  params.chunk_bytes = 4096;
  params.hash.error_bound = eps;
  return params;
}

class ScalingTest : public ::testing::Test {
 protected:
  ScalingTest() : dir_{"scaling-test"}, catalog_{dir_.path()} {}

  /// Create `num_pairs` rank-pairs; even ranks diverge, odd ranks agree.
  void make_pairs(std::size_t num_pairs, double eps) {
    const auto params = tree_params(eps);
    for (std::size_t rank = 0; rank < num_pairs; ++rank) {
      const auto x = sim::generate_field(20000, rank);
      for (const char* run : {"a", "b"}) {
        auto data = x;
        if (rank % 2 == 0 && std::string{run} == "b") {
          sim::apply_divergence(
              data, {.region_fraction = 0.05, .region_values = 200,
                     .magnitude = 1e-3, .seed = rank});
        }
        const auto ref =
            catalog_.make_ref(run, 10, static_cast<std::uint32_t>(rank));
        ASSERT_TRUE(ref.is_ok());
        ckpt::CheckpointWriter writer("test", run, 10,
                                      static_cast<std::uint32_t>(rank));
        ASSERT_TRUE(writer.add_field_f32("X", data).is_ok());
        ASSERT_TRUE(writer.write(ref.value().checkpoint_path).is_ok());
        const auto tree = merkle::TreeBuilder(params, par::Exec::serial())
                              .build(writer.data_section());
        ASSERT_TRUE(tree.is_ok());
        ASSERT_TRUE(
            merkle::save_flat(tree.value(), ref.value().metadata_path).is_ok());
      }
      // Ground truth per pair.
      if (rank % 2 == 0) {
        auto diverged = x;
        sim::apply_divergence(
            diverged, {.region_fraction = 0.05, .region_values = 200,
                       .magnitude = 1e-3, .seed = rank});
        truth_ += sim::count_exceeding(x, diverged, eps);
      }
    }
    pairs_ = catalog_.pair_runs("a", "b").value();
  }

  ScalingOptions options(Method method, unsigned processes, double eps) {
    ScalingOptions opts;
    opts.num_processes = processes;
    opts.method = method;
    opts.ours.error_bound = eps;
    opts.ours.tree = tree_params(eps);
    opts.ours.backend = io::BackendKind::kPread;
    opts.direct.error_bound = eps;
    opts.direct.backend = io::BackendKind::kPread;
    return opts;
  }

  repro::TempDir dir_;
  ckpt::HistoryCatalog catalog_;
  std::vector<ckpt::CheckpointPair> pairs_;
  std::uint64_t truth_ = 0;
};

TEST_F(ScalingTest, OursCountsMatchAcrossWorkerCounts) {
  constexpr double eps = 1e-5;
  make_pairs(8, eps);
  std::vector<std::uint64_t> counts;
  for (const unsigned workers : {1U, 2U, 4U}) {
    const auto result =
        run_scaling(pairs_, options(Method::kOurs, workers, eps));
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().pairs_compared, 8U);
    counts.push_back(result.value().values_exceeding);
  }
  EXPECT_EQ(counts[0], truth_);
  EXPECT_EQ(counts[1], truth_);
  EXPECT_EQ(counts[2], truth_);
}

TEST_F(ScalingTest, DirectAgreesWithOurs) {
  constexpr double eps = 1e-5;
  make_pairs(4, eps);
  const auto ours = run_scaling(pairs_, options(Method::kOurs, 2, eps));
  const auto direct = run_scaling(pairs_, options(Method::kDirect, 2, eps));
  ASSERT_TRUE(ours.is_ok());
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(ours.value().values_exceeding, direct.value().values_exceeding);
  // Ours reads only flagged chunks; Direct reads everything.
  EXPECT_LT(ours.value().bytes_read_per_file,
            direct.value().bytes_read_per_file);
  EXPECT_EQ(direct.value().bytes_read_per_file, direct.value().total_bytes);
}

TEST_F(ScalingTest, ThroughputMetricsConsistent) {
  constexpr double eps = 1e-5;
  make_pairs(4, eps);
  const auto result = run_scaling(pairs_, options(Method::kOurs, 2, eps));
  ASSERT_TRUE(result.is_ok());
  const ScalingResult& r = result.value();
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_EQ(r.total_bytes, 4U * 80000U);
  EXPECT_NEAR(r.per_process_throughput(2) * 2, r.aggregate_throughput(),
              1e-9);
}

TEST_F(ScalingTest, EmptyWorklist) {
  const auto result =
      run_scaling({}, options(Method::kOurs, 4, 1e-5));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().pairs_compared, 0U);
}

TEST_F(ScalingTest, MoreWorkersThanPairs) {
  constexpr double eps = 1e-5;
  make_pairs(2, eps);
  const auto result = run_scaling(pairs_, options(Method::kOurs, 16, eps));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().pairs_compared, 2U);
}

TEST_F(ScalingTest, ErrorSurfacesFromWorker) {
  constexpr double eps = 1e-5;
  make_pairs(2, eps);
  // Corrupt one checkpoint.
  auto broken = pairs_;
  broken[1].run_b.checkpoint_path = dir_.file("missing.ckpt");
  const auto result = run_scaling(broken, options(Method::kOurs, 2, eps));
  EXPECT_FALSE(result.is_ok());
}

}  // namespace
}  // namespace repro::cluster
