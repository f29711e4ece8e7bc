#include "compare/fields.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/fs.hpp"
#include "sim/workload.hpp"

namespace repro::cmp {
namespace {

void write_three_field_checkpoint(const std::filesystem::path& path,
                                  const std::vector<float>& x,
                                  const std::vector<float>& vx,
                                  const std::vector<float>& phi) {
  ckpt::CheckpointWriter writer("test", "run", 1, 0);
  ASSERT_TRUE(writer.add_field_f32("X", x).is_ok());
  ASSERT_TRUE(writer.add_field_f32("VX", vx).is_ok());
  ASSERT_TRUE(writer.add_field_f32("PHI", phi).is_ok());
  ASSERT_TRUE(writer.write(path).is_ok());
}

FieldCompareOptions tight_x_loose_phi() {
  FieldCompareOptions options;
  options.field_bounds["X"] = 1e-6;
  options.field_bounds["PHI"] = 1e-2;
  options.compare.error_bound = 1e-4;  // applies to VX
  options.compare.tree.chunk_bytes = 4096;
  options.compare.backend = io::BackendKind::kPread;
  return options;
}

class FieldsTest : public ::testing::Test {
 protected:
  FieldsTest() : dir_{"fields-test"} {}
  repro::TempDir dir_;
};

TEST_F(FieldsTest, IdenticalCheckpointsAllFieldsAgree) {
  const auto x = sim::generate_field(10000, 1);
  const auto vx = sim::generate_field(10000, 2);
  const auto phi = sim::generate_field(10000, 3);
  write_three_field_checkpoint(dir_.file("a.ckpt"), x, vx, phi);
  write_three_field_checkpoint(dir_.file("b.ckpt"), x, vx, phi);
  const auto report = compare_fields(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                                     tight_x_loose_phi());
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().identical_within_bounds());
  ASSERT_EQ(report.value().fields.size(), 3U);
  for (const auto& field : report.value().fields) {
    EXPECT_EQ(field.bytes_read_per_file, 0U) << field.field;
  }
  // Bundles persisted for reuse, as RMF2 files with one tree per field.
  const auto bundle = merkle::MappedBundle::open(dir_.file("a.ckpt.rmrb"));
  ASSERT_TRUE(bundle.is_ok()) << bundle.status().to_string();
  EXPECT_EQ(bundle.value().view().size(), 3U);
  ASSERT_NE(bundle.value().view().find("PHI"), nullptr);
  EXPECT_EQ(bundle.value().view().find("PHI")->params().hash.error_bound,
            1e-2);
}

TEST_F(FieldsTest, PerFieldBoundsAreHonored) {
  const auto x = sim::generate_field(10000, 4);
  const auto vx = sim::generate_field(10000, 5);
  const auto phi = sim::generate_field(10000, 6);
  write_three_field_checkpoint(dir_.file("a.ckpt"), x, vx, phi);

  // Perturb every field by the SAME magnitude 1e-3: beyond X's 1e-6 bound,
  // beyond VX's 1e-4 bound, within PHI's 1e-2 bound.
  auto perturb = [](std::vector<float> values, std::uint64_t seed) {
    sim::apply_divergence(values,
                          {.region_fraction = 0.1, .region_values = 256,
                           .magnitude = 1e-3, .seed = seed});
    return values;
  };
  write_three_field_checkpoint(dir_.file("b.ckpt"), perturb(x, 1),
                               perturb(vx, 2), perturb(phi, 3));

  const auto report = compare_fields(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                                     tight_x_loose_phi());
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto& fields = report.value().fields;
  ASSERT_EQ(fields.size(), 3U);
  EXPECT_EQ(fields[0].field, "X");
  EXPECT_GT(fields[0].values_exceeding, 0U);
  EXPECT_EQ(fields[1].field, "VX");
  EXPECT_GT(fields[1].values_exceeding, 0U);
  EXPECT_EQ(fields[2].field, "PHI");
  EXPECT_EQ(fields[2].values_exceeding, 0U);  // 1e-3 << 1e-2 bound
  // PHI's metadata should have pruned (almost) everything: perturbations at
  // a tenth of the bound rarely cross quantization cells.
  EXPECT_LT(fields[2].chunks_flagged, fields[2].chunks_total / 2);
  EXPECT_FALSE(report.value().identical_within_bounds());
}

TEST_F(FieldsTest, CountsMatchGroundTruthPerField) {
  const auto x = sim::generate_field(20000, 7);
  const auto vx = sim::generate_field(20000, 8);
  const auto phi = sim::generate_field(20000, 9);
  auto x_b = x;
  auto vx_b = vx;
  sim::apply_divergence(x_b, {.region_fraction = 0.05, .region_values = 128,
                              .magnitude = 1e-3, .seed = 10});
  sim::apply_divergence(vx_b, {.region_fraction = 0.08, .region_values = 64,
                               .magnitude = 1e-2, .seed = 11});
  write_three_field_checkpoint(dir_.file("a.ckpt"), x, vx, phi);
  write_three_field_checkpoint(dir_.file("b.ckpt"), x_b, vx_b, phi);

  const FieldCompareOptions options = tight_x_loose_phi();
  const auto report =
      compare_fields(dir_.file("a.ckpt"), dir_.file("b.ckpt"), options);
  ASSERT_TRUE(report.is_ok());
  const auto& fields = report.value().fields;
  EXPECT_EQ(fields[0].values_exceeding, sim::count_exceeding(x, x_b, 1e-6));
  EXPECT_EQ(fields[1].values_exceeding,
            sim::count_exceeding(vx, vx_b, 1e-4));
  EXPECT_EQ(fields[2].values_exceeding, 0U);
}

TEST_F(FieldsTest, DiffsCarryFieldLocalIndices) {
  auto x = sim::generate_field(5000, 12);
  const auto vx = sim::generate_field(5000, 13);
  const auto phi = sim::generate_field(5000, 14);
  write_three_field_checkpoint(dir_.file("a.ckpt"), x, vx, phi);
  x[321] += 1.0f;
  write_three_field_checkpoint(dir_.file("b.ckpt"), x, vx, phi);

  FieldCompareOptions options = tight_x_loose_phi();
  options.compare.collect_diffs = true;
  const auto report =
      compare_fields(dir_.file("a.ckpt"), dir_.file("b.ckpt"), options);
  ASSERT_TRUE(report.is_ok());
  ASSERT_EQ(report.value().diffs.size(), 1U);
  EXPECT_EQ(report.value().diffs[0].field, "X");
  EXPECT_EQ(report.value().diffs[0].element_index, 321U);
}

TEST_F(FieldsTest, DiffSampleIsTheSmallestIndicesAscending) {
  const auto x = sim::generate_field(20000, 21);
  const auto vx = sim::generate_field(20000, 22);
  const auto phi = sim::generate_field(20000, 23);
  auto x_b = x;
  auto vx_b = vx;
  sim::apply_divergence(x_b, {.region_fraction = 0.05, .region_values = 64,
                              .magnitude = 1e-3, .seed = 24});
  sim::apply_divergence(vx_b, {.region_fraction = 0.05, .region_values = 64,
                               .magnitude = 1e-2, .seed = 25});
  write_three_field_checkpoint(dir_.file("a.ckpt"), x, vx, phi);
  write_three_field_checkpoint(dir_.file("b.ckpt"), x_b, vx_b, phi);

  // Ground truth in data-section order: X's violations, then VX's.
  std::vector<std::pair<std::string, std::uint64_t>> truth;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::abs(double{x[i]} - double{x_b[i]}) > 1e-6) {
      truth.emplace_back("X", i);
    }
  }
  for (std::size_t i = 0; i < vx.size(); ++i) {
    if (std::abs(double{vx[i]} - double{vx_b[i]}) > 1e-4) {
      truth.emplace_back("VX", i);
    }
  }

  FieldCompareOptions options = tight_x_loose_phi();
  options.compare.collect_diffs = true;
  options.compare.max_diffs = 40;
  options.compare.exec = par::Exec::parallel();
  const auto report =
      compare_fields(dir_.file("a.ckpt"), dir_.file("b.ckpt"), options);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  ASSERT_GT(truth.size(), options.compare.max_diffs);
  truth.resize(options.compare.max_diffs);
  const auto& diffs = report.value().diffs;
  ASSERT_EQ(diffs.size(), truth.size());
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    EXPECT_EQ(diffs[i].field, truth[i].first) << i;
    EXPECT_EQ(diffs[i].element_index, truth[i].second) << i;
    if (i > 0) {
      EXPECT_LT(diffs[i - 1].value_index, diffs[i].value_index);
    }
  }
}

TEST_F(FieldsTest, StaleBundleWithDifferentBoundRejected) {
  const auto x = sim::generate_field(1000, 15);
  write_three_field_checkpoint(dir_.file("a.ckpt"), x, x, x);
  write_three_field_checkpoint(dir_.file("b.ckpt"), x, x, x);
  ASSERT_TRUE(compare_fields(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                             tight_x_loose_phi())
                  .is_ok());
  FieldCompareOptions changed = tight_x_loose_phi();
  changed.field_bounds["X"] = 1e-3;  // sidecars were built at 1e-6
  const auto report =
      compare_fields(dir_.file("a.ckpt"), dir_.file("b.ckpt"), changed);
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), repro::StatusCode::kFailedPrecondition);
}

TEST_F(FieldsTest, LayoutMismatchRejected) {
  const auto x = sim::generate_field(1000, 16);
  write_three_field_checkpoint(dir_.file("a.ckpt"), x, x, x);
  ckpt::CheckpointWriter writer("test", "run", 1, 0);
  ASSERT_TRUE(writer.add_field_f32("X", x).is_ok());
  ASSERT_TRUE(writer.write(dir_.file("b.ckpt")).is_ok());
  EXPECT_FALSE(compare_fields(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                              tight_x_loose_phi())
                   .is_ok());
}

TEST_F(FieldsTest, BundleBuildValidatesSpanSize) {
  const auto x = sim::generate_field(100, 17);
  ckpt::CheckpointWriter writer("test", "run", 1, 0);
  ASSERT_TRUE(writer.add_field_f32("X", x).is_ok());
  const std::vector<std::uint8_t> short_data(10);
  EXPECT_FALSE(
      build_field_bundle(writer.info(), short_data, tight_x_loose_phi())
          .is_ok());
}

}  // namespace
}  // namespace repro::cmp
