#include "compare/online.hpp"

#include "compare/comparator.hpp"

#include <gtest/gtest.h>

#include "ckpt/capture.hpp"
#include "common/fs.hpp"
#include "merkle/flat.hpp"
#include "sim/workload.hpp"

namespace repro::cmp {
namespace {

constexpr double kEps = 1e-5;

merkle::TreeParams tree_params() {
  merkle::TreeParams params;
  params.chunk_bytes = 4096;
  params.hash.error_bound = kEps;
  return params;
}

/// Store a reference checkpoint + capture-time metadata in the catalog.
void store_reference(const ckpt::HistoryCatalog& catalog,
                     std::uint64_t iteration,
                     const std::vector<float>& values) {
  const auto ref = catalog.make_ref("reference", iteration, 0);
  ASSERT_TRUE(ref.is_ok());
  ckpt::CheckpointWriter writer("test", "reference", iteration, 0);
  ASSERT_TRUE(writer.add_field_f32("X", values).is_ok());
  ASSERT_TRUE(writer.write(ref.value().checkpoint_path).is_ok());
  const auto tree = merkle::TreeBuilder(tree_params(), par::Exec::serial())
                        .build(writer.data_section());
  ASSERT_TRUE(tree.is_ok());
  ASSERT_TRUE(
      merkle::save_flat(tree.value(), ref.value().metadata_path).is_ok());
}

ckpt::CheckpointWriter live_writer(std::uint64_t iteration,
                                   const std::vector<float>& values) {
  ckpt::CheckpointWriter writer("test", "live", iteration, 0);
  EXPECT_TRUE(writer.add_field_f32("X", values).is_ok());
  return writer;
}

CompareOptions online_options() {
  CompareOptions options;
  options.error_bound = kEps;
  options.tree = tree_params();
  options.backend = io::BackendKind::kPread;
  return options;
}

class OnlineTest : public ::testing::Test {
 protected:
  OnlineTest() : dir_{"online-test"}, catalog_{dir_.path()} {}
  repro::TempDir dir_;
  ckpt::HistoryCatalog catalog_;
};

TEST_F(OnlineTest, MatchingLiveDataReadsNothing) {
  const auto values = sim::generate_field(30000, 1);
  store_reference(catalog_, 10, values);

  OnlineComparator monitor(catalog_, "reference", online_options());
  const auto report = monitor.check(live_writer(10, values));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().identical_within_bound());
  EXPECT_EQ(report.value().bytes_read_per_file, 0U);
  EXPECT_EQ(monitor.reference_bytes_read(), 0U);
  EXPECT_FALSE(monitor.first_divergent_iteration().has_value());
}

TEST_F(OnlineTest, DivergenceDetectedAndCountedExactly) {
  const auto values = sim::generate_field(30000, 2);
  store_reference(catalog_, 10, values);

  auto live = values;
  sim::apply_divergence(live, {.region_fraction = 0.05, .region_values = 200,
                               .magnitude = 1e-3});
  const std::uint64_t truth = sim::count_exceeding(values, live, kEps);

  OnlineComparator monitor(catalog_, "reference", online_options());
  const auto report = monitor.check(live_writer(10, live));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().values_exceeding, truth);
  EXPECT_GT(truth, 0U);
  // Only the flagged fraction of the reference was read.
  EXPECT_GT(monitor.reference_bytes_read(), 0U);
  EXPECT_LT(monitor.reference_bytes_read(), values.size() * 4);
  EXPECT_EQ(monitor.first_divergent_iteration(), 10U);
}

TEST_F(OnlineTest, DiffsLocalized) {
  auto values = sim::generate_field(10000, 3);
  store_reference(catalog_, 10, values);
  values[777] += 1.0f;

  CompareOptions options = online_options();
  options.collect_diffs = true;
  OnlineComparator monitor(catalog_, "reference", options);
  const auto report = monitor.check(live_writer(10, values));
  ASSERT_TRUE(report.is_ok());
  ASSERT_EQ(report.value().diffs.size(), 1U);
  EXPECT_EQ(report.value().diffs[0].field, "X");
  EXPECT_EQ(report.value().diffs[0].element_index, 777U);
}

TEST_F(OnlineTest, TracksHistoryAcrossIterations) {
  OnlineComparator monitor(catalog_, "reference", online_options());
  for (const std::uint64_t iteration : {10U, 20U, 30U}) {
    auto values = sim::generate_field(10000, iteration);
    store_reference(catalog_, iteration, values);
    if (iteration >= 20) {
      sim::apply_divergence(values,
                            {.region_fraction = 0.02, .region_values = 100,
                             .magnitude = 1e-3, .seed = iteration});
    }
    const auto report = monitor.check(live_writer(iteration, values));
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  }
  ASSERT_EQ(monitor.history().size(), 3U);
  EXPECT_EQ(monitor.first_divergent_iteration(), 20U);
  EXPECT_TRUE(std::get<2>(monitor.history()[0]).identical_within_bound());
  EXPECT_FALSE(std::get<2>(monitor.history()[1]).identical_within_bound());
}

TEST_F(OnlineTest, MissingReferenceIterationFails) {
  OnlineComparator monitor(catalog_, "reference", online_options());
  const auto values = sim::generate_field(1000, 4);
  EXPECT_FALSE(monitor.check(live_writer(99, values)).is_ok());
}

TEST_F(OnlineTest, MismatchedBoundRejected) {
  const auto values = sim::generate_field(10000, 5);
  store_reference(catalog_, 10, values);
  CompareOptions options = online_options();
  options.error_bound = 1e-3;  // reference captured at 1e-5
  options.tree.hash.error_bound = 1e-3;
  OnlineComparator monitor(catalog_, "reference", options);
  const auto report = monitor.check(live_writer(10, values));
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), repro::StatusCode::kFailedPrecondition);
}

TEST_F(OnlineTest, SizeMismatchRejected) {
  store_reference(catalog_, 10, sim::generate_field(10000, 6));
  OnlineComparator monitor(catalog_, "reference", online_options());
  EXPECT_FALSE(
      monitor.check(live_writer(10, sim::generate_field(5000, 6))).is_ok());
}

TEST_F(OnlineTest, AgreesWithOfflineComparator) {
  const auto values = sim::generate_field(40000, 7);
  store_reference(catalog_, 10, values);
  auto live = values;
  sim::apply_divergence(live, {.region_fraction = 0.1, .region_values = 300,
                               .magnitude = 1e-3});

  // Online result.
  OnlineComparator monitor(catalog_, "reference", online_options());
  const auto online = monitor.check(live_writer(10, live));
  ASSERT_TRUE(online.is_ok());

  // Offline result over the same pair (live written to disk).
  const auto live_path = dir_.file("live.ckpt");
  const ckpt::CheckpointWriter writer = live_writer(10, live);
  ASSERT_TRUE(writer.write(live_path).is_ok());
  CompareOptions offline_options;
  offline_options.error_bound = kEps;
  offline_options.tree = tree_params();
  offline_options.backend = io::BackendKind::kPread;
  const auto offline = compare_files(
      catalog_.ref("reference", 10, 0).checkpoint_path, live_path,
      offline_options);
  ASSERT_TRUE(offline.is_ok()) << offline.status().to_string();

  EXPECT_EQ(online.value().values_exceeding,
            offline.value().values_exceeding);
  EXPECT_EQ(online.value().chunks_flagged, offline.value().chunks_flagged);
}

TEST_F(OnlineTest, DiffSampleMatchesComparePairRecordForRecord) {
  const auto values = sim::generate_field(40000, 9);
  store_reference(catalog_, 10, values);
  auto live = values;
  sim::apply_divergence(live, {.region_fraction = 0.3, .region_values = 200,
                               .magnitude = 1e-3, .seed = 9});
  const ckpt::CheckpointWriter writer = live_writer(10, live);
  const auto live_ref = catalog_.make_ref("live", 10, 0);
  ASSERT_TRUE(live_ref.is_ok());
  ASSERT_TRUE(writer.write(live_ref.value().checkpoint_path).is_ok());

  CompareOptions options = online_options();
  options.collect_diffs = true;
  options.max_diffs = 32;
  options.exec = par::Exec::parallel();
  OnlineComparator monitor(catalog_, "reference", options);
  const auto online = monitor.check(writer);
  ASSERT_TRUE(online.is_ok()) << online.status().to_string();
  const auto offline = compare_pair(
      {catalog_.ref("reference", 10, 0), live_ref.value()}, options);
  ASSERT_TRUE(offline.is_ok()) << offline.status().to_string();

  EXPECT_GE(online.value().chunks_flagged, 8U);
  EXPECT_GT(online.value().values_exceeding, options.max_diffs);
  const auto& got = online.value().diffs;
  const auto& want = offline.value().diffs;
  ASSERT_EQ(got.size(), options.max_diffs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].field, want[i].field) << i;
    EXPECT_EQ(got[i].element_index, want[i].element_index) << i;
    EXPECT_EQ(got[i].value_index, want[i].value_index) << i;
    EXPECT_EQ(got[i].value_a, want[i].value_a) << i;
    EXPECT_EQ(got[i].value_b, want[i].value_b) << i;
    if (i > 0) {
      EXPECT_LT(got[i - 1].value_index, got[i].value_index);
    }
  }
}

TEST_F(OnlineTest, AgreesWithComparePairOnCapturedReference) {
  // Both runs go through the capture engine with its default sidecar
  // encoding, so the online path reads exactly what the system writes.
  const auto values = sim::generate_field(40000, 8);
  auto live = values;
  sim::apply_divergence(live, {.region_fraction = 0.1, .region_values = 300,
                               .magnitude = 1e-3});
  repro::TempDir local{"online-capture-local"};
  ckpt::CaptureOptions capture_options;
  capture_options.tree = tree_params();
  {
    ckpt::CaptureEngine engine(local.path(), catalog_, capture_options);
    ckpt::CheckpointWriter reference("test", "reference", 10, 0);
    ASSERT_TRUE(reference.add_field_f32("X", values).is_ok());
    ASSERT_TRUE(engine.capture(reference).is_ok());
    ASSERT_TRUE(engine.capture(live_writer(10, live)).is_ok());
    ASSERT_TRUE(engine.wait_all().is_ok());
  }

  OnlineComparator monitor(catalog_, "reference", online_options());
  const auto online = monitor.check(live_writer(10, live));
  ASSERT_TRUE(online.is_ok()) << online.status().to_string();

  CompareOptions offline_options;
  offline_options.error_bound = kEps;
  offline_options.tree = tree_params();
  offline_options.backend = io::BackendKind::kPread;
  offline_options.build_metadata_if_missing = false;
  const ckpt::CheckpointPair pair{catalog_.ref("reference", 10, 0),
                                  catalog_.ref("live", 10, 0)};
  const auto offline = compare_pair(pair, offline_options);
  ASSERT_TRUE(offline.is_ok()) << offline.status().to_string();

  EXPECT_GT(offline.value().values_exceeding, 0U);
  EXPECT_EQ(online.value().values_exceeding,
            offline.value().values_exceeding);
  EXPECT_EQ(online.value().chunks_flagged, offline.value().chunks_flagged);
}

}  // namespace
}  // namespace repro::cmp
