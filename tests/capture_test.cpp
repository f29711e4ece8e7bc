#include "ckpt/capture.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/fs.hpp"
#include "common/rng.hpp"
#include "compare/comparator.hpp"
#include "merkle/compare.hpp"
#include "telemetry/metrics.hpp"

namespace repro::ckpt {
namespace {

/// `count` random floats in [0, 1) from `seed`, each moved by `shift`.
CheckpointWriter make_writer(const std::string& run, std::uint64_t iteration,
                             std::uint32_t rank, std::uint64_t seed,
                             std::size_t count = 5000, float shift = 0.0F) {
  CheckpointWriter writer("app", run, iteration, rank);
  repro::Xoshiro256 rng(seed);
  std::vector<float> values(count);
  for (auto& v : values) v = rng.next_float() + shift;
  EXPECT_TRUE(writer.add_field_f32("X", values).is_ok());
  return writer;
}

class CaptureTest : public ::testing::Test {
 protected:
  CaptureTest()
      : local_{"capture-local"},
        pfs_{"capture-pfs"},
        catalog_{pfs_.path()} {}

  CaptureOptions options() {
    CaptureOptions capture_options;
    capture_options.tree.chunk_bytes = 1024;
    capture_options.tree.hash.error_bound = 1e-5;
    capture_options.exec = par::Exec::serial();
    return capture_options;
  }

  repro::TempDir local_;
  repro::TempDir pfs_;
  HistoryCatalog catalog_;
};

TEST_F(CaptureTest, FlushesCheckpointAndMetadataToPfs) {
  CaptureEngine engine(local_.path(), catalog_, options());
  ASSERT_TRUE(engine.capture(make_writer("run-1", 10, 0, 1)).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());

  const CheckpointRef ref = catalog_.ref("run-1", 10, 0);
  EXPECT_TRUE(std::filesystem::exists(ref.checkpoint_path));
  EXPECT_TRUE(ref.has_metadata());

  // The flushed checkpoint parses and matches what was captured.
  const auto reader = CheckpointReader::open(ref.checkpoint_path);
  ASSERT_TRUE(reader.is_ok());
  EXPECT_EQ(reader.value().data_bytes(), 20000U);
}

TEST_F(CaptureTest, UncreatableLocalDirIsACaptureError) {
  // The local directory would sit under a regular file.
  const std::filesystem::path file = local_.file("not-a-dir");
  ASSERT_TRUE(repro::write_file(file, std::vector<std::uint8_t>{'x'}).is_ok());
  const std::filesystem::path local_dir = file / "local";
  CaptureEngine engine(local_dir, catalog_, options());
  const repro::Status status = engine.capture(make_writer("run-1", 10, 0, 1));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), repro::StatusCode::kIoError);
  EXPECT_NE(status.to_string().find(local_dir.string()), std::string::npos)
      << status.to_string();
  EXPECT_TRUE(engine.wait_all().is_ok());  // nothing was enqueued
  EXPECT_FALSE(catalog_.ref("run-1", 10, 0).has_metadata());
}

TEST_F(CaptureTest, MetadataMatchesOfflineRebuild) {
  CaptureEngine engine(local_.path(), catalog_, options());
  const CheckpointWriter writer = make_writer("run-1", 10, 0, 2);
  ASSERT_TRUE(engine.capture(writer).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());

  const CheckpointRef ref = catalog_.ref("run-1", 10, 0);
  const auto sidecar = merkle::MappedBundle::open(ref.metadata_path);
  ASSERT_TRUE(sidecar.is_ok()) << sidecar.status().to_string();
  const auto loaded = sidecar.value().sole_tree();
  ASSERT_TRUE(loaded.is_ok());

  const auto rebuilt =
      merkle::TreeBuilder(options().tree, par::Exec::serial())
          .build(writer.data_section());
  ASSERT_TRUE(rebuilt.is_ok());
  EXPECT_EQ(loaded.value().root(), rebuilt.value().root());
  EXPECT_EQ(loaded.value().num_chunks(), rebuilt.value().num_chunks());
}

TEST_F(CaptureTest, StatsAccumulate) {
  CaptureEngine engine(local_.path(), catalog_, options());
  ASSERT_TRUE(engine.capture(make_writer("run-1", 10, 0, 3)).is_ok());
  ASSERT_TRUE(engine.capture(make_writer("run-1", 20, 0, 4)).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());
  const CaptureStats& stats = engine.stats();
  EXPECT_EQ(stats.checkpoints_captured, 2U);
  EXPECT_EQ(stats.bytes_captured, 40000U);
  EXPECT_GT(stats.metadata_bytes, 0U);
  EXPECT_GT(stats.foreground_seconds, 0.0);
}

TEST_F(CaptureTest, MetadataCanBeDisabled) {
  CaptureOptions no_metadata = options();
  no_metadata.build_metadata = false;
  CaptureEngine engine(local_.path(), catalog_, no_metadata);
  ASSERT_TRUE(engine.capture(make_writer("run-1", 10, 0, 5)).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());
  const CheckpointRef ref = catalog_.ref("run-1", 10, 0);
  EXPECT_TRUE(std::filesystem::exists(ref.checkpoint_path));
  EXPECT_FALSE(ref.has_metadata());
  EXPECT_EQ(engine.stats().metadata_bytes, 0U);
}

TEST_F(CaptureTest, ManyRanksAndIterations) {
  CaptureEngine engine(local_.path(), catalog_, options());
  for (std::uint64_t iteration : {10U, 20U, 30U}) {
    for (std::uint32_t rank = 0; rank < 4; ++rank) {
      ASSERT_TRUE(
          engine.capture(make_writer("run-1", iteration, rank, iteration + rank))
              .is_ok());
    }
  }
  ASSERT_TRUE(engine.wait_all().is_ok());
  const auto list = catalog_.checkpoints("run-1");
  ASSERT_TRUE(list.is_ok());
  EXPECT_EQ(list.value().size(), 12U);
  for (const auto& ref : list.value()) {
    EXPECT_TRUE(ref.has_metadata());
  }
}

TEST_F(CaptureTest, TwoRunsAreComparableViaMetadataAlone) {
  // Capture the *same* data under two run ids: trees must agree, so a
  // comparison can prove reproducibility without any bulk reads.
  CaptureEngine engine(local_.path(), catalog_, options());
  ASSERT_TRUE(engine.capture(make_writer("run-1", 10, 0, 7)).is_ok());
  ASSERT_TRUE(engine.capture(make_writer("run-2", 10, 0, 7)).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());

  const auto sidecar_a =
      merkle::MappedBundle::open(catalog_.ref("run-1", 10, 0).metadata_path);
  const auto sidecar_b =
      merkle::MappedBundle::open(catalog_.ref("run-2", 10, 0).metadata_path);
  ASSERT_TRUE(sidecar_a.is_ok());
  ASSERT_TRUE(sidecar_b.is_ok());
  const auto tree_a = sidecar_a.value().sole_tree();
  const auto tree_b = sidecar_b.value().sole_tree();
  ASSERT_TRUE(tree_a.is_ok());
  ASSERT_TRUE(tree_b.is_ok());
  const auto diff = merkle::compare_trees(tree_a.value(), tree_b.value());
  ASSERT_TRUE(diff.is_ok());
  EXPECT_TRUE(diff.value().empty());
}

TEST_F(CaptureTest, CrashDuringFlushPublishesNothingTorn) {
  // Simulated crash while the background flusher publishes to the PFS: the
  // catalog must contain either a complete checkpoint or nothing — never a
  // torn .ckpt or a .ckpt whose .rmrk is half-written.
  CaptureEngine engine(local_.path(), catalog_, options());
  // Scope the simulated crash to PFS-side publishes: the foreground local
  // write must succeed, the background flush must die mid-publish.
  set_fail_next_publishes_for_testing(1, pfs_.path().filename().string());
  ASSERT_TRUE(engine.capture(make_writer("run-1", 10, 0, 11)).is_ok());
  const Status flush_status = engine.wait_all();
  set_fail_next_publishes_for_testing(0);

  EXPECT_FALSE(flush_status.is_ok());
  const CheckpointRef ref = catalog_.ref("run-1", 10, 0);
  EXPECT_FALSE(std::filesystem::exists(ref.checkpoint_path));
  EXPECT_FALSE(ref.has_metadata());
  // No visible checkpoint anywhere under the PFS root: the only residue a
  // crash may leave is a ".tmp-" orphan, which every catalog scan ignores.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(pfs_.path())) {
    const std::string name = entry.path().filename().string();
    EXPECT_FALSE(name.ends_with(".ckpt")) << name;
    EXPECT_FALSE(name.ends_with(".rmrk")) << name;
  }
}

TEST_F(CaptureTest, SecondCaptureSucceedsAfterCrashedFlush) {
  // The engine records the first flush error but keeps serving; a fresh
  // engine (as after restart) can publish the same checkpoint cleanly.
  {
    CaptureEngine engine(local_.path(), catalog_, options());
    set_fail_next_publishes_for_testing(1, pfs_.path().filename().string());
    ASSERT_TRUE(engine.capture(make_writer("run-1", 10, 0, 12)).is_ok());
    EXPECT_FALSE(engine.wait_all().is_ok());
    set_fail_next_publishes_for_testing(0);
  }
  CaptureEngine engine(local_.path(), catalog_, options());
  ASSERT_TRUE(engine.capture(make_writer("run-1", 10, 0, 12)).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());
  const CheckpointRef ref = catalog_.ref("run-1", 10, 0);
  EXPECT_TRUE(std::filesystem::exists(ref.checkpoint_path));
  EXPECT_TRUE(ref.has_metadata());
}

TEST_F(CaptureTest, StatsSnapshotRacesWithCapturesAndFlushes) {
  // stats() used to hand out an unlocked reference while the flusher thread
  // updated the struct; under TSan this test pins the fix (snapshot under
  // the same mutex both writers take).
  CaptureEngine engine(local_.path(), catalog_, options());
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const CaptureStats stats = engine.stats();
      EXPECT_GE(stats.checkpoints_captured, last);
      last = stats.checkpoints_captured;
      std::this_thread::yield();
    }
  });
  for (std::uint64_t iteration = 1; iteration <= 8; ++iteration) {
    ASSERT_TRUE(
        engine.capture(make_writer("run-1", iteration * 10, 0, iteration))
            .is_ok());
  }
  ASSERT_TRUE(engine.wait_all().is_ok());
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(engine.stats().checkpoints_captured, 8U);
  EXPECT_GT(engine.stats().flush_seconds, 0.0);
}

TEST_F(CaptureTest, CrashedRecaptureLeavesNoStaleSidecar) {
  // A re-capture into an existing (iteration, rank) whose flush dies
  // between the checkpoint and sidecar publishes must not leave the new
  // checkpoint beside the old sidecar: the compare would trust a tree of
  // bytes that are gone and miss every difference.
  CaptureEngine engine(local_.path(), catalog_, options());
  ASSERT_TRUE(engine.capture(make_writer("run-a", 10, 0, 21)).is_ok());
  ASSERT_TRUE(engine.capture(make_writer("run-b", 10, 0, 21)).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());

  set_fail_next_publishes_for_testing(1, ".rmrk");
  ASSERT_TRUE(
      engine.capture(make_writer("run-b", 10, 0, 21, 5000, 0.5F)).is_ok());
  const Status flushed = engine.wait_all();
  set_fail_next_publishes_for_testing(0);
  ASSERT_FALSE(flushed.is_ok());

  cmp::CompareOptions compare;
  compare.error_bound = options().tree.hash.error_bound;
  compare.tree = options().tree;
  compare.backend = io::BackendKind::kPread;
  compare.exec = par::Exec::serial();
  const auto report = cmp::compare_pair(
      {catalog_.ref("run-a", 10, 0), catalog_.ref("run-b", 10, 0)}, compare);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().values_exceeding, 0U);
}

TEST_F(CaptureTest, FailedRecapturePublishKeepsTheOldPair) {
  // A re-capture whose checkpoint publish fails before the rename (a full
  // or failing PFS, say) leaves the old checkpoint current, so the old
  // sidecar must still be beside it.
  CaptureEngine engine(local_.path(), catalog_, options());
  ASSERT_TRUE(engine.capture(make_writer("run-b", 10, 0, 21)).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());
  const CheckpointRef ref = catalog_.ref("run-b", 10, 0);
  const auto old_checkpoint = repro::read_file(ref.checkpoint_path);
  const auto old_sidecar = repro::read_file(ref.metadata_path);
  ASSERT_TRUE(old_checkpoint.is_ok());
  ASSERT_TRUE(old_sidecar.is_ok());

  set_fail_next_publishes_for_testing(1, ref.checkpoint_path.string());
  ASSERT_TRUE(
      engine.capture(make_writer("run-b", 10, 0, 21, 5000, 0.5F)).is_ok());
  const Status flushed = engine.wait_all();
  set_fail_next_publishes_for_testing(0);
  ASSERT_FALSE(flushed.is_ok());

  EXPECT_EQ(repro::read_file(ref.checkpoint_path).value(),
            old_checkpoint.value());
  const auto sidecar = repro::read_file(ref.metadata_path);
  ASSERT_TRUE(sidecar.is_ok()) << sidecar.status().to_string();
  EXPECT_EQ(sidecar.value(), old_sidecar.value());
}

// --- The overlapped write and build, on both executors -------------------

class CaptureOverlapTest : public CaptureTest,
                           public ::testing::WithParamInterface<bool> {
 protected:
  CaptureOptions overlap_options() {
    CaptureOptions capture_options = options();
    capture_options.exec =
        GetParam() ? par::Exec::parallel() : par::Exec::serial();
    return capture_options;
  }

  [[nodiscard]] std::filesystem::path local_file(
      const CheckpointWriter& writer) const {
    const CheckpointInfo& info = writer.info();
    return local_.path() / (info.run_id + "-iter" +
                            std::to_string(info.iteration) + "-rank" +
                            std::to_string(info.rank) + ".ckpt");
  }

  [[nodiscard]] bool pfs_has_checkpoints() const {
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(pfs_.path())) {
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".ckpt") || name.ends_with(".rmrk")) return true;
    }
    return false;
  }
};

INSTANTIATE_TEST_SUITE_P(Executors, CaptureOverlapTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "parallel" : "serial";
                         });

TEST_P(CaptureOverlapTest, PublishedBytesAreTheEncoderAndASerialRebuild) {
  CaptureEngine engine(local_.path(), catalog_, overlap_options());
  const CheckpointWriter writer = make_writer("run-1", 10, 0, 31, 300000);
  ASSERT_TRUE(engine.capture(writer).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());

  auto expected = encode_header(writer.info());
  ASSERT_TRUE(expected.is_ok());
  expected.value().insert(expected.value().end(),
                          writer.data_section().begin(),
                          writer.data_section().end());
  const CheckpointRef ref = catalog_.ref("run-1", 10, 0);
  EXPECT_EQ(repro::read_file(ref.checkpoint_path).value(), expected.value());
  EXPECT_EQ(repro::read_file(local_file(writer)).value(), expected.value());

  const auto rebuilt =
      merkle::TreeBuilder(options().tree, par::Exec::serial())
          .build(writer.data_section());
  ASSERT_TRUE(rebuilt.is_ok());
  EXPECT_EQ(repro::read_file(ref.metadata_path).value(),
            merkle::flat_serialize(rebuilt.value()));
}

TEST_P(CaptureOverlapTest, FailedLocalWriteFlushesNothingAndEngineRecovers) {
  CaptureEngine engine(local_.path(), catalog_, overlap_options());
  const CheckpointWriter writer = make_writer("run-1", 10, 0, 32, 300000);
  set_fail_next_publishes_for_testing(1, local_.path().filename().string());
  const Status failed = engine.capture(writer);
  set_fail_next_publishes_for_testing(0);
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.to_string();
  ASSERT_TRUE(engine.wait_all().is_ok());
  EXPECT_FALSE(pfs_has_checkpoints());
  EXPECT_FALSE(std::filesystem::exists(local_file(writer)));
  EXPECT_EQ(engine.stats().checkpoints_captured, 0U);

  ASSERT_TRUE(engine.capture(writer).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());
  const CheckpointRef ref = catalog_.ref("run-1", 10, 0);
  EXPECT_TRUE(std::filesystem::exists(ref.checkpoint_path));
  EXPECT_TRUE(ref.has_metadata());
}

TEST_P(CaptureOverlapTest, BuildFailureIsReturnedOnlyAfterTheWriteFinished) {
  // chunk_bytes 0 fails the build at once, long before an 8 MB write can
  // have finished; capture must still return only once the local
  // checkpoint is complete under its final name.
  CaptureOptions broken = overlap_options();
  broken.tree.chunk_bytes = 0;
  CaptureEngine engine(local_.path(), catalog_, broken);
  const CheckpointWriter writer = make_writer("run-1", 10, 0, 33, 2000000);
  const Status failed = engine.capture(writer);
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument)
      << failed.to_string();
  const auto local = CheckpointReader::open(local_file(writer));
  ASSERT_TRUE(local.is_ok()) << local.status().to_string();
  EXPECT_EQ(local.value().data_bytes(), writer.data_section().size());
  ASSERT_TRUE(engine.wait_all().is_ok());
  EXPECT_FALSE(pfs_has_checkpoints());
}

TEST_P(CaptureOverlapTest, WriteErrorWinsOverBuildError) {
  CaptureOptions broken = overlap_options();
  broken.tree.chunk_bytes = 0;
  CaptureEngine engine(local_.path(), catalog_, broken);
  set_fail_next_publishes_for_testing(1, local_.path().filename().string());
  const Status failed = engine.capture(make_writer("run-1", 10, 0, 34));
  set_fail_next_publishes_for_testing(0);
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.to_string();
  ASSERT_TRUE(engine.wait_all().is_ok());
  EXPECT_FALSE(pfs_has_checkpoints());
}

TEST_P(CaptureOverlapTest, StatsSplitBlockedTimeIntoWriteAndBuild) {
  auto& registry = telemetry::MetricsRegistry::global();
  const auto count_of = [&](const char* name) {
    const auto snapshot = registry.snapshot();
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? std::uint64_t{0}
                                           : it->second.count;
  };
  const std::uint64_t writes0 = count_of("capture.write.seconds");
  const std::uint64_t builds0 = count_of("capture.build.seconds");
  {
    CaptureEngine engine(local_.path(), catalog_, overlap_options());
    for (std::uint64_t iteration = 1; iteration <= 3; ++iteration) {
      ASSERT_TRUE(
          engine.capture(make_writer("run-1", iteration, 0, iteration, 100000))
              .is_ok());
    }
    ASSERT_TRUE(engine.wait_all().is_ok());
    const CaptureStats stats = engine.stats();
    EXPECT_GT(stats.write_seconds, 0.0);
    EXPECT_GT(stats.build_seconds, 0.0);
    // The halves overlap: blocked time covers each, not their sum.
    EXPECT_GE(stats.foreground_seconds, stats.write_seconds);
    EXPECT_GE(stats.foreground_seconds, stats.build_seconds);
  }
  EXPECT_EQ(count_of("capture.write.seconds"), writes0 + 3);
  EXPECT_EQ(count_of("capture.build.seconds"), builds0 + 3);

  CaptureOptions no_metadata = overlap_options();
  no_metadata.build_metadata = false;
  CaptureEngine engine(local_.path(), catalog_, no_metadata);
  ASSERT_TRUE(engine.capture(make_writer("run-2", 1, 0, 7)).is_ok());
  ASSERT_TRUE(engine.wait_all().is_ok());
  EXPECT_GT(engine.stats().write_seconds, 0.0);
  EXPECT_EQ(engine.stats().build_seconds, 0.0);
  EXPECT_EQ(count_of("capture.build.seconds"), builds0 + 3);
}

}  // namespace
}  // namespace repro::ckpt
