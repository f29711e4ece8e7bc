#include "ckpt/capture.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/fs.hpp"
#include "common/rng.hpp"
#include "merkle/compare.hpp"

namespace repro::ckpt {
namespace {

CheckpointWriter make_writer(const std::string& run, std::uint64_t iteration,
                             std::uint32_t rank, std::uint64_t seed) {
  CheckpointWriter writer("app", run, iteration, rank);
  repro::Xoshiro256 rng(seed);
  std::vector<float> values(5000);
  for (auto& v : values) v = rng.next_float();
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

}  // namespace
}  // namespace repro::ckpt
