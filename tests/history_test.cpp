#include "ckpt/history.hpp"

#include <gtest/gtest.h>

#include "ckpt/format.hpp"
#include "common/fs.hpp"

namespace repro::ckpt {
namespace {

void write_checkpoint(const HistoryCatalog& catalog, const std::string& run,
                      std::uint64_t iteration, std::uint32_t rank) {
  const auto ref = catalog.make_ref(run, iteration, rank);
  ASSERT_TRUE(ref.is_ok());
  CheckpointWriter writer("app", run, iteration, rank);
  std::vector<float> values(16, static_cast<float>(iteration));
  ASSERT_TRUE(writer.add_field_f32("X", values).is_ok());
  ASSERT_TRUE(writer.write(ref.value().checkpoint_path).is_ok());
}

TEST(HistoryCatalog, RefPathsFollowLayout) {
  HistoryCatalog catalog{"/pfs/root"};
  const CheckpointRef ref = catalog.ref("run-1", 20, 3);
  EXPECT_EQ(ref.checkpoint_path.string(),
            "/pfs/root/run-1/iter20/rank3.ckpt");
  EXPECT_EQ(ref.metadata_path.string(), "/pfs/root/run-1/iter20/rank3.rmrk");
  EXPECT_EQ(ref.run_id, "run-1");
  EXPECT_EQ(ref.iteration, 20U);
  EXPECT_EQ(ref.rank, 3U);
}

TEST(HistoryCatalog, MakeRefCreatesDirectories) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  const auto ref = catalog.make_ref("r", 5, 0);
  ASSERT_TRUE(ref.is_ok());
  EXPECT_TRUE(std::filesystem::is_directory(
      ref.value().checkpoint_path.parent_path()));
}

TEST(HistoryCatalog, RunsListsSorted) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  write_checkpoint(catalog, "zeta", 1, 0);
  write_checkpoint(catalog, "alpha", 1, 0);
  const auto runs = catalog.runs();
  ASSERT_TRUE(runs.is_ok());
  ASSERT_EQ(runs.value().size(), 2U);
  EXPECT_EQ(runs.value()[0], "alpha");
  EXPECT_EQ(runs.value()[1], "zeta");
}

TEST(HistoryCatalog, CheckpointsSortedByIterationThenRank) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  write_checkpoint(catalog, "r", 20, 1);
  write_checkpoint(catalog, "r", 10, 0);
  write_checkpoint(catalog, "r", 10, 1);
  write_checkpoint(catalog, "r", 20, 0);
  const auto list = catalog.checkpoints("r");
  ASSERT_TRUE(list.is_ok());
  ASSERT_EQ(list.value().size(), 4U);
  EXPECT_EQ(list.value()[0].iteration, 10U);
  EXPECT_EQ(list.value()[0].rank, 0U);
  EXPECT_EQ(list.value()[1].rank, 1U);
  EXPECT_EQ(list.value()[2].iteration, 20U);
  EXPECT_EQ(list.value()[3].rank, 1U);
}

TEST(HistoryCatalog, IgnoresForeignFiles) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  write_checkpoint(catalog, "r", 10, 0);
  // Junk that must not be picked up.
  ASSERT_TRUE(repro::write_file(dir.path() / "r" / "iter10" / "notes.txt",
                                std::vector<std::uint8_t>{1})
                  .is_ok());
  std::filesystem::create_directories(dir.path() / "r" / "misc");
  const auto list = catalog.checkpoints("r");
  ASSERT_TRUE(list.is_ok());
  EXPECT_EQ(list.value().size(), 1U);
}

TEST(HistoryCatalog, MissingRunIsNotFound) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  EXPECT_EQ(catalog.checkpoints("ghost").status().code(),
            repro::StatusCode::kNotFound);
}

TEST(PairRuns, AlignedHistoriesPairUp) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  for (const std::string run : {"a", "b"}) {
    for (const std::uint64_t iteration : {10U, 20U}) {
      for (const std::uint32_t rank : {0U, 1U}) {
        write_checkpoint(catalog, run, iteration, rank);
      }
    }
  }
  const auto pairs = catalog.pair_runs("a", "b");
  ASSERT_TRUE(pairs.is_ok());
  ASSERT_EQ(pairs.value().size(), 4U);
  for (const auto& pair : pairs.value()) {
    EXPECT_EQ(pair.run_a.iteration, pair.run_b.iteration);
    EXPECT_EQ(pair.run_a.rank, pair.run_b.rank);
    EXPECT_EQ(pair.run_a.run_id, "a");
    EXPECT_EQ(pair.run_b.run_id, "b");
  }
}

TEST(PairRuns, CountMismatchRejected) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  write_checkpoint(catalog, "a", 10, 0);
  write_checkpoint(catalog, "a", 20, 0);
  write_checkpoint(catalog, "b", 10, 0);
  EXPECT_EQ(catalog.pair_runs("a", "b").status().code(),
            repro::StatusCode::kFailedPrecondition);
}

TEST(PairRuns, MisalignedSchedulesRejected) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  write_checkpoint(catalog, "a", 10, 0);
  write_checkpoint(catalog, "b", 15, 0);  // same count, different iteration
  EXPECT_EQ(catalog.pair_runs("a", "b").status().code(),
            repro::StatusCode::kFailedPrecondition);
}

TEST(PairRuns, MismatchNamesTheOneSidedCheckpoint) {
  // Same count, two one-sided slots: a's iteration 20 and b's (40, rank 1).
  // The error names the first of them in (iteration, rank) order.
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  for (const std::uint64_t iteration : {10U, 20U, 30U}) {
    write_checkpoint(catalog, "a", iteration, 0);
  }
  write_checkpoint(catalog, "b", 10, 0);
  write_checkpoint(catalog, "b", 30, 0);
  write_checkpoint(catalog, "b", 40, 1);
  const auto pairs = catalog.pair_runs("a", "b");
  ASSERT_EQ(pairs.status().code(), repro::StatusCode::kFailedPrecondition);
  const std::string& message = pairs.status().message();
  EXPECT_NE(message.find("iter20/rank0 exists only in run a"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("one-sided checkpoints: 2"), std::string::npos)
      << message;
}

TEST(PairRunsLenient, AlignedHistoriesHaveNoLeftovers) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  for (const std::string run : {"a", "b"}) {
    write_checkpoint(catalog, run, 10, 0);
    write_checkpoint(catalog, run, 20, 0);
  }
  const auto report = catalog.pair_runs_lenient("a", "b");
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().pairs.size(), 2U);
  EXPECT_FALSE(report.value().ragged());
}

TEST(PairRunsLenient, MissingIterationsOnOneSidePairTheRest) {
  // Run b crashed after iteration 10: its iteration 20/30 checkpoints are
  // gone. The lenient pairing compares the shared prefix and reports the
  // orphans instead of refusing.
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  for (const std::uint64_t iteration : {10U, 20U, 30U}) {
    write_checkpoint(catalog, "a", iteration, 0);
  }
  write_checkpoint(catalog, "b", 10, 0);
  const auto report = catalog.pair_runs_lenient("a", "b");
  ASSERT_TRUE(report.is_ok());
  ASSERT_EQ(report.value().pairs.size(), 1U);
  EXPECT_EQ(report.value().pairs[0].run_a.iteration, 10U);
  EXPECT_TRUE(report.value().ragged());
  ASSERT_EQ(report.value().only_in_a.size(), 2U);
  EXPECT_EQ(report.value().only_in_a[0].iteration, 20U);
  EXPECT_EQ(report.value().only_in_a[1].iteration, 30U);
  EXPECT_TRUE(report.value().only_in_b.empty());
}

TEST(PairRunsLenient, ExtraRanksInterleaveCorrectly) {
  // Run b ran with one extra rank and run a has a rank only it captured:
  // one-sided slots land on the correct side, matched slots still pair.
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  write_checkpoint(catalog, "a", 10, 0);
  write_checkpoint(catalog, "a", 10, 2);
  write_checkpoint(catalog, "b", 10, 0);
  write_checkpoint(catalog, "b", 10, 1);
  write_checkpoint(catalog, "b", 10, 3);
  const auto report = catalog.pair_runs_lenient("a", "b");
  ASSERT_TRUE(report.is_ok());
  ASSERT_EQ(report.value().pairs.size(), 1U);
  EXPECT_EQ(report.value().pairs[0].run_a.rank, 0U);
  ASSERT_EQ(report.value().only_in_a.size(), 1U);
  EXPECT_EQ(report.value().only_in_a[0].rank, 2U);
  ASSERT_EQ(report.value().only_in_b.size(), 2U);
  EXPECT_EQ(report.value().only_in_b[0].rank, 1U);
  EXPECT_EQ(report.value().only_in_b[1].rank, 3U);
}

TEST(PairRunsLenient, DisjointHistoriesPairNothing) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  write_checkpoint(catalog, "a", 10, 0);
  write_checkpoint(catalog, "b", 20, 0);
  const auto report = catalog.pair_runs_lenient("a", "b");
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().pairs.empty());
  EXPECT_EQ(report.value().only_in_a.size(), 1U);
  EXPECT_EQ(report.value().only_in_b.size(), 1U);
}

TEST(PairRunsLenient, MissingRunStillErrors) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  write_checkpoint(catalog, "a", 10, 0);
  EXPECT_EQ(catalog.pair_runs_lenient("a", "ghost").status().code(),
            repro::StatusCode::kNotFound);
}

TEST(CheckpointRef, HasMetadataChecksFilesystem) {
  repro::TempDir dir{"history-test"};
  HistoryCatalog catalog{dir.path()};
  write_checkpoint(catalog, "r", 10, 0);
  CheckpointRef ref = catalog.ref("r", 10, 0);
  EXPECT_FALSE(ref.has_metadata());
  ASSERT_TRUE(repro::write_file(ref.metadata_path,
                                std::vector<std::uint8_t>{1, 2, 3})
                  .is_ok());
  EXPECT_TRUE(ref.has_metadata());
}

}  // namespace
}  // namespace repro::ckpt
