#include "cluster/world.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "cluster/distributed.hpp"
#include "common/fs.hpp"
#include "merkle/flat.hpp"
#include "sim/workload.hpp"

namespace repro::cluster {
namespace {

TEST(World, RunsEveryRankExactlyOnce) {
  std::mutex mu;
  std::set<unsigned> seen;
  const repro::Status status = World::run(4, [&](Rank& rank) {
    EXPECT_EQ(rank.size(), 4U);
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.insert(rank.rank()).second);
    return repro::Status::ok();
  });
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(seen, (std::set<unsigned>{0, 1, 2, 3}));
}

TEST(World, ZeroSizeRejected) {
  EXPECT_FALSE(World::run(0, [](Rank&) { return repro::Status::ok(); })
                   .is_ok());
}

TEST(World, SingleRankWorldWorks) {
  const repro::Status status = World::run(1, [](Rank& rank) {
    rank.barrier();
    EXPECT_EQ(rank.allreduce_sum(std::uint64_t{5}), 5U);
    EXPECT_EQ(rank.broadcast(42, 0), 42U);
    return repro::Status::ok();
  });
  EXPECT_TRUE(status.is_ok());
}

TEST(World, ErrorFromOneRankSurfaces) {
  const repro::Status status = World::run(3, [](Rank& rank) {
    if (rank.rank() == 1) return repro::io_error("rank 1 exploded");
    return repro::Status::ok();
  });
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.message(), "rank 1 exploded");
}

TEST(World, BarrierSynchronizes) {
  // Phase counter: no rank may enter phase 2 before all finished phase 1.
  std::atomic<int> phase1_done{0};
  std::atomic<bool> violated{false};
  const repro::Status status = World::run(4, [&](Rank& rank) {
    phase1_done.fetch_add(1);
    rank.barrier();
    if (phase1_done.load() != 4) violated = true;
    return repro::Status::ok();
  });
  EXPECT_TRUE(status.is_ok());
  EXPECT_FALSE(violated.load());
}

TEST(World, AllReduceSumU64) {
  const repro::Status status = World::run(5, [](Rank& rank) {
    const std::uint64_t total =
        rank.allreduce_sum(std::uint64_t{rank.rank() + 1});
    EXPECT_EQ(total, 1U + 2 + 3 + 4 + 5);
    return repro::Status::ok();
  });
  EXPECT_TRUE(status.is_ok());
}

TEST(World, AllReduceSumDoubleIsDeterministic) {
  // Same inputs -> bit-identical result on every rank and every repetition
  // (the allreduce uses a fixed summation order).
  double first = 0;
  for (int repetition = 0; repetition < 5; ++repetition) {
    std::mutex mu;
    std::vector<double> results;
    const repro::Status status = World::run(4, [&](Rank& rank) {
      const double total = rank.allreduce_sum(0.1 * (rank.rank() + 1));
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(total);
      return repro::Status::ok();
    });
    EXPECT_TRUE(status.is_ok());
    ASSERT_EQ(results.size(), 4U);
    for (const double r : results) EXPECT_EQ(r, results[0]);
    if (repetition == 0) {
      first = results[0];
    } else {
      EXPECT_EQ(results[0], first);
    }
  }
}

TEST(World, AllReduceMinMax) {
  const repro::Status status = World::run(4, [](Rank& rank) {
    const std::uint64_t value = 10 + rank.rank() * 10;
    EXPECT_EQ(rank.allreduce_min(value), 10U);
    EXPECT_EQ(rank.allreduce_max(value), 40U);
    return repro::Status::ok();
  });
  EXPECT_TRUE(status.is_ok());
}

TEST(World, BroadcastFromEachRoot) {
  const repro::Status status = World::run(4, [](Rank& rank) {
    for (unsigned root = 0; root < 4; ++root) {
      const std::uint64_t got = rank.broadcast(100 + rank.rank(), root);
      EXPECT_EQ(got, 100U + root);
    }
    return repro::Status::ok();
  });
  EXPECT_TRUE(status.is_ok());
}

TEST(World, BackToBackCollectivesDoNotInterfere) {
  const repro::Status status = World::run(3, [](Rank& rank) {
    for (int round = 0; round < 50; ++round) {
      const std::uint64_t sum =
          rank.allreduce_sum(std::uint64_t{1});
      EXPECT_EQ(sum, 3U);
      const std::uint64_t max = rank.allreduce_max(rank.rank());
      EXPECT_EQ(max, 2U);
    }
    return repro::Status::ok();
  });
  EXPECT_TRUE(status.is_ok());
}

// ---- distributed history comparison over the world ----

class DistributedTest : public ::testing::Test {
 protected:
  DistributedTest() : dir_{"distributed-test"}, catalog_{dir_.path()} {}

  void make_history(std::uint32_t ranks, std::uint64_t divergent_iteration) {
    merkle::TreeParams params;
    params.chunk_bytes = 4096;
    params.hash.error_bound = 1e-5;
    for (const std::uint64_t iteration : {10U, 20U, 30U}) {
      for (std::uint32_t rank = 0; rank < ranks; ++rank) {
        auto values = sim::generate_field(10000, iteration * 100 + rank);
        for (const char* run : {"a", "b"}) {
          auto data = values;
          if (std::string{run} == "b" && iteration >= divergent_iteration) {
            sim::apply_divergence(
                data, {.region_fraction = 0.05, .region_values = 100,
                       .magnitude = 1e-3, .seed = iteration + rank});
            truth_ += sim::count_exceeding(values, data, 1e-5);
          }
          const auto ref = catalog_.make_ref(run, iteration, rank);
          ASSERT_TRUE(ref.is_ok());
          ckpt::CheckpointWriter writer("test", run, iteration, rank);
          ASSERT_TRUE(writer.add_field_f32("X", data).is_ok());
          ASSERT_TRUE(writer.write(ref.value().checkpoint_path).is_ok());
          const auto tree = merkle::TreeBuilder(params, par::Exec::serial())
                                .build(writer.data_section());
          ASSERT_TRUE(tree.is_ok());
          ASSERT_TRUE(merkle::save_flat(tree.value(),
                                        ref.value().metadata_path)
                          .is_ok());
        }
      }
    }
  }

  DistributedOptions options(unsigned world_size) {
    DistributedOptions opts;
    opts.world_size = world_size;
    opts.pair_options.error_bound = 1e-5;
    opts.pair_options.tree.chunk_bytes = 4096;
    opts.pair_options.tree.hash.error_bound = 1e-5;
    opts.pair_options.backend = io::BackendKind::kPread;
    return opts;
  }

  repro::TempDir dir_;
  ckpt::HistoryCatalog catalog_;
  std::uint64_t truth_ = 0;
};

TEST_F(DistributedTest, AggregatesMatchTruthAcrossWorldSizes) {
  make_history(/*ranks=*/4, /*divergent_iteration=*/20);
  for (const unsigned world_size : {1U, 2U, 4U, 8U}) {
    const auto report = distributed_history_compare(catalog_, "a", "b",
                                                    options(world_size));
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().pairs_compared, 12U) << world_size;
    EXPECT_EQ(report.value().values_exceeding, truth_) << world_size;
    ASSERT_TRUE(report.value().first_divergent_iteration.has_value());
    EXPECT_EQ(*report.value().first_divergent_iteration, 20U);
  }
}

TEST_F(DistributedTest, CleanHistoriesReportNoDivergence) {
  make_history(/*ranks=*/2, /*divergent_iteration=*/99);
  const auto report =
      distributed_history_compare(catalog_, "a", "b", options(3));
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().values_exceeding, 0U);
  EXPECT_FALSE(report.value().first_divergent_iteration.has_value());
  EXPECT_EQ(report.value().bytes_read_per_file, 0U);
}

TEST_F(DistributedTest, RankFailureDoesNotDeadlock) {
  make_history(/*ranks=*/2, /*divergent_iteration=*/20);
  // Corrupt one checkpoint so a mid-worklist pair fails inside a rank.
  const auto victim = catalog_.ref("b", 20, 1).checkpoint_path;
  ASSERT_TRUE(
      repro::write_file(victim, std::vector<std::uint8_t>(64, 0xFF)).is_ok());
  const auto report =
      distributed_history_compare(catalog_, "a", "b", options(4));
  EXPECT_FALSE(report.is_ok());  // and, crucially, it returned at all
}

}  // namespace
}  // namespace repro::cluster
