#include "ckpt/delta_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/fs.hpp"
#include "common/rng.hpp"
#include "merkle/compare.hpp"
#include "sim/workload.hpp"

namespace repro::ckpt {
namespace {

DeltaStoreOptions options_f32(double eps = 1e-5) {
  DeltaStoreOptions options;
  options.tree.chunk_bytes = 1024;
  options.tree.hash.error_bound = eps;
  options.exec = par::Exec::serial();
  return options;
}

DeltaStoreOptions options_bytes() {
  DeltaStoreOptions options;
  options.tree.chunk_bytes = 1024;
  options.tree.value_kind = merkle::ValueKind::kBytes;
  options.exec = par::Exec::serial();
  return options;
}

std::span<const std::uint8_t> as_bytes(const std::vector<float>& values) {
  return {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size() * sizeof(float)};
}

TEST(DeltaStore, BaseRoundTripsExactly) {
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  const auto values = sim::generate_field(10000, 1);
  ASSERT_TRUE(store.value().append(10, as_bytes(values)).is_ok());
  const auto restored = store.value().reconstruct(10);
  ASSERT_TRUE(restored.is_ok());
  ASSERT_EQ(restored.value().size(), values.size() * 4);
  EXPECT_EQ(0, std::memcmp(restored.value().data(), values.data(),
                           restored.value().size()));
}

TEST(DeltaStore, BytesKindIsBitExactAcrossIterations) {
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  repro::Xoshiro256 rng(2);
  auto values = sim::generate_field(20000, 2);
  std::vector<std::vector<float>> snapshots;
  for (const std::uint64_t iteration : {10U, 20U, 30U, 40U}) {
    // Mutate a few scattered values each "iteration".
    for (int k = 0; k < 50; ++k) {
      values[rng.next_below(values.size())] += 0.5f;
    }
    snapshots.push_back(values);
    ASSERT_TRUE(store.value().append(iteration, as_bytes(values)).is_ok());
  }
  const std::uint64_t iterations[] = {10, 20, 30, 40};
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const auto restored = store.value().reconstruct(iterations[i]);
    ASSERT_TRUE(restored.is_ok());
    EXPECT_EQ(0, std::memcmp(restored.value().data(), snapshots[i].data(),
                             restored.value().size()))
        << "iteration " << iterations[i];
  }
}

TEST(DeltaStore, UnchangedIterationStoresAlmostNothing) {
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  const auto values = sim::generate_field(50000, 3);
  ASSERT_TRUE(store.value().append(10, as_bytes(values)).is_ok());
  const std::uint64_t after_base = store.value().stats().stored_bytes;
  ASSERT_TRUE(store.value().append(20, as_bytes(values)).is_ok());
  const std::uint64_t delta_bytes =
      store.value().stats().stored_bytes - after_base;
  EXPECT_LT(delta_bytes, 128U);  // header only, no chunk payloads
  EXPECT_GT(store.value().stats().compaction_ratio(), 1.9);
}

TEST(DeltaStore, StoresOnlyChangedChunks) {
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  auto values = sim::generate_field(50000, 4);  // ~196 chunks of 1 KiB
  ASSERT_TRUE(store.value().append(10, as_bytes(values)).is_ok());
  // Change exactly 3 chunks.
  values[0] += 1.0f;
  values[256 * 10] += 1.0f;
  values[256 * 50] += 1.0f;
  ASSERT_TRUE(store.value().append(20, as_bytes(values)).is_ok());
  const DeltaStoreStats& stats = store.value().stats();
  const std::uint64_t total_chunks = stats.chunks_total / 2;  // per capture
  EXPECT_EQ(stats.chunks_stored, total_chunks + 3);
}

TEST(DeltaStore, F32ElisionStaysWithinOneBound) {
  // With an error-bounded grid, sub-bound drift is elided; the reconstructed
  // value must stay within one bound of the captured value — even after many
  // iterations of accumulated sub-bound drift (the effective-state diffing
  // guarantee).
  const double eps = 1e-3;
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_f32(eps));
  ASSERT_TRUE(store.is_ok());

  // Start on grid centers so sub-bound drift is genuinely elidable.
  auto values = sim::generate_field(20000, 5);
  for (auto& v : values) {
    v = static_cast<float>(std::llround(static_cast<double>(v) / eps) * eps);
  }
  std::vector<std::vector<float>> snapshots;
  for (std::uint64_t iteration = 1; iteration <= 8; ++iteration) {
    for (auto& v : values) {
      v += 1e-5f;  // sub-bound drift each step; accumulates to 8e-5 << eps
    }
    snapshots.push_back(values);
    ASSERT_TRUE(store.value().append(iteration, as_bytes(values)).is_ok());
  }

  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const auto restored = store.value().reconstruct(i + 1);
    ASSERT_TRUE(restored.is_ok());
    const auto* floats =
        reinterpret_cast<const float*>(restored.value().data());
    for (std::size_t v = 0; v < snapshots[i].size(); ++v) {
      EXPECT_NEAR(floats[v], snapshots[i][v], eps) << "iter " << i + 1;
    }
  }
  // And the elision actually saved storage.
  EXPECT_GT(store.value().stats().compaction_ratio(), 4.0);
}

TEST(DeltaStore, TreeUsableForCrossRunComparison) {
  TempDir dir{"delta-test"};
  auto store_a = DeltaStore::open(dir.path(), "run-a", 0, options_bytes());
  auto store_b = DeltaStore::open(dir.path(), "run-b", 0, options_bytes());
  ASSERT_TRUE(store_a.is_ok());
  ASSERT_TRUE(store_b.is_ok());
  auto values = sim::generate_field(20000, 6);
  ASSERT_TRUE(store_a.value().append(10, as_bytes(values)).is_ok());
  values[100] += 1.0f;
  ASSERT_TRUE(store_b.value().append(10, as_bytes(values)).is_ok());

  const auto tree_a = store_a.value().tree(10);
  const auto tree_b = store_b.value().tree(10);
  ASSERT_TRUE(tree_a.is_ok());
  ASSERT_TRUE(tree_b.is_ok());
  const auto diff = merkle::compare_trees(tree_a.value(), tree_b.value());
  ASSERT_TRUE(diff.is_ok());
  ASSERT_EQ(diff.value().size(), 1U);
  EXPECT_EQ(diff.value().front(), 100U * 4 / 1024);
}

TEST(DeltaStore, RejectsOutOfOrderIterations) {
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  const auto values = sim::generate_field(1000, 7);
  ASSERT_TRUE(store.value().append(20, as_bytes(values)).is_ok());
  EXPECT_FALSE(store.value().append(20, as_bytes(values)).is_ok());
  EXPECT_FALSE(store.value().append(10, as_bytes(values)).is_ok());
}

TEST(DeltaStore, RejectsSizeChange) {
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(
      store.value().append(10, as_bytes(sim::generate_field(1000, 8))).is_ok());
  EXPECT_FALSE(
      store.value().append(20, as_bytes(sim::generate_field(500, 8))).is_ok());
}

TEST(DeltaStore, ReconstructUnknownIterationFails) {
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  EXPECT_EQ(store.value().reconstruct(99).status().code(),
            repro::StatusCode::kNotFound);
}

TEST(DeltaStore, LoadResumesExistingStream) {
  TempDir dir{"delta-test"};
  auto values = sim::generate_field(20000, 9);
  {
    auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().append(10, as_bytes(values)).is_ok());
    values[50] += 1.0f;
    ASSERT_TRUE(store.value().append(20, as_bytes(values)).is_ok());
  }
  // Re-open from disk and keep appending.
  auto resumed = DeltaStore::load(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().iterations(),
            (std::vector<std::uint64_t>{10, 20}));
  values[60] += 1.0f;
  ASSERT_TRUE(resumed.value().append(30, as_bytes(values)).is_ok());
  const auto restored = resumed.value().reconstruct(30);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(0, std::memcmp(restored.value().data(), values.data(),
                           restored.value().size()));
}

TEST(DeltaStore, MultipleRanksIsolated) {
  TempDir dir{"delta-test"};
  auto store_0 = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  auto store_1 = DeltaStore::open(dir.path(), "run", 1, options_bytes());
  ASSERT_TRUE(store_0.is_ok());
  ASSERT_TRUE(store_1.is_ok());
  const auto values_0 = sim::generate_field(1000, 10);
  const auto values_1 = sim::generate_field(1000, 11);
  ASSERT_TRUE(store_0.value().append(10, as_bytes(values_0)).is_ok());
  ASSERT_TRUE(store_1.value().append(10, as_bytes(values_1)).is_ok());
  EXPECT_EQ(0, std::memcmp(store_0.value().reconstruct(10).value().data(),
                           values_0.data(), values_0.size() * 4));
  EXPECT_EQ(0, std::memcmp(store_1.value().reconstruct(10).value().data(),
                           values_1.data(), values_1.size() * 4));
}

TEST(DeltaStore, EmptyStoreCompactionRatioIsOne) {
  // A bare stats read before the first append must report 1.0x, not the
  // "0x compaction" the old zero-guard printed.
  DeltaStoreStats stats;
  EXPECT_DOUBLE_EQ(stats.compaction_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(stats.metadata_savings(), 1.0);
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  EXPECT_DOUBLE_EQ(store.value().stats().compaction_ratio(), 1.0);
}

TEST(DeltaStore, AnchorsBoundReplayAndRoundTrip) {
  TempDir dir{"delta-test"};
  auto options = options_bytes();
  options.anchor_interval = 4;
  auto store = DeltaStore::open(dir.path(), "run", 0, options);
  ASSERT_TRUE(store.is_ok());
  repro::Xoshiro256 rng(7);
  auto values = sim::generate_field(20000, 7);
  std::vector<std::vector<float>> snapshots;
  for (std::uint64_t iteration = 0; iteration < 12; ++iteration) {
    for (int k = 0; k < 30; ++k) {
      values[rng.next_below(values.size())] += 0.5f;
    }
    snapshots.push_back(values);
    ASSERT_TRUE(store.value().append(iteration, as_bytes(values)).is_ok());
  }
  // Base + every 4th append afterwards: 0, 4, 8.
  EXPECT_EQ(store.value().anchors(),
            (std::vector<std::uint64_t>{0, 4, 8}));
  for (std::uint64_t iteration = 0; iteration < 12; ++iteration) {
    const auto restored = store.value().reconstruct(iteration);
    ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
    EXPECT_EQ(0, std::memcmp(restored.value().data(),
                             snapshots[iteration].data(),
                             restored.value().size()))
        << "iteration " << iteration;
  }
}

TEST(DeltaStore, DifferentialSidecarsResolveToEffectiveTree) {
  TempDir dir{"delta-test"};
  auto options = options_bytes();
  options.anchor_interval = 4;
  auto store = DeltaStore::open(dir.path(), "run", 0, options);
  ASSERT_TRUE(store.is_ok());
  repro::Xoshiro256 rng(8);
  auto values = sim::generate_field(20000, 8);
  for (std::uint64_t iteration = 0; iteration < 10; ++iteration) {
    for (int k = 0; k < 25; ++k) {
      values[rng.next_below(values.size())] += 0.5f;
    }
    ASSERT_TRUE(store.value().append(iteration, as_bytes(values)).is_ok());
    // The chain-resolved tree must equal a fresh build over the effective
    // (reconstructable) data at every iteration, differential or anchor.
    const auto restored = store.value().reconstruct(iteration);
    ASSERT_TRUE(restored.is_ok());
    auto expect = merkle::TreeBuilder(options.tree, options.exec)
                      .build(restored.value());
    ASSERT_TRUE(expect.is_ok());
    const auto resolved = store.value().tree(iteration);
    ASSERT_TRUE(resolved.is_ok()) << resolved.status().to_string();
    EXPECT_TRUE(resolved.value().root() == expect.value().root())
        << "iteration " << iteration;
  }
}

TEST(DeltaStore, ChangedChunksMatchStoredDeltas) {
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  auto values = sim::generate_field(20000, 9);
  ASSERT_TRUE(store.value().append(0, as_bytes(values)).is_ok());
  // Chunk 1024 bytes = 256 floats: touch exactly chunks 3 and 10.
  values[3 * 256] += 1.0f;
  values[10 * 256 + 5] += 1.0f;
  ASSERT_TRUE(store.value().append(1, as_bytes(values)).is_ok());
  const auto delta = store.value().tree_delta(1);
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  EXPECT_EQ(delta.value().changed_chunks(),
            (std::vector<std::uint64_t>{3, 10}));
}

TEST(DeltaStore, MetadataDedupShrinksWithStability) {
  TempDir dir{"delta-test"};
  auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(store.is_ok());
  auto values = sim::generate_field(50000, 12);
  const std::uint64_t chunks = values.size() * 4 / 1024;
  for (std::uint64_t iteration = 0; iteration < 16; ++iteration) {
    // ~5% of chunks change each iteration: a contiguous drifting window.
    const std::uint64_t window = chunks / 20;
    const std::uint64_t start = (iteration * window) % chunks;
    for (std::uint64_t c = 0; c < window; ++c) {
      values[((start + c) % chunks) * 256] += 0.5f;
    }
    ASSERT_TRUE(store.value().append(iteration, as_bytes(values)).is_ok());
  }
  const DeltaStoreStats& stats = store.value().stats();
  EXPECT_GT(stats.metadata_full_bytes, stats.metadata_bytes);
  EXPECT_GT(stats.metadata_savings(), 3.0);
}

TEST(DeltaStore, LoadRecoversAnchorsAndDifferentialHistory) {
  TempDir dir{"delta-test"};
  auto options = options_bytes();
  options.anchor_interval = 3;
  repro::Xoshiro256 rng(13);
  auto values = sim::generate_field(10000, 13);
  {
    auto store = DeltaStore::open(dir.path(), "run", 0, options);
    ASSERT_TRUE(store.is_ok());
    for (std::uint64_t iteration = 0; iteration < 8; ++iteration) {
      for (int k = 0; k < 20; ++k) {
        values[rng.next_below(values.size())] += 0.5f;
      }
      ASSERT_TRUE(store.value().append(iteration, as_bytes(values)).is_ok());
    }
  }
  auto resumed = DeltaStore::load(dir.path(), "run", 0, options);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().iterations().size(), 8U);
  EXPECT_EQ(resumed.value().anchors(),
            (std::vector<std::uint64_t>{0, 3, 6}));
  // Every reloaded tree, replayed from its anchor, is the tree of the data
  // reconstruct() replays.
  for (const std::uint64_t iteration : resumed.value().iterations()) {
    const auto restored = resumed.value().reconstruct(iteration);
    ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
    const auto expect = merkle::TreeBuilder(options.tree, options.exec)
                            .build(restored.value());
    ASSERT_TRUE(expect.is_ok());
    const auto tree = resumed.value().tree(iteration);
    ASSERT_TRUE(tree.is_ok()) << tree.status().to_string();
    EXPECT_TRUE(std::equal(tree.value().nodes().begin(),
                           tree.value().nodes().end(),
                           expect.value().nodes().begin(),
                           expect.value().nodes().end()))
        << "iteration " << iteration;
  }
  // Resumed appends keep the anchor cadence: the last anchor was iteration
  // 6 with one delta (7) after it, so the next append is still a delta and
  // the one after that crosses the interval -> anchor.
  ASSERT_TRUE(resumed.value().append(9, as_bytes(values)).is_ok());
  EXPECT_EQ(resumed.value().anchors().back(), 6U);
  values[0] += 1.0f;
  ASSERT_TRUE(resumed.value().append(10, as_bytes(values)).is_ok());
  EXPECT_EQ(resumed.value().anchors().back(), 10U);
  const auto restored = resumed.value().reconstruct(10);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(0, std::memcmp(restored.value().data(), values.data(),
                           restored.value().size()));
}

TEST(DeltaStore, IncrementalTimelineMatchesFullCompare) {
  TempDir dir{"delta-test"};
  auto options = options_bytes();
  options.anchor_interval = 4;
  auto store_a = DeltaStore::open(dir.path(), "run_a", 0, options);
  auto store_b = DeltaStore::open(dir.path(), "run_b", 0, options);
  ASSERT_TRUE(store_a.is_ok());
  ASSERT_TRUE(store_b.is_ok());
  auto values_a = sim::generate_field(20000, 14);
  auto values_b = values_a;
  repro::Xoshiro256 rng(14);
  for (std::uint64_t iteration = 0; iteration < 10; ++iteration) {
    for (int k = 0; k < 15; ++k) {
      const std::size_t at = rng.next_below(values_a.size());
      values_a[at] += 0.5f;
      values_b[at] += 0.5f;  // same drift on both runs
    }
    if (iteration >= 5) {
      // Divergence: run B drifts away in the first chunk from here on.
      values_b[iteration] += 1.0f;
    }
    ASSERT_TRUE(
        store_a.value().append(iteration, as_bytes(values_a)).is_ok());
    ASSERT_TRUE(
        store_b.value().append(iteration, as_bytes(values_b)).is_ok());
  }
  TimelineStats stats;
  const auto timeline =
      incremental_timeline(store_a.value(), store_b.value(), &stats);
  ASSERT_TRUE(timeline.is_ok()) << timeline.status().to_string();
  ASSERT_EQ(timeline.value().size(), 10U);
  EXPECT_EQ(stats.iterations, 10U);
  EXPECT_LT(stats.node_visits, stats.full_visit_equiv);
  // Ground truth: a full tree compare at every iteration.
  for (std::size_t i = 0; i < timeline.value().size(); ++i) {
    const auto tree_a = store_a.value().tree(i);
    const auto tree_b = store_b.value().tree(i);
    ASSERT_TRUE(tree_a.is_ok());
    ASSERT_TRUE(tree_b.is_ok());
    const auto diff =
        merkle::compare_trees(tree_a.value(), tree_b.value());
    ASSERT_TRUE(diff.is_ok());
    EXPECT_EQ(timeline.value()[i].diverged_chunks, diff.value().size())
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace repro::ckpt
