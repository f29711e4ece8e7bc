// Randomized property sweep over the whole metadata pipeline: for random
// (value kind, chunk size, data size, error bound, divergence pattern),
//   [P1] the pruned BFS returns exactly the brute-force leaf diff set,
//   [P2] conservativeness: every chunk containing a ground-truth
//        out-of-bound difference is flagged (no false negatives),
//   [P3] the RMF2 sidecar round-trips the tree bit-exactly,
//   [P4] build + incremental update == rebuild.
// 60 random scenarios per value kind, deterministic seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "merkle/compare.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"

namespace repro::merkle {
namespace {

class MerkleProperty : public ::testing::TestWithParam<ValueKind> {};

TEST_P(MerkleProperty, PipelineInvariantsHoldOnRandomScenarios) {
  const ValueKind kind = GetParam();
  const std::uint32_t vsize = value_size(kind);
  repro::Xoshiro256 rng(static_cast<std::uint64_t>(kind) + 424242);

  for (int scenario = 0; scenario < 60; ++scenario) {
    // --- random shape ---
    const std::uint64_t num_values = 64 + rng.next_below(60000);
    const std::uint64_t data_bytes = num_values * vsize;
    const std::uint64_t chunk_values = 32 + rng.next_below(4000);
    TreeParams params;
    params.chunk_bytes = chunk_values * vsize;
    params.hash.error_bound =
        std::pow(10.0, -static_cast<double>(3 + rng.next_below(5)));
    params.value_kind = kind;
    const double eps = params.hash.error_bound;

    // --- random data (raw bytes; interpreted per kind) ---
    std::vector<std::uint8_t> run_a(data_bytes);
    if (kind == ValueKind::kF32) {
      auto* values = reinterpret_cast<float*>(run_a.data());
      for (std::uint64_t i = 0; i < num_values; ++i) {
        values[i] = static_cast<float>((rng.next_double() * 2 - 1) * 10);
      }
    } else if (kind == ValueKind::kF64) {
      auto* values = reinterpret_cast<double*>(run_a.data());
      for (std::uint64_t i = 0; i < num_values; ++i) {
        values[i] = (rng.next_double() * 2 - 1) * 10;
      }
    } else {
      for (auto& byte : run_a) byte = static_cast<std::uint8_t>(rng.next());
    }

    // --- random divergence: flip some values far beyond the bound ---
    std::vector<std::uint8_t> run_b = run_a;
    std::set<std::uint64_t> truth_chunks;
    const std::uint64_t flips = rng.next_below(30);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t victim = rng.next_below(num_values);
      if (kind == ValueKind::kF32) {
        reinterpret_cast<float*>(run_b.data())[victim] +=
            static_cast<float>(eps * 1000);
      } else if (kind == ValueKind::kF64) {
        reinterpret_cast<double*>(run_b.data())[victim] += eps * 1000;
      } else {
        run_b[victim] ^= 0x5A;
      }
      truth_chunks.insert(victim * vsize / params.chunk_bytes);
    }

    const TreeBuilder builder(params, par::Exec::serial());
    const auto tree_a = builder.build(run_a);
    const auto tree_b = builder.build(run_b);
    ASSERT_TRUE(tree_a.is_ok());
    ASSERT_TRUE(tree_b.is_ok());

    // [P1] pruned BFS == brute force, at a random start level.
    TreeCompareOptions options;
    options.start_level =
        static_cast<int>(rng.next_below(tree_a.value().layout().depth + 2)) -
        1;
    const auto flagged = compare_trees(tree_a.value(), tree_b.value(),
                                       options);
    ASSERT_TRUE(flagged.is_ok());
    EXPECT_EQ(flagged.value(),
              compare_leaves_bruteforce(tree_a.value(), tree_b.value()))
        << "scenario " << scenario;

    // [P2] conservativeness: truth subset of flagged.
    const std::set<std::uint64_t> flagged_set(flagged.value().begin(),
                                              flagged.value().end());
    for (const std::uint64_t chunk : truth_chunks) {
      EXPECT_TRUE(flagged_set.contains(chunk))
          << "false negative at chunk " << chunk << ", scenario "
          << scenario;
    }

    // [P3] RMF2 round-trip: the parsed view matches node for node.
    const std::vector<std::uint8_t> sidecar = flat_serialize(tree_a.value());
    const auto restored = BundleView::parse(sidecar);
    ASSERT_TRUE(restored.is_ok());
    ASSERT_EQ(restored.value().size(), 1U);
    const TreeView& view = restored.value().tree(0);
    EXPECT_EQ(view.params(), tree_a.value().params());
    EXPECT_EQ(view.data_bytes(), tree_a.value().data_bytes());
    EXPECT_EQ(view.root(), tree_a.value().root());
    ASSERT_EQ(view.layout().num_nodes(), tree_a.value().nodes().size());
    for (std::uint64_t i = 0; i < view.layout().num_nodes(); ++i) {
      ASSERT_EQ(view.node(i), tree_a.value().node(i))
          << "node " << i << ", scenario " << scenario;
    }

    // [P4] updating A's tree with B's data over the flagged set gives
    // exactly B's tree.
    MerkleTree updated = tree_a.value();
    ASSERT_TRUE(
        builder.update_leaves(updated, run_b, flagged.value()).is_ok());
    EXPECT_EQ(updated.root(), tree_b.value().root()) << "scenario "
                                                     << scenario;
  }
}

INSTANTIATE_TEST_SUITE_P(AllValueKinds, MerkleProperty,
                         ::testing::Values(ValueKind::kF32, ValueKind::kF64,
                                           ValueKind::kBytes),
                         [](const ::testing::TestParamInfo<ValueKind>& info) {
                           return std::string{value_kind_name(info.param)};
                         });

}  // namespace
}  // namespace repro::merkle
