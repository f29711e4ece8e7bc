// Ablation: BFS start level (Section 2.5.1).
//
// The paper starts the tree comparison "in the middle of the tree" so every
// parallel lane has work instead of idling near the root. This ablation
// sweeps the start level from the root to the leaves on a tree pair with a
// small number of differences and reports hash comparisons performed and
// wall time — exposing the trade-off the auto heuristic navigates: starting
// too deep wastes comparisons on prunable subtrees, starting at the root
// serializes the first levels.
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/timer.hpp"
#include "merkle/compare.hpp"
#include "merkle/flat.hpp"

int main() {
  using namespace repro;

  bench::print_banner(
      "Ablation: tree-comparison BFS start level",
      "Tan et al., Section 2.5.1 design choice",
      "Sparse diffs; lower nodes-visited and time are better.");

  const std::uint64_t values = (4ULL << 20) * bench::scale_factor();
  TempDir dir{"abl-start"};
  const bench::PairFiles pair = bench::make_layered_pair(dir, values, "as");

  const double eps = 1e-4;
  const std::uint64_t chunk = 4 * kKiB;
  const ckpt::CheckpointPair with_metadata =
      bench::metadata_for(pair, chunk, eps);
  const auto sidecar_a =
      merkle::MappedBundle::open(with_metadata.run_a.metadata_path);
  const auto sidecar_b =
      merkle::MappedBundle::open(with_metadata.run_b.metadata_path);
  if (!sidecar_a.is_ok() || !sidecar_b.is_ok()) {
    std::fprintf(stderr, "metadata load failed\n");
    return 1;
  }
  const auto tree_a = sidecar_a.value().sole_tree();
  const auto tree_b = sidecar_b.value().sole_tree();
  if (!tree_a.is_ok() || !tree_b.is_ok()) {
    std::fprintf(stderr, "metadata load failed\n");
    return 1;
  }
  const std::uint32_t depth = tree_a.value().layout().depth;
  std::printf("tree: %llu chunks, depth %u, auto level %u\n\n",
              static_cast<unsigned long long>(tree_a.value().num_chunks()),
              depth,
              merkle::auto_start_level(tree_a.value().layout(),
                                       par::Exec::parallel().ways()));

  TextTable table({"Start level", "Nodes visited", "Subtrees pruned",
                   "Levels", "Time (us)", "Diffs"});
  std::uint64_t diffs_at_root = 0;
  bool consistent = true;
  for (int level = -1; level <= static_cast<int>(depth); ++level) {
    merkle::TreeCompareOptions options;
    options.start_level = level;
    merkle::TreeCompareStats stats;
    Stopwatch watch;
    const auto diffs =
        merkle::compare_trees(tree_a.value(), tree_b.value(), options, &stats);
    const double seconds = watch.seconds();
    if (!diffs.is_ok()) {
      std::fprintf(stderr, "compare failed\n");
      return 1;
    }
    if (level == -1) {
      diffs_at_root = diffs.value().size();
    } else if (diffs.value().size() != diffs_at_root) {
      consistent = false;
    }
    table.add_row({level < 0 ? std::string{"auto"} : std::to_string(level),
                   std::to_string(stats.nodes_visited),
                   std::to_string(stats.subtrees_pruned),
                   std::to_string(stats.levels_traversed),
                   strprintf("%.1f", seconds * 1e6),
                   std::to_string(diffs.value().size())});
  }
  table.print();

  std::printf("\nshape check (%s): every start level returns the identical "
              "diff set; leaf-level start visits every padded leaf while "
              "shallower starts prune.\n",
              consistent ? "PASS" : "CHECK FAILED");
  return 0;
}
