// Stage 1 of the two-stage comparison (Section 2.3, Figure 4): walk two
// Merkle trees level-synchronously, prune every subtree whose root digests
// match, and return the leaves that *may* differ. Starting level is
// configurable — the paper starts "in the middle of the tree" so every
// parallel lane has work; bench_ablation_start_level quantifies the choice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"
#include "par/exec.hpp"

namespace repro::merkle {

struct TreeCompareOptions {
  /// Level to seed the BFS from: -1 = auto (shallowest level with at least
  /// 4x the executor's parallel ways), 0 = root, layout.depth = leaves.
  int start_level = -1;
  /// Runs BFS levels whose frontier reaches kParallelFrontierNodes.
  par::Exec exec = par::Exec::parallel();
};

/// Smallest BFS frontier compare_trees fans out onto the executor. A node
/// compare is two 16-byte digest loads, a few nanoseconds, so 4 Ki nodes
/// is ~10 µs of work: about what waking the pool and joining it costs.
/// Smaller levels, i.e. every level of a mostly clean pair's descent, run
/// on the calling thread.
inline constexpr std::size_t kParallelFrontierNodes = 4096;

struct TreeCompareStats {
  std::uint64_t nodes_visited = 0;      ///< hash comparisons performed
  std::uint64_t subtrees_pruned = 0;    ///< matching non-leaf nodes dropped
  std::uint64_t levels_traversed = 0;
};

/// Returns the sorted indices of chunks whose leaf digests differ between
/// the two trees. Errors if the trees were built with incompatible
/// parameters (chunk size, error bound, value kind) or over different data
/// sizes — the paper's model aligns checkpoints across runs one-to-one.
///
/// The core implementation runs over TreeView, so a mapped flat sidecar is
/// compared in place with no node materialization; the MerkleTree overload
/// wraps the decoded trees in aliasing views (same digests, same walk).
repro::Result<std::vector<std::uint64_t>> compare_trees(
    const TreeView& run_a, const TreeView& run_b,
    const TreeCompareOptions& options = {},
    TreeCompareStats* stats = nullptr);
repro::Result<std::vector<std::uint64_t>> compare_trees(
    const MerkleTree& run_a, const MerkleTree& run_b,
    const TreeCompareOptions& options = {},
    TreeCompareStats* stats = nullptr);

/// Reference implementation: compare every real leaf pair directly. Used by
/// tests to prove the pruned BFS is exact, and by the start-level ablation.
std::vector<std::uint64_t> compare_leaves_bruteforce(const TreeView& run_a,
                                                     const TreeView& run_b);
std::vector<std::uint64_t> compare_leaves_bruteforce(const MerkleTree& run_a,
                                                     const MerkleTree& run_b);

/// Pick the auto start level: shallowest level whose width >= 4 * ways,
/// clamped to the tree depth.
std::uint32_t auto_start_level(const TreeLayout& layout, std::size_t ways);

/// Expands a sorted flagged-chunk list (compare_trees output) into a dense
/// per-chunk bitmap. Forensics tools (`repro-cli timeline`'s chunk-space
/// heatmap) index this directly instead of binary-searching the list.
/// Out-of-range indices are ignored.
std::vector<bool> flagged_bitmap(std::span<const std::uint64_t> flagged,
                                 std::uint64_t num_chunks);

}  // namespace repro::merkle
