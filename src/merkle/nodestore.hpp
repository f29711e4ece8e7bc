// Tree deltas: the RMFD payload (merkle/flat.hpp) between two trees over one
// layout. Consecutive checkpoints share almost all subtrees, so a delta
// carries only the nodes whose digest changed. `compute_tree_delta` makes
// one (DeltaStore::append, `repro-cli watch`), and `apply_tree_delta`
// replays one onto its base tree (DeltaStore::tree and its timeline walk,
// the WATCH monitor). Which base a delta belongs to is the caller's
// business: DeltaStore resolves its chains from its own anchor list.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"

namespace repro::merkle {

/// Delta between two trees over the same layout/params: every node whose
/// digest differs, in ascending index order. O(nodes) digest compares.
repro::Result<TreeDelta> compute_tree_delta(const MerkleTree& base,
                                            const MerkleTree& next,
                                            std::uint64_t base_iteration,
                                            std::uint64_t iteration);

/// Reconstruct the tree at `delta.iteration` from the tree at
/// `delta.base_iteration`. Layout and params must match the delta header.
repro::Result<MerkleTree> apply_tree_delta(const MerkleTree& base,
                                           const TreeDelta& delta);

}  // namespace repro::merkle
