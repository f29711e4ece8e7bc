// Content-addressed Merkle node store + differential sidecar resolution.
//
// Consecutive checkpoints share almost all subtrees, so storing one full
// sidecar per iteration duplicates the stable fraction of the tree every
// time. The NodeStore keeps each distinct node digest once and counts every
// reference, which makes the dedup arithmetic exact: metadata cost grows
// with divergence, not with iterations. The free functions compute/apply
// the RMFD deltas (merkle/flat.hpp) that carry only the changed subtrees
// between iterations, and resolve a chain of differential sidecars back
// into a materialized tree starting from the nearest full-tree anchor.
#pragma once

#include <cstdint>
#include <filesystem>
#include <unordered_set>
#include <vector>

#include "common/status.hpp"
#include "hash/digest.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"

namespace repro::merkle {

/// Set of distinct node digests that counts references to them. Insertion
/// is content-addressed: a digest seen before only counts a reference, so
/// `unique_bytes()` is the deduplicated metadata footprint while
/// `total_refs * kDigestBytes` is what full-per-iteration sidecars would
/// have stored.
class NodeStore {
 public:
  struct Stats {
    std::uint64_t unique_nodes = 0;  ///< digests stored
    std::uint64_t total_refs = 0;    ///< references across all digests
    std::uint64_t inserts = 0;       ///< insert() calls ever made
    std::uint64_t deduped = 0;       ///< inserts that hit an existing digest

    [[nodiscard]] std::uint64_t unique_bytes() const noexcept {
      return unique_nodes * hash::kDigestBytes;
    }
    [[nodiscard]] double dedup_ratio() const noexcept {
      return unique_nodes > 0
                 ? static_cast<double>(total_refs) /
                       static_cast<double>(unique_nodes)
                 : 1.0;
    }
  };

  /// Add one reference; returns true when the digest was not stored before.
  bool insert(const hash::Digest128& digest);

  /// Add one reference per digest; returns how many were new.
  std::uint64_t insert_all(std::span<const hash::Digest128> digests);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return digests_.size(); }

 private:
  struct DigestHash {
    std::size_t operator()(const hash::Digest128& d) const noexcept {
      // Digests are already uniform hashes; fold hi into lo for the bucket.
      return static_cast<std::size_t>(d.lo ^ (d.hi * 0x9E3779B97F4A7C15ULL));
    }
  };
  std::unordered_set<hash::Digest128, DigestHash> digests_;
  Stats stats_;
};

/// Node indices dirtied by the given sorted chunk list: every listed leaf
/// plus all its ancestors up to the root, deduplicated and sorted ascending.
[[nodiscard]] std::vector<std::uint64_t> dirty_node_indices(
    const TreeLayout& layout, std::span<const std::uint64_t> changed_chunks);

/// Delta between two trees over the same layout/params: every node whose
/// digest differs. O(nodes) digest compares.
repro::Result<TreeDelta> compute_tree_delta(const MerkleTree& base,
                                            const MerkleTree& next,
                                            std::uint64_t base_iteration,
                                            std::uint64_t iteration);

/// Reconstruct the tree at `delta.iteration` from the tree at
/// `delta.base_iteration`. Layout and params must match the delta header.
repro::Result<MerkleTree> apply_tree_delta(const MerkleTree& base,
                                           const TreeDelta& delta);

/// Load the tree a sidecar describes, following differential links: a file
/// holding a full tree resolves immediately; a delta-only file loads its
/// base sidecar (`iter<base_iteration>.rmrk` next to it) and replays the
/// chain, bounded by the strictly-decreasing base iterations.
repro::Result<MerkleTree> resolve_delta_chain(
    const std::filesystem::path& path);

}  // namespace repro::merkle
