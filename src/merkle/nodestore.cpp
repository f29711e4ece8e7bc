#include "merkle/nodestore.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace repro::merkle {

namespace {

// A hostile file could name a long (or cyclic, if base >= iteration were
// allowed) chain; the decoder enforces strictly decreasing base iterations,
// so this cap only bounds pathological-but-valid chains.
constexpr std::uint64_t kMaxChainHops = 4096;

std::filesystem::path sibling_sidecar(const std::filesystem::path& path,
                                      std::uint64_t iteration) {
  return path.parent_path() /
         ("iter" + std::to_string(iteration) + ".rmrk");
}

}  // namespace

bool NodeStore::insert(const hash::Digest128& digest) {
  ++stats_.inserts;
  ++stats_.total_refs;
  const bool fresh = digests_.insert(digest).second;
  if (fresh) {
    ++stats_.unique_nodes;
  } else {
    ++stats_.deduped;
  }
  return fresh;
}

std::uint64_t NodeStore::insert_all(
    std::span<const hash::Digest128> digests) {
  std::uint64_t fresh = 0;
  for (const hash::Digest128& digest : digests) {
    fresh += insert(digest) ? 1 : 0;
  }
  return fresh;
}

std::vector<std::uint64_t> dirty_node_indices(
    const TreeLayout& layout, std::span<const std::uint64_t> changed_chunks) {
  std::vector<std::uint64_t> dirty;
  dirty.reserve(changed_chunks.size() * (layout.depth + 1));
  for (const std::uint64_t chunk : changed_chunks) {
    std::uint64_t node = layout.leaf_node(chunk);
    dirty.push_back(node);
    while (node != 0) {
      node = TreeLayout::parent(node);
      dirty.push_back(node);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

repro::Result<TreeDelta> compute_tree_delta(const MerkleTree& base,
                                            const MerkleTree& next,
                                            std::uint64_t base_iteration,
                                            std::uint64_t iteration) {
  if (base_iteration >= iteration) {
    return repro::failed_precondition(
        "tree delta base_iteration must precede iteration");
  }
  if (base.layout().num_leaves != next.layout().num_leaves) {
    return repro::failed_precondition(
        "tree delta requires matching leaf counts");
  }
  if (!(base.params() == next.params())) {
    return repro::failed_precondition(
        "tree delta requires matching tree params");
  }
  TreeDelta delta;
  delta.iteration = iteration;
  delta.base_iteration = base_iteration;
  delta.params = next.params();
  delta.data_bytes = next.data_bytes();
  delta.num_leaves = next.layout().num_leaves;
  const std::span<const hash::Digest128> old_nodes = base.nodes();
  const std::span<const hash::Digest128> new_nodes = next.nodes();
  for (std::uint64_t i = 0; i < new_nodes.size(); ++i) {
    if (!(old_nodes[i] == new_nodes[i])) {
      delta.nodes.push_back({i, new_nodes[i]});
    }
  }
  return delta;
}

repro::Result<MerkleTree> apply_tree_delta(const MerkleTree& base,
                                           const TreeDelta& delta) {
  if (base.layout().num_leaves != delta.num_leaves) {
    return repro::failed_precondition(
        "delta leaf count does not match base tree");
  }
  if (!(base.params() == delta.params)) {
    return repro::failed_precondition(
        "delta tree params do not match base tree");
  }
  std::vector<hash::Digest128> nodes(base.nodes().begin(),
                                     base.nodes().end());
  for (const DeltaNode& node : delta.nodes) {
    if (node.index >= nodes.size()) {
      return repro::corrupt_data("delta node index exceeds tree node count");
    }
    nodes[node.index] = node.digest;
  }
  return MerkleTree::from_parts(delta.params, delta.data_bytes,
                                delta.num_leaves, std::move(nodes));
}

repro::Result<MerkleTree> resolve_delta_chain(
    const std::filesystem::path& path) {
  // Walk differential links back to the anchor, collecting deltas newest
  // first, then replay them oldest first on the materialized anchor tree.
  std::vector<TreeDelta> chain;
  std::filesystem::path at = path;
  MerkleTree anchor;
  for (std::uint64_t hop = 0;; ++hop) {
    if (hop > kMaxChainHops) {
      return repro::corrupt_data("differential sidecar chain too long: " +
                                 path.string());
    }
    REPRO_ASSIGN_OR_RETURN(MappedBundle bundle, MappedBundle::open(at));
    if (bundle.view().size() >= 1) {
      // Full tree (possibly an anchor that also carries its own RMFD —
      // the delta is for incremental consumers, not needed to resolve).
      REPRO_ASSIGN_OR_RETURN(TreeView tree_view, bundle.sole_tree());
      REPRO_ASSIGN_OR_RETURN(anchor, tree_view.materialize());
      break;
    }
    if (!bundle.view().has_delta()) {
      return repro::corrupt_data(
          "sidecar holds neither trees nor a differential section: " +
          at.string());
    }
    REPRO_ASSIGN_OR_RETURN(TreeDelta delta, bundle.view().delta());
    at = sibling_sidecar(path, delta.base_iteration);
    chain.push_back(std::move(delta));
  }
  MerkleTree tree = std::move(anchor);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    REPRO_ASSIGN_OR_RETURN(tree, apply_tree_delta(tree, *it));
  }
  return tree;
}

}  // namespace repro::merkle
