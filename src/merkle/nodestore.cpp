#include "merkle/nodestore.hpp"

#include <utility>

namespace repro::merkle {

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

}  // namespace repro::merkle
