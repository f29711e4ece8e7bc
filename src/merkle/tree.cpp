#include "merkle/tree.hpp"

#include "common/timer.hpp"
#include "hash/murmur3.hpp"
#include "merkle/flat.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace repro::merkle {

std::uint32_t value_size(ValueKind kind) noexcept {
  switch (kind) {
    case ValueKind::kF32: return 4;
    case ValueKind::kF64: return 8;
    case ValueKind::kBytes: return 1;
  }
  return 1;
}

std::string_view value_kind_name(ValueKind kind) noexcept {
  switch (kind) {
    case ValueKind::kF32: return "f32";
    case ValueKind::kF64: return "f64";
    case ValueKind::kBytes: return "bytes";
  }
  return "?";
}

repro::Status validate(const TreeParams& params) {
  if (params.chunk_bytes == 0) {
    return repro::invalid_argument("chunk_bytes must be > 0");
  }
  if (params.chunk_bytes % value_size(params.value_kind) != 0) {
    return repro::invalid_argument(
        "chunk_bytes must be a multiple of the value size");
  }
  return hash::validate(params.hash);
}

hash::Digest128 padding_digest() noexcept {
  // Any fixed constant works as long as both runs use the same one; derive
  // it from a tag string so it cannot collide with Digest{seed,seed} of an
  // empty real chunk.
  static const hash::Digest128 digest = [] {
    const char tag[] = "reprokit-merkle-padding-leaf";
    return hash::murmur3f(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(tag), sizeof(tag) - 1),
        0x5eedu);
  }();
  return digest;
}

namespace {

/// An internal node's digest: Murmur3F over its two children's digests.
void hash_children(hash::Digest128* nodes, std::uint64_t node) {
  const hash::Digest128 pair[2] = {nodes[TreeLayout::left_child(node)],
                                   nodes[TreeLayout::right_child(node)]};
  nodes[node] = hash::murmur3f(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(pair), sizeof pair));
}

}  // namespace

std::uint64_t MerkleTree::metadata_bytes() const noexcept {
  return flat_tree_bytes(nodes_.size());
}

repro::Result<MerkleTree> MerkleTree::from_parts(
    TreeParams params, std::uint64_t data_bytes, std::uint64_t num_leaves,
    std::vector<hash::Digest128> nodes) {
  REPRO_RETURN_IF_ERROR(validate(params));
  MerkleTree tree;
  tree.params_ = std::move(params);
  tree.data_bytes_ = data_bytes;
  tree.layout_ = TreeLayout::for_leaves(num_leaves);
  if (nodes.size() != tree.layout_.num_nodes()) {
    return repro::invalid_argument(
        "node count inconsistent with leaf count");
  }
  tree.nodes_ = std::move(nodes);
  return tree;
}

hash::Digest128 leaf_digest(const TreeParams& params,
                            std::span<const std::uint8_t> chunk) {
  switch (params.value_kind) {
    case ValueKind::kF32:
      return hash::hash_chunk_f32(
          std::span<const float>(reinterpret_cast<const float*>(chunk.data()),
                                 chunk.size() / sizeof(float)),
          params.hash);
    case ValueKind::kF64:
      return hash::hash_chunk_f64(
          std::span<const double>(
              reinterpret_cast<const double*>(chunk.data()),
              chunk.size() / sizeof(double)),
          params.hash);
    case ValueKind::kBytes:
      return hash::hash_chunk_bytes(chunk, params.hash.values_per_block * 4);
  }
  return {};
}

repro::Result<MerkleTree> TreeBuilder::build(
    std::span<const std::uint8_t> data) const {
  REPRO_RETURN_IF_ERROR(validate(params_));

  MerkleTree tree;
  tree.params_ = params_;
  tree.data_bytes_ = data.size();
  const std::uint64_t num_chunks =
      data.empty() ? 0 : repro::ceil_div(data.size(), params_.chunk_bytes);

  auto& registry = telemetry::MetricsRegistry::global();
  static telemetry::Counter& builds = registry.counter("merkle.build.count");
  static telemetry::Counter& build_bytes =
      registry.counter("merkle.build.bytes");
  static telemetry::Counter& build_chunks =
      registry.counter("merkle.build.chunks");
  static telemetry::Histogram& build_seconds = registry.histogram(
      "merkle.build.seconds", telemetry::latency_buckets_seconds());
  builds.increment();
  build_bytes.add(data.size());
  build_chunks.add(num_chunks);
  repro::Stopwatch build_watch;
  telemetry::TraceSpan build_span("merkle.build");
  build_span.arg("bytes", static_cast<std::uint64_t>(data.size()))
      .arg("chunks", num_chunks);

  tree.layout_ = TreeLayout::for_leaves(num_chunks);
  tree.nodes_.assign(tree.layout_.num_nodes(), padding_digest());

  const TreeLayout& layout = tree.layout_;
  auto* nodes = tree.nodes_.data();

  // Leaf level: every chunk hashed independently (Algorithm 1, first loop).
  // One chunk is tens of microseconds of hashing, so any two fan out.
  exec_.for_each(0, num_chunks, 1, [&](std::uint64_t chunk) {
    const auto [begin, end] = tree.chunk_range(chunk);
    nodes[layout.leaf_node(chunk)] =
        leaf_digest(params_, data.subspan(begin, end - begin));
  });

  // Internal levels, bottom-up; nodes within a level are independent
  // (Algorithm 1, second loop — synchronization only between levels).
  for (std::uint32_t level = layout.depth; level-- > 0;) {
    const std::uint64_t begin = TreeLayout::level_begin(level);
    const std::uint64_t end = TreeLayout::level_end(level);
    exec_.for_each(begin, end, kMinNodesPerClaim,
                   [&](std::uint64_t node) { hash_children(nodes, node); });
  }

  build_seconds.record(build_watch.seconds());
  return tree;
}

repro::Status TreeBuilder::update_leaves(
    MerkleTree& tree, std::span<const std::uint8_t> data,
    std::span<const std::uint64_t> changed_chunks) const {
  REPRO_RETURN_IF_ERROR(validate(params_));
  if (tree.params_ != params_) {
    return repro::failed_precondition(
        "tree was built with different parameters");
  }
  if (tree.data_bytes_ != data.size()) {
    return repro::failed_precondition(
        "incremental update cannot change the data size");
  }
  const TreeLayout& layout = tree.layout_;
  for (const std::uint64_t chunk : changed_chunks) {
    if (chunk >= layout.num_leaves) {
      return repro::out_of_range("changed chunk " + std::to_string(chunk) +
                                 " outside the tree");
    }
  }
  auto* nodes = tree.nodes_.data();

  // Rehash the dirty leaves in parallel, as build() does.
  exec_.for_each(0, changed_chunks.size(), 1, [&](std::uint64_t i) {
    const std::uint64_t chunk = changed_chunks[i];
    const auto [begin, end] = tree.chunk_range(chunk);
    nodes[layout.leaf_node(chunk)] =
        leaf_digest(params_, data.subspan(begin, end - begin));
  });

  // Propagate upward level by level. The dirty frontier only shrinks, so a
  // simple dedup per level keeps the work at O(k) nodes per level.
  std::vector<std::uint64_t> dirty;
  dirty.reserve(changed_chunks.size());
  for (const std::uint64_t chunk : changed_chunks) {
    dirty.push_back(layout.leaf_node(chunk));
  }
  while (!dirty.empty() && dirty.front() != 0) {
    std::vector<std::uint64_t> parents;
    parents.reserve(dirty.size());
    for (const std::uint64_t node : dirty) {
      const std::uint64_t parent = TreeLayout::parent(node);
      if (parents.empty() || parents.back() != parent) {
        parents.push_back(parent);  // input sorted => parents sorted
      }
    }
    exec_.for_each(0, parents.size(), kMinNodesPerClaim,
                   [&](std::uint64_t i) { hash_children(nodes, parents[i]); });
    dirty = std::move(parents);
  }
  return repro::Status::ok();
}

}  // namespace repro::merkle
