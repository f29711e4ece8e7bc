#include "merkle/proof.hpp"

#include "common/bytes.hpp"
#include "hash/murmur3.hpp"

namespace repro::merkle {

namespace {
constexpr std::uint32_t kMagic = 0x46505252;  // "RRPF"

/// Sibling of a non-root node in the flat layout.
std::uint64_t sibling_of(std::uint64_t node) noexcept {
  return node % 2 == 1 ? node + 1 : node - 1;  // left child is odd
}

hash::Digest128 hash_pair(const hash::Digest128& left,
                          const hash::Digest128& right) {
  hash::Digest128 pair[2] = {left, right};
  return hash::murmur3f(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(pair), sizeof pair));
}

}  // namespace

std::vector<std::uint8_t> InclusionProof::serialize() const {
  std::vector<std::uint8_t> out;
  ByteWriter writer(out);
  writer.put_u32(kMagic);
  writer.put_u64(chunk);
  writer.put_u64(num_leaves);
  writer.put_u64(leaf.lo);
  writer.put_u64(leaf.hi);
  writer.put_u32(static_cast<std::uint32_t>(siblings.size()));
  for (const auto& digest : siblings) {
    writer.put_u64(digest.lo);
    writer.put_u64(digest.hi);
  }
  return out;
}

repro::Result<InclusionProof> InclusionProof::deserialize(
    std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  REPRO_ASSIGN_OR_RETURN(const std::uint32_t magic, reader.get_u32());
  if (magic != kMagic) return repro::corrupt_data("bad proof magic");
  InclusionProof proof;
  REPRO_ASSIGN_OR_RETURN(proof.chunk, reader.get_u64());
  REPRO_ASSIGN_OR_RETURN(proof.num_leaves, reader.get_u64());
  REPRO_ASSIGN_OR_RETURN(proof.leaf.lo, reader.get_u64());
  REPRO_ASSIGN_OR_RETURN(proof.leaf.hi, reader.get_u64());
  REPRO_ASSIGN_OR_RETURN(const std::uint32_t count, reader.get_u32());
  if (count > 64) return repro::corrupt_data("proof depth impossible");
  proof.siblings.resize(count);
  for (auto& digest : proof.siblings) {
    REPRO_ASSIGN_OR_RETURN(digest.lo, reader.get_u64());
    REPRO_ASSIGN_OR_RETURN(digest.hi, reader.get_u64());
  }
  return proof;
}

repro::Result<InclusionProof> prove_inclusion(const MerkleTree& tree,
                                              std::uint64_t chunk) {
  const TreeLayout& layout = tree.layout();
  if (chunk >= layout.num_leaves) {
    return repro::out_of_range("chunk " + std::to_string(chunk) +
                               " outside tree with " +
                               std::to_string(layout.num_leaves) + " chunks");
  }
  InclusionProof proof;
  proof.chunk = chunk;
  proof.num_leaves = layout.num_leaves;
  proof.leaf = tree.leaf(chunk);
  std::uint64_t node = layout.leaf_node(chunk);
  while (node != 0) {
    proof.siblings.push_back(tree.node(sibling_of(node)));
    node = TreeLayout::parent(node);
  }
  return proof;
}

repro::Status verify_inclusion(const InclusionProof& proof,
                               const hash::Digest128& expected_root) {
  const TreeLayout layout = TreeLayout::for_leaves(proof.num_leaves);
  if (proof.chunk >= layout.num_leaves) {
    return repro::invalid_argument("proof chunk outside its own tree");
  }
  if (proof.siblings.size() != layout.depth) {
    return repro::invalid_argument(
        "proof has " + std::to_string(proof.siblings.size()) +
        " siblings; tree depth is " + std::to_string(layout.depth));
  }

  hash::Digest128 current = proof.leaf;
  std::uint64_t node = layout.leaf_node(proof.chunk);
  for (const hash::Digest128& sibling : proof.siblings) {
    // Left children have odd indices in the 0-rooted flat layout.
    current = node % 2 == 1 ? hash_pair(current, sibling)
                            : hash_pair(sibling, current);
    node = TreeLayout::parent(node);
  }
  if (current != expected_root) {
    return repro::failed_precondition(
        "recomputed root " + current.hex() + " does not match expected " +
        expected_root.hex());
  }
  return repro::Status::ok();
}

repro::Status verify_chunk_data(const InclusionProof& proof,
                                std::span<const std::uint8_t> chunk_data,
                                const TreeParams& params,
                                const hash::Digest128& expected_root) {
  REPRO_RETURN_IF_ERROR(validate(params));
  const hash::Digest128 digest = leaf_digest(params, chunk_data);
  if (digest != proof.leaf) {
    return repro::failed_precondition(
        "chunk data hashes to " + digest.hex() +
        " but the proof's leaf is " + proof.leaf.hex());
  }
  return verify_inclusion(proof, expected_root);
}

}  // namespace repro::merkle
