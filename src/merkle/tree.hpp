// Merkle-tree compact checkpoint metadata (Section 2.3, Algorithm 1).
//
// One error-bounded digest per chunk forms the leaves; internal nodes hash
// the concatenation of their children. The tree's sidecar (merkle/flat.hpp)
// is the only thing a comparison has to read when two runs agree — the
// paper's "ideal case" where no checkpoint bulk data is touched at all.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "hash/chunk_hasher.hpp"
#include "hash/digest.hpp"
#include "merkle/layout.hpp"
#include "par/exec.hpp"

namespace repro::merkle {

/// How chunk bytes are interpreted when quantizing.
enum class ValueKind : std::uint8_t {
  kF32 = 0,  ///< IEEE-754 binary32 values (HACC fields)
  kF64 = 1,  ///< IEEE-754 binary64 values
  kBytes = 2,  ///< opaque bytes, hashed bitwise (no error bound)
};

std::uint32_t value_size(ValueKind kind) noexcept;
std::string_view value_kind_name(ValueKind kind) noexcept;

struct TreeParams {
  /// Chunk size in bytes (one Merkle leaf per chunk). Must be a positive
  /// multiple of the value size. The paper sweeps 4 KB … 512 KB.
  std::uint64_t chunk_bytes = 64 * 1024;
  ValueKind value_kind = ValueKind::kF32;
  hash::HashParams hash;

  friend bool operator==(const TreeParams&, const TreeParams&) = default;
};

repro::Status validate(const TreeParams& params);

/// Digest of one chunk's bytes under `params`: its values quantized as
/// params.value_kind at params.hash (kBytes hashes bitwise in blocks of
/// values_per_block * 4 bytes). The only place a leaf is hashed: tree builds
/// and proof checks both call it.
hash::Digest128 leaf_digest(const TreeParams& params,
                            std::span<const std::uint8_t> chunk);

/// Sentinel digest carried by padding leaves (identical across runs, so the
/// comparison prunes padded subtrees immediately).
hash::Digest128 padding_digest() noexcept;

class MerkleTree {
 public:
  MerkleTree() = default;

  [[nodiscard]] const TreeParams& params() const noexcept { return params_; }
  [[nodiscard]] const TreeLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] std::uint64_t data_bytes() const noexcept { return data_bytes_; }
  [[nodiscard]] std::uint64_t num_chunks() const noexcept {
    return layout_.num_leaves;
  }

  [[nodiscard]] const hash::Digest128& node(std::uint64_t index) const {
    return nodes_[index];
  }
  [[nodiscard]] const hash::Digest128& root() const { return nodes_[0]; }
  [[nodiscard]] const hash::Digest128& leaf(std::uint64_t chunk) const {
    return nodes_[layout_.leaf_node(chunk)];
  }
  [[nodiscard]] std::span<const hash::Digest128> nodes() const {
    return nodes_;
  }

  /// Byte range of chunk `i` within the original data.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> chunk_range(
      std::uint64_t chunk) const noexcept {
    const std::uint64_t begin = chunk * params_.chunk_bytes;
    const std::uint64_t end =
        std::min(begin + params_.chunk_bytes, data_bytes_);
    return {begin, end};
  }

  /// Size in bytes of this tree's sidecar as save_flat() writes it (the
  /// paper's ~2·D·(N/C) digest footprint plus the fixed RMF2 framing).
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept;

  /// Assemble a tree from already-validated components (the materialize
  /// path of flat sidecar views). `nodes` must hold exactly the layout's node
  /// count for `num_leaves`.
  static repro::Result<MerkleTree> from_parts(
      TreeParams params, std::uint64_t data_bytes, std::uint64_t num_leaves,
      std::vector<hash::Digest128> nodes);

  friend class TreeBuilder;

 private:
  TreeParams params_;
  TreeLayout layout_;
  std::uint64_t data_bytes_ = 0;
  std::vector<hash::Digest128> nodes_;
};

/// Fewest tree nodes one claim of a per-level kernel holds: the builder's
/// internal levels and compare_trees' BFS levels. A node is one 32-byte
/// Murmur3F or two 16-byte digest loads, a few nanoseconds, so 4 Ki nodes is
/// ~10 µs of work: about what waking the pool and joining it costs. A level
/// of at most this many nodes (every internal level of a tree up to 8 Ki
/// leaves, every level of a mostly clean pair's descent) runs on the
/// calling thread; wider levels fan out.
inline constexpr std::uint64_t kMinNodesPerClaim = 4096;

/// Bottom-up parallel tree construction (Algorithm 1): all leaves hashed in
/// parallel, then each internal level in parallel, synchronizing only
/// between levels.
class TreeBuilder {
 public:
  TreeBuilder(TreeParams params, par::Exec exec)
      : params_(std::move(params)), exec_(exec) {}

  /// Build over an in-memory buffer (used at capture time, when the
  /// checkpoint bytes are still resident).
  repro::Result<MerkleTree> build(std::span<const std::uint8_t> data) const;

  /// Incremental update: rehash only `changed_chunks` (sorted, unique) of
  /// `data` and recompute the ancestor paths they dirty — O(k·chunk + k·log
  /// n) hashing instead of a full O(n) rebuild. `data` must be the complete
  /// current buffer the tree is to describe (its size must match the
  /// tree's). Equivalent to build(data) whenever every out-of-date chunk is
  /// listed; the DeltaStore uses it with the diff set it just computed.
  repro::Status update_leaves(MerkleTree& tree,
                              std::span<const std::uint8_t> data,
                              std::span<const std::uint64_t> changed_chunks)
      const;

 private:
  TreeParams params_;
  par::Exec exec_;
};

}  // namespace repro::merkle
