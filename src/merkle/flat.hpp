// Merkle sidecar format ("RMF2"): flat, offset-based metadata laid out for
// mapping, not parsing.
//
// RMF2 is the only sidecar format: every writer emits it and every reader
// goes through MappedBundle -> BundleView -> TreeView. The format is *used
// in place*: a header, a section table, and 8-byte-aligned checksummed
// sections holding fixed-size tree records, a name blob, and the raw digest
// array, so a load costs no O(nodes) decode and no allocator traffic.
// Readers are non-owning views over `const std::uint8_t*`; every multi-byte
// access goes through a memcpy helper, so views are alignment- and
// strict-aliasing-safe on any byte span (mapped, heap, or mid-buffer).
//
//   offset 0                      FlatHeader (32 bytes)
//   offset 32                     section table: section_count x 32 bytes
//   8-aligned                     sections (zero padding between)
//
// Sections (ids in SectionId; lengths are unpadded, checksums are the low
// word of Murmur3F over the section bytes seeded with the section id):
//   kTreeTable   u32 tree_count, u32 pad, tree_count x TreeRecord (72 B)
//   kNames       concatenated name bytes (records hold offset + length)
//   kNodes       digests, 16 bytes each {u64 lo, u64 hi}, all trees
//                concatenated (records hold byte offsets into this section)
//
// A single-tree `.rmrk` sidecar is the one-entry case with an empty name; a
// per-field `.rmrb` sidecar stores one record per field. The retired v1
// encodings (RMRK trees, RMRB bundles) are recognized by magic only so that
// parse() can reject them with an error that names the fix. See
// docs/FORMATS.md.
#pragma once

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "io/mmap.hpp"
#include "merkle/tree.hpp"

namespace repro::merkle {

inline constexpr std::uint32_t kFlatMagic = 0x32464D52;  // "RMF2"
inline constexpr std::uint32_t kFlatVersion = 2;
inline constexpr std::uint64_t kFlatSectionAlign = 8;
inline constexpr std::uint32_t kDeltaMagic = 0x44464D52;  // "RMFD"
inline constexpr std::uint32_t kDeltaVersion = 1;

enum class SectionId : std::uint32_t {
  kTreeTable = 1,
  kNames = 2,
  kNodes = 3,
  kDelta = 4,  ///< "RMFD" differential payload; skippable by older readers
};

/// One decoded section-table row (exposed by `repro-cli info`).
struct SectionInfo {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};

/// One changed node of a differential sidecar: flat-layout index + digest.
struct DeltaNode {
  std::uint64_t index = 0;
  hash::Digest128 digest;

  friend bool operator==(const DeltaNode&, const DeltaNode&) = default;
};

/// The payload of an RMFD section: the Merkle nodes whose digest changed
/// between `base_iteration` and `iteration`, plus the full tree geometry so
/// a resolver can validate a chain link without opening its base first.
/// Entries are sorted strictly ascending by node index; the set is closed
/// under ancestry (a changed leaf's dirtied root path is included), so
/// applying a delta onto its base yields an internally consistent tree.
struct TreeDelta {
  std::uint64_t iteration = 0;
  std::uint64_t base_iteration = 0;
  TreeParams params;
  std::uint64_t data_bytes = 0;
  std::uint64_t num_leaves = 0;
  std::vector<DeltaNode> nodes;

  /// Encoded RMFD section payload size (72-byte header + 24 B per entry).
  [[nodiscard]] std::uint64_t encoded_bytes() const noexcept {
    return 72 + nodes.size() * 24;
  }
  /// Chunk indices of the leaf-level entries (ascending) — the changed
  /// chunks this iteration, for incremental timeline walks.
  [[nodiscard]] std::vector<std::uint64_t> changed_chunks() const;
};

/// Non-owning zero-copy accessor over one tree of a flat sidecar. Behaves
/// like a read-only MerkleTree (same accessor names) but performs no parse
/// and owns no storage: node() memcpys one 16-byte digest out of the backing
/// bytes on demand. The backing blob must outlive the view — owning callers
/// hold a MappedBundle (below) or the MerkleTree the view aliases.
class TreeView {
 public:
  TreeView() = default;

  /// View over an in-memory tree's node array (LE hosts lay Digest128 out
  /// exactly as the flat nodes section does). Lets one compare/BFS
  /// implementation serve both decoded trees and mapped sidecars.
  explicit TreeView(const MerkleTree& tree) noexcept
      : params_(tree.params()),
        layout_(tree.layout()),
        data_bytes_(tree.data_bytes()),
        nodes_(reinterpret_cast<const std::uint8_t*>(tree.nodes().data())) {}

  [[nodiscard]] bool valid() const noexcept { return nodes_ != nullptr; }
  [[nodiscard]] const TreeParams& params() const noexcept { return params_; }
  [[nodiscard]] const TreeLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] std::uint64_t data_bytes() const noexcept {
    return data_bytes_;
  }
  [[nodiscard]] std::uint64_t num_chunks() const noexcept {
    return layout_.num_leaves;
  }

  [[nodiscard]] hash::Digest128 node(std::uint64_t index) const noexcept {
    hash::Digest128 digest;
    std::memcpy(&digest, nodes_ + index * hash::kDigestBytes,
                hash::kDigestBytes);
    return digest;
  }
  [[nodiscard]] hash::Digest128 root() const noexcept { return node(0); }
  [[nodiscard]] hash::Digest128 leaf(std::uint64_t chunk) const noexcept {
    return node(layout_.leaf_node(chunk));
  }

  /// Byte range of chunk `i` within the covered data.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> chunk_range(
      std::uint64_t chunk) const noexcept {
    const std::uint64_t begin = chunk * params_.chunk_bytes;
    const std::uint64_t end =
        std::min(begin + params_.chunk_bytes, data_bytes_);
    return {begin, end};
  }

  /// Copy out an owning MerkleTree, for callers that need mutable nodes
  /// (DeltaStore replays its deltas onto an anchor's tree).
  [[nodiscard]] repro::Result<MerkleTree> materialize() const;

 private:
  friend class BundleView;

  TreeParams params_;
  TreeLayout layout_;
  std::uint64_t data_bytes_ = 0;
  const std::uint8_t* nodes_ = nullptr;
};

/// Non-owning accessor over a whole flat sidecar: header + section table +
/// per-tree views. parse() validates structure (magic, version, section
/// bounds, alignment, per-tree record consistency) and, by default, the
/// per-section checksums; after that every access is offset arithmetic.
class BundleView {
 public:
  BundleView() = default;

  /// Parse and validate `bytes` (which the caller keeps alive). Checksum
  /// verification is one Murmur3F pass per section, skippable for hot
  /// in-process paths that just built the blob themselves. A retired v1
  /// sidecar (RMRK/RMRB magic) fails with kUnsupported and names the fix.
  static repro::Result<BundleView> parse(std::span<const std::uint8_t> bytes,
                                         bool verify_checksums = true);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::string_view name(std::size_t i) const noexcept {
    return entries_[i].name;
  }
  [[nodiscard]] const TreeView& tree(std::size_t i) const noexcept {
    return entries_[i].view;
  }
  [[nodiscard]] const TreeView* find(std::string_view name) const noexcept;

  [[nodiscard]] const std::vector<SectionInfo>& sections() const noexcept {
    return sections_;
  }
  /// Total bytes of the underlying blob.
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_;
  }

  /// True when the sidecar carries an RMFD differential section. A
  /// delta-only sidecar has has_delta() && size() == 0; an anchor written
  /// with its delta has both the full tree table and the section.
  [[nodiscard]] bool has_delta() const noexcept {
    return delta_bytes_ != nullptr;
  }
  /// Decode and validate the RMFD section. Errors (never crashes) on a
  /// truncated, misdeclared, or unsorted payload.
  [[nodiscard]] repro::Result<TreeDelta> delta() const;

 private:
  struct Entry {
    std::string_view name;  ///< points into the backing names section
    TreeView view;
  };

  std::vector<Entry> entries_;
  std::vector<SectionInfo> sections_;
  std::uint64_t total_bytes_ = 0;
  const std::uint8_t* delta_bytes_ = nullptr;  ///< RMFD section payload
  std::uint64_t delta_length_ = 0;
};

/// Writes flat sidecars. Computes the exact output size up front and fills
/// one allocation — no geometric regrowth, no per-tree temporaries.
class FlatBuilder {
 public:
  /// Add a named tree; names must be unique. A single-tree sidecar is one
  /// entry with an empty name.
  repro::Status add(std::string name, const MerkleTree& tree);

  /// Attach an RMFD differential section to the output. Valid with zero
  /// entries (a delta-only sidecar: old readers parse the empty tree table
  /// and skip the section) or alongside a full tree (an anchor that also
  /// records what changed since its base).
  void set_delta(TreeDelta delta) { delta_ = std::move(delta); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Exact byte size finish() will produce for the current entries.
  [[nodiscard]] std::uint64_t output_bytes() const noexcept;
  [[nodiscard]] std::vector<std::uint8_t> finish() const;

 private:
  struct Entry {
    std::string name;
    const MerkleTree* tree;  ///< caller keeps the tree alive until finish()
  };
  std::vector<Entry> entries_;
  std::optional<TreeDelta> delta_;
};

/// Single-tree conveniences (the sidecar of one whole checkpoint).
std::vector<std::uint8_t> flat_serialize(const MerkleTree& tree);
/// Delta-only differential sidecar: empty tree table + RMFD section.
std::vector<std::uint8_t> flat_serialize_delta(const TreeDelta& delta);
repro::Status save_flat(const MerkleTree& tree,
                        const std::filesystem::path& path);

/// Exact size of the single-tree sidecar flat_serialize() writes for a tree
/// of `num_nodes` digests.
std::uint64_t flat_tree_bytes(std::uint64_t num_nodes) noexcept;

/// Owning handle over a sidecar's bytes plus its parsed BundleView: the
/// value type of the service metadata cache and of every zero-copy load
/// path. open() prefers mmap (page-cache backed, shareable read-only across
/// processes) and degrades to a heap read when mapping fails.
class MappedBundle {
 public:
  MappedBundle() = default;
  MappedBundle(MappedBundle&&) = default;
  MappedBundle& operator=(MappedBundle&&) = default;
  MappedBundle(const MappedBundle&) = delete;
  MappedBundle& operator=(const MappedBundle&) = delete;

  static repro::Result<MappedBundle> open(const std::filesystem::path& path);
  /// Adopt an in-memory blob.
  static repro::Result<MappedBundle> from_bytes(
      std::vector<std::uint8_t> bytes);

  [[nodiscard]] const BundleView& view() const noexcept { return view_; }
  /// The raw RMF2 bytes backing the views (mapped or heap).
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return region_.mapped() ? region_.bytes()
                            : std::span<const std::uint8_t>(heap_);
  }
  /// The single tree of a plain `.rmrk` sidecar; errors when the sidecar
  /// holds several named trees (use view() for those).
  [[nodiscard]] repro::Result<TreeView> sole_tree() const;

  /// True when the bytes are an active file mapping (zero-copy path).
  [[nodiscard]] bool mapped() const noexcept { return region_.mapped(); }
  /// Resident footprint: mapped or heap-held bytes backing the views.
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
    return region_.mapped() ? region_.size() : heap_.size();
  }

 private:
  io::MmapRegion region_;           ///< set when mapped
  std::vector<std::uint8_t> heap_;  ///< set on heap fallback / from_bytes
  BundleView view_;
};

}  // namespace repro::merkle
