#include "merkle/flat.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "common/fs.hpp"
#include "hash/murmur3.hpp"
#include "telemetry/metrics.hpp"

namespace repro::merkle {

namespace {

constexpr std::uint64_t kHeaderBytes = 32;
constexpr std::uint64_t kSectionRowBytes = 32;
constexpr std::uint64_t kTreeRecordBytes = 72;
constexpr std::uint32_t kMaxSections = 16;
// Plausibility bound on untrusted leaf counts: a count beyond this would
// overflow the padded-layout math before any size check fires.
constexpr std::uint64_t kMaxLeaves = std::uint64_t{1} << 50;
// Magics of the retired v1 encodings, kept only to reject them by name.
constexpr std::uint32_t kLegacyTreeMagic = 0x4B524D52;    // "RMRK"
constexpr std::uint32_t kLegacyBundleMagic = 0x42524D52;  // "RMRB"

constexpr std::uint64_t align_up(std::uint64_t value) noexcept {
  return (value + (kFlatSectionAlign - 1)) & ~(kFlatSectionAlign - 1);
}

// All flat-blob access goes through these: unaligned-safe, strict-aliasing
// safe, and little-endian by virtue of running on LE hosts (the same
// contract ByteWriter/ByteReader already rely on).
void store_u32(std::uint8_t* at, std::uint32_t v) noexcept {
  std::memcpy(at, &v, sizeof v);
}
void store_u64(std::uint8_t* at, std::uint64_t v) noexcept {
  std::memcpy(at, &v, sizeof v);
}
void store_f64(std::uint8_t* at, double v) noexcept {
  std::memcpy(at, &v, sizeof v);
}
std::uint32_t load_u32(const std::uint8_t* at) noexcept {
  std::uint32_t v;
  std::memcpy(&v, at, sizeof v);
  return v;
}
std::uint64_t load_u64(const std::uint8_t* at) noexcept {
  std::uint64_t v;
  std::memcpy(&v, at, sizeof v);
  return v;
}
double load_f64(const std::uint8_t* at) noexcept {
  double v;
  std::memcpy(&v, at, sizeof v);
  return v;
}

std::uint64_t section_checksum(std::span<const std::uint8_t> bytes,
                               std::uint32_t id) noexcept {
  return hash::murmur3f(bytes, id).lo;
}

struct FlatMetrics {
  telemetry::Counter& opens;
  telemetry::Counter& mapped_opens;
  telemetry::Counter& heap_fallbacks;

  static FlatMetrics& get() {
    auto& registry = telemetry::MetricsRegistry::global();
    static FlatMetrics* metrics = new FlatMetrics{
        registry.counter("merkle.flat.opens"),
        registry.counter("merkle.flat.mapped_opens"),
        registry.counter("merkle.flat.heap_fallbacks"),
    };
    return *metrics;
  }
};

}  // namespace

// ---- TreeView --------------------------------------------------------------

repro::Result<MerkleTree> TreeView::materialize() const {
  if (!valid()) {
    return repro::failed_precondition("cannot materialize an empty TreeView");
  }
  std::vector<hash::Digest128> nodes(layout_.num_nodes());
  std::memcpy(nodes.data(), nodes_, nodes.size() * hash::kDigestBytes);
  return MerkleTree::from_parts(params_, data_bytes_, layout_.num_leaves,
                                std::move(nodes));
}

// ---- TreeDelta -------------------------------------------------------------

std::vector<std::uint64_t> TreeDelta::changed_chunks() const {
  const TreeLayout layout = TreeLayout::for_leaves(num_leaves);
  const std::uint64_t first_leaf = layout.padded_leaves - 1;
  std::vector<std::uint64_t> chunks;
  for (const DeltaNode& node : nodes) {
    if (node.index < first_leaf) continue;
    const std::uint64_t leaf = node.index - first_leaf;
    if (leaf < num_leaves) chunks.push_back(leaf);
  }
  return chunks;  // entries are sorted, so the leaf slice already is
}

// ---- BundleView ------------------------------------------------------------

const TreeView* BundleView::find(std::string_view name) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry.view;
  }
  return nullptr;
}

repro::Result<BundleView> BundleView::parse(
    std::span<const std::uint8_t> bytes, bool verify_checksums) {
  const std::uint8_t* base = bytes.data();
  if (bytes.size() >= sizeof(std::uint32_t)) {
    const std::uint32_t magic = load_u32(base);
    if (magic == kLegacyTreeMagic) {
      return repro::unsupported(
          "legacy v1 sidecar (RMRK) is not supported; rebuild it with "
          "repro-cli tree");
    }
    if (magic == kLegacyBundleMagic) {
      return repro::unsupported(
          "legacy v1 sidecar (RMRB) is not supported; delete it and rerun "
          "repro-cli fields to rebuild it");
    }
  }
  if (bytes.size() < kHeaderBytes) {
    return repro::corrupt_data("flat sidecar shorter than its header");
  }
  if (load_u32(base) != kFlatMagic) {
    return repro::corrupt_data("bad flat sidecar magic");
  }
  const std::uint32_t version = load_u32(base + 4);
  if (version != kFlatVersion) {
    return repro::unsupported(
        "flat sidecar version " + std::to_string(version) +
        " is not supported (this build reads RMF2 version " +
        std::to_string(kFlatVersion) + ")");
  }
  if (load_u32(base + 8) != kHeaderBytes) {
    return repro::corrupt_data("flat sidecar header size mismatch");
  }
  const std::uint32_t section_count = load_u32(base + 12);
  if (section_count == 0 || section_count > kMaxSections) {
    return repro::corrupt_data("implausible flat sidecar section count");
  }
  const std::uint64_t total_bytes = load_u64(base + 16);
  if (total_bytes != bytes.size()) {
    return repro::corrupt_data(
        "flat sidecar truncated: header declares " +
        std::to_string(total_bytes) + " bytes, file holds " +
        std::to_string(bytes.size()));
  }
  const std::uint64_t table_end =
      kHeaderBytes + std::uint64_t{section_count} * kSectionRowBytes;
  if (table_end > bytes.size()) {
    return repro::corrupt_data("flat sidecar section table truncated");
  }

  BundleView view;
  view.total_bytes_ = total_bytes;
  view.sections_.reserve(section_count);
  const SectionInfo* tree_table = nullptr;
  const SectionInfo* names = nullptr;
  const SectionInfo* nodes = nullptr;
  const SectionInfo* delta = nullptr;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint8_t* row = base + kHeaderBytes + i * kSectionRowBytes;
    SectionInfo info;
    info.id = load_u32(row);
    info.offset = load_u64(row + 8);
    info.length = load_u64(row + 16);
    info.checksum = load_u64(row + 24);
    if (info.offset % kFlatSectionAlign != 0) {
      return repro::corrupt_data("flat sidecar section " +
                                 std::to_string(info.id) + " misaligned");
    }
    if (info.offset < table_end || info.offset > bytes.size() ||
        info.length > bytes.size() - info.offset) {
      return repro::corrupt_data("flat sidecar section " +
                                 std::to_string(info.id) +
                                 " extends past the file");
    }
    if (verify_checksums) {
      const std::uint64_t actual = section_checksum(
          bytes.subspan(info.offset, info.length), info.id);
      if (actual != info.checksum) {
        return repro::corrupt_data("flat sidecar section " +
                                   std::to_string(info.id) +
                                   " checksum mismatch");
      }
    }
    view.sections_.push_back(info);
    const SectionInfo* stored = &view.sections_.back();
    switch (static_cast<SectionId>(info.id)) {
      case SectionId::kTreeTable:
        if (tree_table != nullptr) {
          return repro::corrupt_data("duplicate flat sidecar tree table");
        }
        tree_table = stored;
        break;
      case SectionId::kNames:
        if (names != nullptr) {
          return repro::corrupt_data("duplicate flat sidecar name section");
        }
        names = stored;
        break;
      case SectionId::kNodes:
        if (nodes != nullptr) {
          return repro::corrupt_data("duplicate flat sidecar node section");
        }
        nodes = stored;
        break;
      case SectionId::kDelta:
        if (delta != nullptr) {
          return repro::corrupt_data("duplicate flat sidecar delta section");
        }
        delta = stored;
        break;
      default:
        break;  // unknown sections are skippable by design (forward compat)
    }
  }
  if (delta != nullptr) {
    view.delta_bytes_ = base + delta->offset;
    view.delta_length_ = delta->length;
  }
  if (tree_table == nullptr || names == nullptr || nodes == nullptr) {
    return repro::corrupt_data(
        "flat sidecar is missing a required section (tree table, names, "
        "nodes)");
  }

  if (tree_table->length < 8) {
    return repro::corrupt_data("flat sidecar tree table truncated");
  }
  const std::uint8_t* table = base + tree_table->offset;
  const std::uint32_t tree_count = load_u32(table);
  if (tree_table->length != 8 + std::uint64_t{tree_count} * kTreeRecordBytes) {
    return repro::corrupt_data(
        "flat sidecar tree table length inconsistent with its tree count");
  }

  view.entries_.reserve(tree_count);
  for (std::uint32_t i = 0; i < tree_count; ++i) {
    const std::uint8_t* rec = table + 8 + i * kTreeRecordBytes;
    const std::uint64_t data_bytes = load_u64(rec);
    const std::uint64_t chunk_bytes = load_u64(rec + 8);
    const std::uint64_t num_leaves = load_u64(rec + 16);
    const std::uint64_t num_nodes = load_u64(rec + 24);
    const std::uint64_t nodes_offset = load_u64(rec + 32);
    const std::uint64_t name_offset = load_u64(rec + 40);
    const std::uint32_t name_length = load_u32(rec + 48);
    const std::uint32_t value_kind = load_u32(rec + 52);
    const double error_bound = load_f64(rec + 56);
    const std::uint32_t values_per_block = load_u32(rec + 64);

    if (num_leaves > kMaxLeaves) {
      return repro::corrupt_data("implausible leaf count in flat sidecar");
    }
    if (value_kind > static_cast<std::uint32_t>(ValueKind::kBytes)) {
      return repro::corrupt_data("bad value kind in flat sidecar");
    }

    Entry entry;
    entry.view.params_.chunk_bytes = chunk_bytes;
    entry.view.params_.value_kind = static_cast<ValueKind>(value_kind);
    entry.view.params_.hash.error_bound = error_bound;
    entry.view.params_.hash.values_per_block = values_per_block;
    entry.view.data_bytes_ = data_bytes;
    entry.view.layout_ = TreeLayout::for_leaves(num_leaves);
    REPRO_RETURN_IF_ERROR(validate(entry.view.params_));
    if (num_nodes != entry.view.layout_.num_nodes()) {
      return repro::corrupt_data(
          "flat sidecar node count inconsistent with leaf count");
    }
    // num_nodes <= 2^51 after the leaf check, so the multiply cannot wrap.
    const std::uint64_t node_bytes = num_nodes * hash::kDigestBytes;
    if (nodes_offset > nodes->length ||
        node_bytes > nodes->length - nodes_offset) {
      return repro::corrupt_data(
          "flat sidecar tree digests extend past the node section");
    }
    entry.view.nodes_ = base + nodes->offset + nodes_offset;
    if (name_offset > names->length ||
        name_length > names->length - name_offset) {
      return repro::corrupt_data(
          "flat sidecar tree name extends past the name section");
    }
    entry.name = std::string_view(
        reinterpret_cast<const char*>(base + names->offset + name_offset),
        name_length);
    view.entries_.push_back(entry);
  }
  return view;
}

repro::Result<TreeDelta> BundleView::delta() const {
  if (delta_bytes_ == nullptr) {
    return repro::failed_precondition("sidecar carries no delta section");
  }
  constexpr std::uint64_t kDeltaHeaderBytes = 72;
  constexpr std::uint64_t kDeltaEntryBytes = 24;
  const std::uint8_t* at = delta_bytes_;
  if (delta_length_ < kDeltaHeaderBytes) {
    return repro::corrupt_data("delta section shorter than its header");
  }
  if (load_u32(at) != kDeltaMagic) {
    return repro::corrupt_data("bad delta section magic");
  }
  if (load_u32(at + 4) != kDeltaVersion) {
    return repro::unsupported("unsupported delta section version " +
                              std::to_string(load_u32(at + 4)));
  }
  TreeDelta delta;
  delta.iteration = load_u64(at + 8);
  delta.base_iteration = load_u64(at + 16);
  delta.data_bytes = load_u64(at + 24);
  delta.params.chunk_bytes = load_u64(at + 32);
  delta.num_leaves = load_u64(at + 40);
  const std::uint32_t value_kind = load_u32(at + 48);
  delta.params.hash.values_per_block = load_u32(at + 52);
  delta.params.hash.error_bound = load_f64(at + 56);
  const std::uint64_t entry_count = load_u64(at + 64);

  if (delta.base_iteration >= delta.iteration) {
    return repro::corrupt_data("delta section base iteration not before its "
                               "own iteration");
  }
  if (value_kind > static_cast<std::uint32_t>(ValueKind::kBytes)) {
    return repro::corrupt_data("bad value kind in delta section");
  }
  delta.params.value_kind = static_cast<ValueKind>(value_kind);
  if (delta.num_leaves > kMaxLeaves) {
    return repro::corrupt_data("implausible leaf count in delta section");
  }
  REPRO_RETURN_IF_ERROR(validate(delta.params));
  if (delta_length_ != kDeltaHeaderBytes + entry_count * kDeltaEntryBytes) {
    return repro::corrupt_data(
        "delta section length inconsistent with its entry count");
  }
  const TreeLayout layout = TreeLayout::for_leaves(delta.num_leaves);
  const std::uint64_t num_nodes = layout.num_nodes();
  delta.nodes.reserve(entry_count);
  std::uint64_t prev_index = 0;
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    const std::uint8_t* rec = at + kDeltaHeaderBytes + i * kDeltaEntryBytes;
    DeltaNode node;
    node.index = load_u64(rec);
    node.digest.lo = load_u64(rec + 8);
    node.digest.hi = load_u64(rec + 16);
    if (node.index >= num_nodes) {
      return repro::corrupt_data("delta section node index out of range");
    }
    if (i > 0 && node.index <= prev_index) {
      return repro::corrupt_data("delta section entries not strictly sorted");
    }
    prev_index = node.index;
    delta.nodes.push_back(node);
  }
  return delta;
}

// ---- FlatBuilder -----------------------------------------------------------

repro::Status FlatBuilder::add(std::string name, const MerkleTree& tree) {
  for (const Entry& entry : entries_) {
    if (entry.name == name) {
      return repro::already_exists("flat sidecar already holds a tree named " +
                                   name);
    }
  }
  REPRO_RETURN_IF_ERROR(validate(tree.params()));
  entries_.push_back(Entry{std::move(name), &tree});
  return repro::Status::ok();
}

namespace {

/// Offset math shared by every writer: sections in table order, each
/// 8-aligned, with the optional RMFD delta section last.
struct FlatLayout {
  std::uint32_t section_count = 3;
  std::uint64_t table_off = 0;
  std::uint64_t table_len = 0;
  std::uint64_t names_off = 0;
  std::uint64_t names_len = 0;
  std::uint64_t nodes_off = 0;
  std::uint64_t nodes_len = 0;
  std::uint64_t delta_off = 0;
  std::uint64_t delta_len = 0;
  std::uint64_t total = 0;
};

FlatLayout plan_layout(std::uint64_t tree_count, std::uint64_t names_len,
                       std::uint64_t nodes_len,
                       const std::optional<TreeDelta>& delta) noexcept {
  FlatLayout layout;
  layout.section_count = delta.has_value() ? 4 : 3;
  layout.table_len = 8 + tree_count * kTreeRecordBytes;
  layout.names_len = names_len;
  layout.nodes_len = nodes_len;
  layout.table_off = kHeaderBytes + layout.section_count * kSectionRowBytes;
  layout.names_off = align_up(layout.table_off + layout.table_len);
  layout.nodes_off = align_up(layout.names_off + layout.names_len);
  layout.total = layout.nodes_off + layout.nodes_len;
  if (delta.has_value()) {
    layout.delta_off = align_up(layout.total);
    layout.delta_len = delta->encoded_bytes();
    layout.total = layout.delta_off + layout.delta_len;
  }
  return layout;
}

}  // namespace

std::uint64_t FlatBuilder::output_bytes() const noexcept {
  std::uint64_t names_len = 0;
  std::uint64_t nodes_len = 0;
  for (const Entry& entry : entries_) {
    names_len += entry.name.size();
    nodes_len += entry.tree->nodes().size() * hash::kDigestBytes;
  }
  return plan_layout(entries_.size(), names_len, nodes_len, delta_).total;
}

std::vector<std::uint8_t> FlatBuilder::finish() const {
  std::uint64_t entry_names_len = 0;
  std::uint64_t entry_nodes_len = 0;
  for (const Entry& entry : entries_) {
    entry_names_len += entry.name.size();
    entry_nodes_len += entry.tree->nodes().size() * hash::kDigestBytes;
  }
  const FlatLayout layout = plan_layout(entries_.size(), entry_names_len,
                                        entry_nodes_len, delta_);
  const std::uint64_t table_off = layout.table_off;
  const std::uint64_t table_len = layout.table_len;
  const std::uint64_t names_off = layout.names_off;
  const std::uint64_t names_len = layout.names_len;
  const std::uint64_t nodes_off = layout.nodes_off;
  const std::uint64_t nodes_len = layout.nodes_len;
  const std::uint64_t total = layout.total;

  // One exact-size allocation, zero-initialized so alignment gaps are
  // deterministic bytes (checksummed files must not leak heap garbage).
  std::vector<std::uint8_t> out(total, 0);
  std::uint8_t* base = out.data();

  store_u32(base, kFlatMagic);
  store_u32(base + 4, kFlatVersion);
  store_u32(base + 8, static_cast<std::uint32_t>(kHeaderBytes));
  store_u32(base + 12, layout.section_count);
  store_u64(base + 16, total);

  // Section payloads first, then the table rows (checksums need the bytes).
  store_u32(base + table_off, static_cast<std::uint32_t>(entries_.size()));
  std::uint64_t name_cursor = 0;
  std::uint64_t node_cursor = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    const MerkleTree& tree = *entry.tree;
    std::uint8_t* rec = base + table_off + 8 + i * kTreeRecordBytes;
    store_u64(rec, tree.data_bytes());
    store_u64(rec + 8, tree.params().chunk_bytes);
    store_u64(rec + 16, tree.layout().num_leaves);
    store_u64(rec + 24, tree.nodes().size());
    store_u64(rec + 32, node_cursor);
    store_u64(rec + 40, name_cursor);
    store_u32(rec + 48, static_cast<std::uint32_t>(entry.name.size()));
    store_u32(rec + 52, static_cast<std::uint32_t>(tree.params().value_kind));
    store_f64(rec + 56, tree.params().hash.error_bound);
    store_u32(rec + 64, tree.params().hash.values_per_block);

    std::memcpy(base + names_off + name_cursor, entry.name.data(),
                entry.name.size());
    const std::uint64_t tree_node_bytes =
        tree.nodes().size() * hash::kDigestBytes;
    std::memcpy(base + nodes_off + node_cursor, tree.nodes().data(),
                tree_node_bytes);
    name_cursor += entry.name.size();
    node_cursor += tree_node_bytes;
  }

  const auto write_row = [&](std::size_t row, SectionId id,
                             std::uint64_t offset, std::uint64_t length) {
    std::uint8_t* at = base + kHeaderBytes + row * kSectionRowBytes;
    store_u32(at, static_cast<std::uint32_t>(id));
    store_u64(at + 8, offset);
    store_u64(at + 16, length);
    store_u64(at + 24,
              section_checksum(
                  std::span<const std::uint8_t>(base + offset, length),
                  static_cast<std::uint32_t>(id)));
  };
  if (delta_.has_value()) {
    const TreeDelta& delta = *delta_;
    std::uint8_t* at = base + layout.delta_off;
    store_u32(at, kDeltaMagic);
    store_u32(at + 4, kDeltaVersion);
    store_u64(at + 8, delta.iteration);
    store_u64(at + 16, delta.base_iteration);
    store_u64(at + 24, delta.data_bytes);
    store_u64(at + 32, delta.params.chunk_bytes);
    store_u64(at + 40, delta.num_leaves);
    store_u32(at + 48, static_cast<std::uint32_t>(delta.params.value_kind));
    store_u32(at + 52, delta.params.hash.values_per_block);
    store_f64(at + 56, delta.params.hash.error_bound);
    store_u64(at + 64, delta.nodes.size());
    std::uint8_t* entry_at = at + 72;
    for (const DeltaNode& node : delta.nodes) {
      store_u64(entry_at, node.index);
      store_u64(entry_at + 8, node.digest.lo);
      store_u64(entry_at + 16, node.digest.hi);
      entry_at += 24;
    }
  }

  write_row(0, SectionId::kTreeTable, table_off, table_len);
  write_row(1, SectionId::kNames, names_off, names_len);
  write_row(2, SectionId::kNodes, nodes_off, nodes_len);
  if (delta_.has_value()) {
    write_row(3, SectionId::kDelta, layout.delta_off, layout.delta_len);
  }
  return out;
}

std::vector<std::uint8_t> flat_serialize(const MerkleTree& tree) {
  FlatBuilder builder;
  // add() only rejects duplicates/invalid params; a built tree is valid.
  (void)builder.add("", tree);
  return builder.finish();
}

repro::Status save_flat(const MerkleTree& tree,
                        const std::filesystem::path& path) {
  return repro::write_file(path, flat_serialize(tree))
      .with_context("saving flat merkle metadata");
}

std::uint64_t flat_tree_bytes(std::uint64_t num_nodes) noexcept {
  return plan_layout(1, 0, num_nodes * hash::kDigestBytes, std::nullopt)
      .total;
}

std::vector<std::uint8_t> flat_serialize_delta(const TreeDelta& delta) {
  // A delta-only sidecar is a normal RMF2 file whose standard sections are
  // empty (tree_count == 0); readers without RMFD support parse it and see
  // zero trees instead of failing on an unknown format.
  FlatBuilder builder;
  builder.set_delta(delta);
  return builder.finish();
}

repro::Status save_flat_delta(const TreeDelta& delta,
                              const std::filesystem::path& path) {
  return repro::write_file(path, flat_serialize_delta(delta))
      .with_context("saving differential merkle sidecar");
}

// ---- MappedBundle ----------------------------------------------------------

repro::Result<MappedBundle> MappedBundle::open(
    const std::filesystem::path& path) {
  FlatMetrics::get().opens.increment();
  auto region = io::MmapRegion::open(path);
  if (region.is_ok()) {
    MappedBundle bundle;
    bundle.region_ = std::move(region.value());
    FlatMetrics::get().mapped_opens.increment();
    REPRO_ASSIGN_OR_RETURN(bundle.view_,
                           BundleView::parse(bundle.region_.bytes()));
    return bundle;
  }
  // Missing files stay hard errors; only the map step degrades to a read.
  if (!std::filesystem::exists(path)) {
    return repro::not_found("no merkle sidecar at " + path.string());
  }
  FlatMetrics::get().heap_fallbacks.increment();
  REPRO_ASSIGN_OR_RETURN(std::vector<std::uint8_t> bytes,
                         repro::read_file(path));
  return from_bytes(std::move(bytes));
}

repro::Result<MappedBundle> MappedBundle::from_bytes(
    std::vector<std::uint8_t> bytes) {
  MappedBundle bundle;
  bundle.heap_ = std::move(bytes);
  REPRO_ASSIGN_OR_RETURN(bundle.view_, BundleView::parse(bundle.heap_));
  return bundle;
}

repro::Result<TreeView> MappedBundle::sole_tree() const {
  if (view_.size() != 1) {
    if (view_.size() == 0 && view_.has_delta()) {
      return repro::failed_precondition(
          "sidecar is differential (RMFD only); resolve its delta chain "
          "against an anchor before reading trees");
    }
    return repro::failed_precondition(
        "sidecar holds " + std::to_string(view_.size()) +
        " trees; expected a single-tree sidecar");
  }
  return view_.tree(0);
}

}  // namespace repro::merkle
