#include "ckpt/delta_store.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/fs.hpp"
#include "common/log.hpp"
#include "merkle/compare.hpp"
#include "merkle/nodestore.hpp"

namespace repro::ckpt {

namespace {
constexpr std::uint32_t kMagic = 0x544C4452;  // "RDLT"
constexpr std::uint32_t kVersion = 1;
/// Fixed prefix of every .rdlt file: magic, version, is_base, iteration,
/// data_bytes, chunk_bytes, chunk_count.
constexpr std::size_t kDeltaHeaderBytes = 4 + 4 + 1 + 8 + 8 + 8 + 8;

/// Delta/base file payload: header + chunk records.
struct DeltaHeader {
  std::uint64_t iteration;
  std::uint64_t data_bytes;   ///< full checkpoint size
  std::uint64_t chunk_bytes;
  std::uint64_t chunk_count;  ///< records in this file
  bool is_base;
};

void encode_delta(const DeltaHeader& header,
                  std::span<const std::uint64_t> chunks,
                  std::span<const std::uint8_t> data,
                  std::uint64_t chunk_bytes,
                  std::vector<std::uint8_t>& out) {
  ByteWriter writer(out);
  writer.put_u32(kMagic);
  writer.put_u32(kVersion);
  writer.put_u8(header.is_base ? 1 : 0);
  writer.put_u64(header.iteration);
  writer.put_u64(header.data_bytes);
  writer.put_u64(header.chunk_bytes);
  writer.put_u64(chunks.size());
  for (const std::uint64_t chunk : chunks) {
    const std::uint64_t begin = chunk * chunk_bytes;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + chunk_bytes, data.size());
    writer.put_u64(chunk);
    writer.put_u64(end - begin);
    writer.put_bytes(data.subspan(begin, end - begin));
  }
}

repro::Result<DeltaHeader> decode_delta_header(ByteReader& reader) {
  REPRO_ASSIGN_OR_RETURN(const std::uint32_t magic, reader.get_u32());
  if (magic != kMagic) return repro::corrupt_data("bad delta magic");
  REPRO_ASSIGN_OR_RETURN(const std::uint32_t version, reader.get_u32());
  if (version != kVersion) return repro::unsupported("bad delta version");
  DeltaHeader header{};
  REPRO_ASSIGN_OR_RETURN(const std::uint8_t is_base, reader.get_u8());
  header.is_base = is_base != 0;
  REPRO_ASSIGN_OR_RETURN(header.iteration, reader.get_u64());
  REPRO_ASSIGN_OR_RETURN(header.data_bytes, reader.get_u64());
  REPRO_ASSIGN_OR_RETURN(header.chunk_bytes, reader.get_u64());
  REPRO_ASSIGN_OR_RETURN(header.chunk_count, reader.get_u64());
  return header;
}

repro::Status apply_delta(std::span<const std::uint8_t> file,
                          std::vector<std::uint8_t>& data,
                          DeltaHeader* header_out) {
  ByteReader reader(file);
  REPRO_ASSIGN_OR_RETURN(DeltaHeader header, decode_delta_header(reader));

  // Bounds sanity before any allocation or arithmetic: every field below is
  // attacker-controlled on a corrupt file, and `chunk * chunk_bytes` or
  // `begin + length` would wrap uint64_t for huge values, sailing past a
  // naive `begin + length > data.size()` check into an OOB write.
  if (header.chunk_bytes == 0) {
    return repro::corrupt_data("delta chunk_bytes is zero");
  }
  // No-wrap form of ceil(data_bytes / chunk_bytes).
  const std::uint64_t num_chunks =
      header.data_bytes / header.chunk_bytes +
      (header.data_bytes % header.chunk_bytes != 0 ? 1 : 0);
  if (header.chunk_count > num_chunks) {
    return repro::corrupt_data("delta chunk_count exceeds checkpoint chunks");
  }
  if (header.is_base) {
    // A base file carries every stored byte inline, so data_bytes can never
    // exceed the file size — reject before the allocation, not after OOM.
    if (header.data_bytes > file.size()) {
      return repro::corrupt_data("base delta data_bytes exceeds file size");
    }
    data.assign(header.data_bytes, 0);
  } else if (data.size() != header.data_bytes) {
    return repro::corrupt_data("delta applied to wrong-size base");
  }
  for (std::uint64_t i = 0; i < header.chunk_count; ++i) {
    REPRO_ASSIGN_OR_RETURN(const std::uint64_t chunk, reader.get_u64());
    REPRO_ASSIGN_OR_RETURN(const std::uint64_t length, reader.get_u64());
    if (chunk >= num_chunks) {
      return repro::corrupt_data("delta chunk index out of range");
    }
    // chunk < num_chunks makes this multiplication wrap-free and keeps
    // begin < data_bytes; the writer emits exactly the chunk's extent.
    const std::uint64_t begin = chunk * header.chunk_bytes;
    const std::uint64_t expected =
        std::min<std::uint64_t>(header.chunk_bytes,
                                header.data_bytes - begin);
    if (length != expected) {
      return repro::corrupt_data("delta chunk length mismatch");
    }
    REPRO_RETURN_IF_ERROR(
        reader.get_bytes(std::span<std::uint8_t>(data.data() + begin, length)));
  }
  if (header_out != nullptr) *header_out = header;
  return repro::Status::ok();
}

/// Header of an on-disk .rdlt without reading the payload (load-time
/// validation over possibly large data files).
repro::Result<DeltaHeader> peek_delta_header(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return repro::io_error("open " + path.string());
  std::uint8_t buffer[kDeltaHeaderBytes];
  in.read(reinterpret_cast<char*>(buffer), sizeof(buffer));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(buffer))) {
    return repro::corrupt_data("delta file shorter than its header: " +
                               path.string());
  }
  ByteReader reader(std::span<const std::uint8_t>(buffer, sizeof(buffer)));
  return decode_delta_header(reader);
}

}  // namespace

std::filesystem::path DeltaStore::data_path(std::uint64_t iteration,
                                            bool base) const {
  return dir_ / ((base ? "base.iter" : "delta.iter") +
                 std::to_string(iteration) + ".rdlt");
}

std::filesystem::path DeltaStore::tree_path(std::uint64_t iteration) const {
  return dir_ / ("iter" + std::to_string(iteration) + ".rmrk");
}

repro::Result<DeltaStore> DeltaStore::open(std::filesystem::path root,
                                           std::string run_id,
                                           std::uint32_t rank,
                                           DeltaStoreOptions options) {
  REPRO_RETURN_IF_ERROR(merkle::validate(options.tree));
  const std::filesystem::path dir =
      root / run_id / ("rank" + std::to_string(rank));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return repro::io_error("mkdir " + dir.string() + ": " + ec.message());
  }
  return DeltaStore(dir, std::move(options));
}

repro::Status DeltaStore::append(std::uint64_t iteration,
                                 std::span<const std::uint8_t> data) {
  if (!iterations_.empty() && iteration <= iterations_.back()) {
    return repro::invalid_argument(
        "iterations must be appended in increasing order");
  }

  const bool is_base = iterations_.empty();
  const bool is_anchor =
      is_base || (options_.anchor_interval > 0 &&
                  appends_since_anchor_ >= options_.anchor_interval);

  std::vector<std::uint64_t> changed;
  merkle::TreeDelta tree_delta;  // vs the previous iteration; none at base
  merkle::TreeBuilder builder(options_.tree, options_.exec);
  if (is_base) {
    REPRO_ASSIGN_OR_RETURN(merkle::MerkleTree new_tree, builder.build(data));
    changed.resize(new_tree.num_chunks());
    for (std::uint64_t chunk = 0; chunk < new_tree.num_chunks(); ++chunk) {
      changed[chunk] = chunk;
    }
    effective_.assign(data.begin(), data.end());
    effective_tree_ = std::move(new_tree);
  } else {
    if (effective_.size() != data.size()) {
      return repro::failed_precondition(
          "checkpoint size changed between iterations");
    }
    REPRO_ASSIGN_OR_RETURN(merkle::MerkleTree new_tree, builder.build(data));
    // Diff against the *effective* state so elision never drifts more than
    // one error bound from the captured data.
    merkle::TreeCompareOptions compare_options;
    compare_options.exec = options_.exec;
    REPRO_ASSIGN_OR_RETURN(
        changed,
        merkle::compare_trees(effective_tree_, new_tree, compare_options));
    for (const std::uint64_t chunk : changed) {
      const auto [begin, end] = new_tree.chunk_range(chunk);
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(begin),
                data.begin() + static_cast<std::ptrdiff_t>(end),
                effective_.begin() + static_cast<std::ptrdiff_t>(begin));
    }
    // Only the stored chunks' paths change (no O(n) rebuild); the nodes
    // that moved form this iteration's RMFD delta.
    const merkle::MerkleTree before = effective_tree_;
    REPRO_RETURN_IF_ERROR(
        builder.update_leaves(effective_tree_, effective_, changed));
    REPRO_ASSIGN_OR_RETURN(
        tree_delta, merkle::compute_tree_delta(before, effective_tree_,
                                               iterations_.back(), iteration));
  }

  DeltaHeader header{iteration, data.size(), options_.tree.chunk_bytes,
                     is_anchor ? effective_tree_.num_chunks() : changed.size(),
                     is_anchor};
  std::vector<std::uint8_t> file;
  if (is_anchor && !is_base) {
    // Anchor: full snapshot so later reconstructs replay at most
    // anchor_interval deltas.
    std::vector<std::uint64_t> all(effective_tree_.num_chunks());
    for (std::uint64_t chunk = 0; chunk < all.size(); ++chunk) {
      all[chunk] = chunk;
    }
    encode_delta(header, all, effective_, options_.tree.chunk_bytes, file);
  } else {
    header.chunk_count = changed.size();
    encode_delta(header, changed, effective_, options_.tree.chunk_bytes,
                 file);
  }
  REPRO_RETURN_IF_ERROR(repro::write_file(data_path(iteration, is_anchor),
                                          file)
                            .with_context("writing delta"));

  // Sidecar: full RMF2 tree at anchors (carrying the RMFD delta too, so
  // incremental consumers keep the per-step diff), differential RMFD-only
  // otherwise; tree() replays the latter onto the nearest anchor.
  std::uint64_t sidecar_bytes = 0;
  if (is_anchor) {
    merkle::FlatBuilder sidecar;
    REPRO_RETURN_IF_ERROR(sidecar.add("", effective_tree_));
    if (!is_base) sidecar.set_delta(tree_delta);
    const std::vector<std::uint8_t> bytes = sidecar.finish();
    sidecar_bytes = bytes.size();
    REPRO_RETURN_IF_ERROR(
        repro::write_file(tree_path(iteration), bytes)
            .with_context("saving flat merkle metadata"));
  } else {
    const std::vector<std::uint8_t> bytes =
        merkle::flat_serialize_delta(tree_delta);
    sidecar_bytes = bytes.size();
    REPRO_RETURN_IF_ERROR(
        repro::write_file(tree_path(iteration), bytes)
            .with_context("saving differential merkle sidecar"));
  }

  stats_.captures += 1;
  stats_.raw_bytes += data.size();
  stats_.stored_bytes += file.size();
  stats_.metadata_bytes += sidecar_bytes;
  // What a full flat sidecar per iteration would have cost.
  stats_.metadata_full_bytes += effective_tree_.metadata_bytes();
  stats_.chunks_total += effective_tree_.num_chunks();
  stats_.chunks_stored += header.chunk_count;

  iterations_.push_back(iteration);
  if (is_anchor) {
    anchors_.push_back(iteration);
    appends_since_anchor_ = 1;
  } else {
    ++appends_since_anchor_;
  }
  return repro::Status::ok();
}

repro::Result<std::pair<std::size_t, std::size_t>> DeltaStore::replay_range(
    std::uint64_t iteration) const {
  const auto end =
      std::lower_bound(iterations_.begin(), iterations_.end(), iteration);
  if (end == iterations_.end() || *end != iteration) {
    return repro::not_found("iteration " + std::to_string(iteration) +
                            " not in delta store");
  }
  // Replay from the nearest anchor at or before the target: at most
  // anchor_interval files instead of the whole history.
  auto start = iterations_.begin();
  const auto anchor = std::upper_bound(anchors_.begin(), anchors_.end(),
                                       iteration);
  if (anchor != anchors_.begin()) {
    start = std::lower_bound(iterations_.begin(), end, *std::prev(anchor));
  }
  return std::pair<std::size_t, std::size_t>(start - iterations_.begin(),
                                             end - iterations_.begin());
}

repro::Result<std::vector<std::uint8_t>> DeltaStore::reconstruct(
    std::uint64_t iteration) const {
  REPRO_ASSIGN_OR_RETURN(const auto range, replay_range(iteration));
  std::vector<std::uint8_t> data;
  for (std::size_t i = range.first; i <= range.second; ++i) {
    const std::uint64_t listed = iterations_[i];
    const bool is_full =
        std::binary_search(anchors_.begin(), anchors_.end(), listed);
    REPRO_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> file,
                           repro::read_file(data_path(listed, is_full)));
    REPRO_RETURN_IF_ERROR(apply_delta(file, data, nullptr));
  }
  return data;
}

repro::Result<merkle::MerkleTree> DeltaStore::tree(
    std::uint64_t iteration) const {
  REPRO_ASSIGN_OR_RETURN(const auto range, replay_range(iteration));
  REPRO_ASSIGN_OR_RETURN(
      const merkle::MappedBundle anchor,
      merkle::MappedBundle::open(tree_path(iterations_[range.first])));
  REPRO_ASSIGN_OR_RETURN(const merkle::TreeView anchor_tree,
                         anchor.sole_tree());
  REPRO_ASSIGN_OR_RETURN(merkle::MerkleTree tree, anchor_tree.materialize());
  for (std::size_t i = range.first + 1; i <= range.second; ++i) {
    REPRO_RETURN_IF_ERROR(step_tree(i, tree).status());
  }
  return tree;
}

repro::Result<merkle::TreeDelta> DeltaStore::step_tree(
    std::size_t index, merkle::MerkleTree& tree) const {
  const std::uint64_t iteration = iterations_[index];
  REPRO_ASSIGN_OR_RETURN(merkle::TreeDelta delta, tree_delta(iteration));
  if (delta.iteration != iteration ||
      delta.base_iteration != iterations_[index - 1]) {
    return repro::corrupt_data(
        "differential sidecar " + tree_path(iteration).string() +
        " is the delta of iteration " + std::to_string(delta.iteration) +
        " from " + std::to_string(delta.base_iteration) + ", not of " +
        std::to_string(iteration) + " from " +
        std::to_string(iterations_[index - 1]));
  }
  REPRO_ASSIGN_OR_RETURN(tree, merkle::apply_tree_delta(tree, delta));
  return delta;
}

repro::Result<merkle::TreeDelta> DeltaStore::tree_delta(
    std::uint64_t iteration) const {
  REPRO_ASSIGN_OR_RETURN(merkle::MappedBundle bundle,
                         merkle::MappedBundle::open(tree_path(iteration)));
  if (!bundle.view().has_delta()) {
    return repro::not_found("sidecar of iteration " +
                            std::to_string(iteration) +
                            " carries no differential section");
  }
  return bundle.view().delta();
}

repro::Result<DeltaStore> DeltaStore::load(std::filesystem::path root,
                                           std::string run_id,
                                           std::uint32_t rank,
                                           DeltaStoreOptions options) {
  REPRO_ASSIGN_OR_RETURN(DeltaStore store,
                         open(std::move(root), std::move(run_id), rank,
                              std::move(options)));
  // One directory scan collects tree sidecars, data files, and stray
  // mid-publish temp files (crash between temp write and rename).
  std::vector<std::uint64_t> tree_iters;
  std::map<std::uint64_t, bool> data_iters;  // iteration -> is_base
  const auto parse_iter = [](std::string_view name, std::size_t prefix,
                             std::size_t suffix,
                             std::uint64_t* out) -> bool {
    const char* begin = name.data() + prefix;
    const char* end = name.data() + name.size() - suffix;
    if (begin >= end) return false;
    const auto [ptr, parse_ec] = std::from_chars(begin, end, *out);
    return parse_ec == std::errc{} && ptr == end;
  };
  REPRO_RETURN_IF_ERROR(repro::for_each_entry(
      store.dir_, [&](const std::filesystem::directory_entry& entry) {
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp-") != std::string::npos) {
          // Torn publish from a crash mid-write: the rename never happened,
          // so the content is unreferenced. Remove it.
          REPRO_LOG_WARN << "delta store: removing stray temp publish "
                         << name;
          std::error_code rm_ec;
          std::filesystem::remove(entry.path(), rm_ec);
          return repro::Status::ok();
        }
        std::uint64_t iteration = 0;
        if (name.starts_with("iter") && name.ends_with(".rmrk")) {
          if (parse_iter(name, 4, 5, &iteration)) {
            tree_iters.push_back(iteration);
          }
        } else if (name.starts_with("base.iter") && name.ends_with(".rdlt")) {
          if (parse_iter(name, 9, 5, &iteration)) data_iters[iteration] = true;
        } else if (name.starts_with("delta.iter") &&
                   name.ends_with(".rdlt")) {
          if (parse_iter(name, 10, 5, &iteration)) {
            data_iters[iteration] = false;
          }
        }
        return repro::Status::ok();
      }));
  std::sort(tree_iters.begin(), tree_iters.end());

  // Trust an iteration only when its sidecar AND data file both exist and
  // the data header matches the filename. Deltas replay in sequence, so the
  // history is truncated at the first broken link rather than failing late
  // inside reconstruct().
  std::vector<std::uint64_t> iterations;
  std::vector<std::uint64_t> anchors;
  for (const std::uint64_t iteration : tree_iters) {
    const auto data_it = data_iters.find(iteration);
    if (data_it == data_iters.end()) {
      REPRO_LOG_WARN << "delta store: iteration " << iteration
                     << " has a tree sidecar but no data file; truncating "
                        "history here";
      break;
    }
    const bool is_full = data_it->second;
    const auto header =
        peek_delta_header(store.data_path(iteration, is_full));
    if (!header.is_ok()) {
      REPRO_LOG_WARN << "delta store: iteration " << iteration
                     << " data file unreadable ("
                     << header.status().message()
                     << "); truncating history here";
      break;
    }
    if (header.value().iteration != iteration ||
        header.value().is_base != is_full) {
      REPRO_LOG_WARN << "delta store: iteration " << iteration
                     << " data header does not match its filename; "
                        "truncating history here";
      break;
    }
    if (iterations.empty() && !is_full) {
      REPRO_LOG_WARN << "delta store: first iteration " << iteration
                     << " is a delta with no base; truncating history here";
      break;
    }
    iterations.push_back(iteration);
    if (is_full) anchors.push_back(iteration);
    data_iters.erase(data_it);
  }
  // Whatever data files remain have no trusted sidecar — the crash-orphan
  // case (died between the data publish and the sidecar publish). They are
  // unreachable through the API; warn so an operator can reclaim them.
  for (const auto& [iteration, is_full] : data_iters) {
    if (!iterations.empty() && iteration <= iterations.back()) continue;
    REPRO_LOG_WARN << "delta store: orphaned data file for iteration "
                   << iteration << " (no tree sidecar); skipping";
  }
  store.iterations_ = std::move(iterations);
  store.anchors_ = std::move(anchors);
  // Headers can match while record payloads are corrupt (bit rot, hostile
  // edits); the only proof an iteration is usable is a clean replay. Trim
  // back to the longest prefix whose tail replays instead of failing load.
  while (!store.iterations_.empty()) {
    const std::uint64_t last = store.iterations_.back();
    auto tree = store.tree(last);
    if (tree.is_ok()) {
      auto data = store.reconstruct(last);
      if (data.is_ok()) {
        store.effective_tree_ = std::move(tree).value();
        store.effective_ = std::move(data).value();
        break;
      }
      REPRO_LOG_WARN << "delta store: iteration " << last
                     << " does not replay cleanly ("
                     << data.status().message()
                     << "); truncating history here";
    } else {
      REPRO_LOG_WARN << "delta store: iteration " << last
                     << " sidecar does not resolve ("
                     << tree.status().message()
                     << "); truncating history here";
    }
    if (!store.anchors_.empty() && store.anchors_.back() == last) {
      store.anchors_.pop_back();
    }
    store.iterations_.pop_back();
  }
  if (!store.iterations_.empty()) {
    // Distance from the last anchor primes the anchor cadence for appends.
    store.appends_since_anchor_ = 1;
    for (auto it = store.iterations_.rbegin();
         it != store.iterations_.rend() && *it != store.anchors_.back();
         ++it) {
      ++store.appends_since_anchor_;
    }
  }
  return store;
}

repro::Result<std::vector<TimelineEntry>> incremental_timeline(
    const DeltaStore& a, const DeltaStore& b, TimelineStats* stats) {
  // Iterations both stores hold, ascending.
  std::vector<std::uint64_t> common;
  std::set_intersection(a.iterations().begin(), a.iterations().end(),
                        b.iterations().begin(), b.iterations().end(),
                        std::back_inserter(common));
  TimelineStats shape;
  std::vector<TimelineEntry> timeline;
  if (common.empty()) {
    if (stats != nullptr) *stats = shape;
    return timeline;
  }

  // Full compare once, at the first common iteration; after that only the
  // chunks whose digests moved on either side get re-examined.
  REPRO_ASSIGN_OR_RETURN(merkle::MerkleTree tree_a, a.tree(common.front()));
  REPRO_ASSIGN_OR_RETURN(merkle::MerkleTree tree_b, b.tree(common.front()));
  merkle::TreeCompareStats compare_stats;
  REPRO_ASSIGN_OR_RETURN(
      const std::vector<std::uint64_t> initial,
      merkle::compare_trees(tree_a, tree_b, {}, &compare_stats));
  std::unordered_set<std::uint64_t> diverged(initial.begin(), initial.end());
  // The incremental walk pays the two full tree loads once, at the first
  // common iteration; a non-incremental timeline pays them (plus the
  // compare) at *every* iteration — that is the O(iterations × tree)
  // baseline full_visit_equiv records.
  const std::uint64_t full_visits_once = tree_a.nodes().size() +
                                         tree_b.nodes().size() +
                                         compare_stats.nodes_visited;
  shape.node_visits += full_visits_once;
  shape.full_visit_equiv += full_visits_once;
  shape.iterations = common.size();
  timeline.push_back({common.front(), diverged.size()});

  // Advance both stores to each next common iteration, folding every
  // intermediate per-iteration RMFD into the rolling tree (the step tree()
  // replays) and the touched chunk set.
  const auto advance =
      [&shape](const DeltaStore& store, merkle::MerkleTree& tree,
               std::uint64_t from, std::uint64_t to,
               std::unordered_set<std::uint64_t>& touched) -> repro::Status {
    const auto& iters = store.iterations();
    for (auto i = static_cast<std::size_t>(
             std::upper_bound(iters.begin(), iters.end(), from) -
             iters.begin());
         i < iters.size() && iters[i] <= to; ++i) {
      REPRO_ASSIGN_OR_RETURN(const merkle::TreeDelta delta,
                             store.step_tree(i, tree));
      shape.node_visits += delta.nodes.size();
      for (const std::uint64_t chunk : delta.changed_chunks()) {
        touched.insert(chunk);
      }
    }
    return repro::Status::ok();
  };

  for (std::size_t i = 1; i < common.size(); ++i) {
    std::unordered_set<std::uint64_t> touched;
    REPRO_RETURN_IF_ERROR(
        advance(a, tree_a, common[i - 1], common[i], touched));
    REPRO_RETURN_IF_ERROR(
        advance(b, tree_b, common[i - 1], common[i], touched));
    for (const std::uint64_t chunk : touched) {
      if (chunk >= tree_a.num_chunks() || chunk >= tree_b.num_chunks()) {
        continue;
      }
      ++shape.node_visits;
      if (tree_a.leaf(chunk) == tree_b.leaf(chunk)) {
        diverged.erase(chunk);
      } else {
        diverged.insert(chunk);
      }
    }
    shape.full_visit_equiv += full_visits_once;
    timeline.push_back({common[i], diverged.size()});
  }
  if (stats != nullptr) *stats = shape;
  return timeline;
}

}  // namespace repro::ckpt
