// Delta-compacted checkpoint history (the paper's second future-work item,
// Section 5: "compact the checkpoints online to reduce the I/O overhead and
// storage costs for the checkpoint history").
//
// The Merkle trees built at capture time tell us, for free, which chunks
// changed since the previous capture of the same rank. The DeltaStore
// exploits that: the first capture is stored in full; every later capture
// stores only the chunks whose error-bounded digest differs from the
// previous iteration's, plus the (tiny) tree. Reconstructing iteration j
// replays deltas over the nearest anchor — and because the *unstored*
// chunks were proven unchanged within the error bound, the reconstruction
// is exact for stored chunks and within-bound for elided ones. The store
// diffs each new capture against the *effective* (reconstructable) state,
// not the previous raw capture, so elision error never accumulates beyond
// one error bound no matter how long the history grows. For bitwise-exact
// reconstruction, capture with ValueKind::kBytes (bitwise hashing).
//
// Metadata is deduplicated the same way (ROADMAP item 2): between anchors,
// the per-iteration sidecar is *differential* — an RMFD section carrying
// only the tree nodes whose digests changed (merkle::compute_tree_delta) —
// so metadata bytes grow with divergence, not with iterations. Every
// `anchor_interval`-th capture writes a full snapshot of both data and tree
// (the tree sidecar also carries its RMFD vs the previous iteration, so
// incremental consumers never lose the per-step diff). The store is the one
// reader of its chains: reconstruct() and tree() both replay the listed
// iterations from the nearest anchor — at most `anchor_interval` deltas —
// and each delta must name the previous listed iteration as its base.
//
// Layout under the store root:
//   <run>/rank<i>/base.iter<j>.rdlt        full snapshot (first capture and
//                                          every anchor)
//   <run>/rank<i>/delta.iter<j>.rdlt       changed chunks vs previous
//   <run>/rank<i>/iter<j>.rmrk             tree sidecar of iteration j:
//                                          full RMF2 at anchors, RMFD-only
//                                          (differential) otherwise
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"
#include "par/exec.hpp"

namespace repro::ckpt {

struct DeltaStoreOptions {
  merkle::TreeParams tree;
  par::Exec exec = par::Exec::parallel();
  /// Every K-th capture is a full anchor (data + tree), bounding delta
  /// replay chains to K. 0 disables anchoring beyond the base capture.
  std::uint64_t anchor_interval = 16;
};

struct DeltaStoreStats {
  std::uint64_t captures = 0;
  std::uint64_t raw_bytes = 0;      ///< sum of full checkpoint sizes
  std::uint64_t stored_bytes = 0;   ///< bytes actually written (data files)
  std::uint64_t metadata_bytes = 0; ///< sidecar bytes written (deduplicated)
  /// What full-per-iteration flat sidecars would have cost — the dedup
  /// denominator of the ≥3x gate in bench_metadata.
  std::uint64_t metadata_full_bytes = 0;
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_stored = 0;

  [[nodiscard]] double compaction_ratio() const noexcept {
    // An empty store has compacted nothing: ratio 1.0, not 0 (a bare
    // stats read before the first append must not print "0x compaction").
    return stored_bytes > 0
               ? static_cast<double>(raw_bytes) /
                     static_cast<double>(stored_bytes)
               : 1.0;
  }
  [[nodiscard]] double metadata_savings() const noexcept {
    return metadata_bytes > 0
               ? static_cast<double>(metadata_full_bytes) /
                     static_cast<double>(metadata_bytes)
               : 1.0;
  }
};

/// One rank's delta-compacted capture stream within a run.
class DeltaStore {
 public:
  /// Opens (creating directories) the stream for (run_id, rank) under
  /// `root`. Appending and reconstruction can be interleaved freely.
  static repro::Result<DeltaStore> open(std::filesystem::path root,
                                        std::string run_id,
                                        std::uint32_t rank,
                                        DeltaStoreOptions options);

  /// Append the checkpoint of `iteration` (strictly increasing). Stores the
  /// full data on the first call and at every anchor, changed chunks only
  /// otherwise.
  repro::Status append(std::uint64_t iteration,
                       std::span<const std::uint8_t> data);

  /// Reconstruct the full data of a previously appended iteration. Replays
  /// from the nearest anchor at or before `iteration` — at most
  /// `anchor_interval` delta files.
  [[nodiscard]] repro::Result<std::vector<std::uint8_t>> reconstruct(
      std::uint64_t iteration) const;

  /// Load the tree stored for an iteration: the tree of the *effective*
  /// state reconstruct() returns (per-chunk within one error bound of the
  /// captured data). Replays the listed iterations' RMFD deltas onto the
  /// nearest anchor's tree, as reconstruct() replays data. Usable directly
  /// with merkle::compare_trees — cross-run comparison needs no
  /// reconstruction.
  [[nodiscard]] repro::Result<merkle::MerkleTree> tree(
      std::uint64_t iteration) const;

  /// The RMFD delta the sidecar of `iteration` carries (vs the previous
  /// appended iteration). Errors for the base capture, which has none.
  [[nodiscard]] repro::Result<merkle::TreeDelta> tree_delta(
      std::uint64_t iteration) const;

  /// One replay step: applies the delta of `iterations()[index]` (index >
  /// 0) onto `tree`, the tree of the listed iteration before it, and
  /// returns that delta. CORRUPT_DATA naming the sidecar when the delta is
  /// for another iteration or names another base.
  repro::Result<merkle::TreeDelta> step_tree(std::size_t index,
                                             merkle::MerkleTree& tree) const;

  /// Iterations appended so far, ascending.
  [[nodiscard]] const std::vector<std::uint64_t>& iterations() const noexcept {
    return iterations_;
  }

  /// Iterations stored as full anchors (always includes the base capture),
  /// ascending.
  [[nodiscard]] const std::vector<std::uint64_t>& anchors() const noexcept {
    return anchors_;
  }

  [[nodiscard]] const DeltaStoreStats& stats() const noexcept {
    return stats_;
  }

  /// Re-open an existing stream from disk (scans the directory). Orphaned
  /// data files (crash between the data and sidecar publishes) are skipped
  /// with a warning, stray mid-publish temp files are removed, and each
  /// listed iteration's data file is verified to exist with a matching
  /// header before it is trusted; the history is truncated at the first
  /// broken link so reconstruct() never fails late on a torn chain.
  static repro::Result<DeltaStore> load(std::filesystem::path root,
                                        std::string run_id,
                                        std::uint32_t rank,
                                        DeltaStoreOptions options);

 private:
  DeltaStore(std::filesystem::path dir, DeltaStoreOptions options)
      : dir_(std::move(dir)), options_(std::move(options)) {}

  [[nodiscard]] std::filesystem::path data_path(std::uint64_t iteration,
                                                bool base) const;
  [[nodiscard]] std::filesystem::path tree_path(
      std::uint64_t iteration) const;
  /// Positions in iterations_ of the nearest anchor at or before
  /// `iteration` and of `iteration` itself: the replay range of
  /// reconstruct() and tree(). NOT_FOUND when the store does not list it.
  [[nodiscard]] repro::Result<std::pair<std::size_t, std::size_t>>
  replay_range(std::uint64_t iteration) const;

  std::filesystem::path dir_;
  DeltaStoreOptions options_;
  std::vector<std::uint64_t> iterations_;
  std::vector<std::uint64_t> anchors_;
  std::uint64_t appends_since_anchor_ = 0;
  /// The reconstructable state after the latest append (diff baseline) and
  /// its tree. Kept in memory so every delta is computed against what a
  /// reader will actually see.
  std::vector<std::uint8_t> effective_;
  merkle::MerkleTree effective_tree_;
  DeltaStoreStats stats_;
};

/// One timeline step: how many chunks diverge between the two runs at this
/// iteration.
struct TimelineEntry {
  std::uint64_t iteration = 0;
  std::uint64_t diverged_chunks = 0;
};

struct TimelineStats {
  std::uint64_t iterations = 0;   ///< timeline entries produced
  std::uint64_t node_visits = 0;  ///< tree nodes actually examined
  /// What a full per-iteration compare would have examined — the
  /// O(iterations × tree) baseline the incremental walk avoids.
  std::uint64_t full_visit_equiv = 0;
};

/// Divergence timeline across the iterations both stores hold, computed
/// incrementally: one full tree compare at the first common iteration, then
/// only the subtrees whose root digests changed on either side (read from
/// the RMFD sidecars) — O(divergence) instead of O(iterations × tree).
repro::Result<std::vector<TimelineEntry>> incremental_timeline(
    const DeltaStore& a, const DeltaStore& b, TimelineStats* stats = nullptr);

}  // namespace repro::ckpt
