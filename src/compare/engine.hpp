// The two-stage compare engine behind every entry point (Sections 2.2-2.5),
// implemented in comparator.cpp. An entry point builds two Sides, one per
// run, and hands them to compare_sides(): stage 1 is the pruned BFS over
// their trees, stage 2 streams only the candidate chunks through
// io::PairedChunkStreamer and verifies them element-wise. Sides come in
// three kinds: file (compare_pair, compare_fields, OnlineComparator's
// reference), resident (OnlineComparator's live run, read through a memory
// backend) and cache (a file Side whose tree comes from a MetadataProvider,
// i.e. the daemon's cache).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "ckpt/format.hpp"
#include "common/status.hpp"
#include "compare/comparator.hpp"
#include "compare/report.hpp"
#include "io/backend.hpp"

namespace repro::cmp {

/// One run's contribution to a compare.
struct Side {
  ckpt::CheckpointInfo info;  ///< data-section layout
  /// Stage-2 byte source. A file Side opens it from `checkpoint` only when
  /// it first reads data (ensure_backend), so a pair without candidates opens
  /// no stage-2 file.
  std::unique_ptr<io::IoBackend> backend;
  std::filesystem::path checkpoint;  ///< file Sides only
  std::uint64_t data_offset = 0;  ///< backend offset of data-section byte 0
  PinnedTree tree;                ///< stage-1 tree over the whole section
};

/// File Side without its tree or backend (setup phase): the checkpoint
/// header only.
repro::Result<Side> open_file_side(const std::filesystem::path& checkpoint,
                                   CompareReport& report);

/// Opens a file Side's stage-2 backend unless it already has one. Charged
/// to the setup phase; fallbacks are counted into `report`.
repro::Status ensure_backend(Side& side, const CompareOptions& options,
                             CompareReport& report);

/// Attaches a file Side's tree: the provider's when it returns a valid one,
/// else the sidecar at `metadata_path`, else (build_metadata_if_missing) a
/// tree built from the data section and persisted there. The tree must
/// cover the Side's data section.
repro::Status load_tree(Side& side, const std::filesystem::path& metadata_path,
                        const CompareOptions& options,
                        const MetadataProvider& metadata,
                        CompareReport& report);

/// Resident Side over a live writer's data section (which must outlive
/// it), with the tree a sidecar-less file Side would get, built in memory.
repro::Result<Side> resident_side(const ckpt::CheckpointWriter& writer,
                                  const CompareOptions& options,
                                  CompareReport& report);

/// The whole data section of a Side, read through its backend (opened
/// first if need be).
repro::Result<std::vector<std::uint8_t>> read_data_section(
    Side& side, const CompareOptions& options, CompareReport& report);

/// Stages 1 and 2 over the region of the data section that `tree_a` and
/// `tree_b` cover, starting at byte `region_offset` (0 for whole-checkpoint
/// trees, a field's data_offset for per-field trees). The trees must be
/// built at options.error_bound. Opens the Sides' backends only when stage 1
/// leaves candidates. Fills the stage counts, flagged_chunks,
/// the diff sample (ascending value_index, at most max_diffs), per-field
/// divergences, the stage-2 I/O counters and the compare_tree /
/// compare_direct timers.
repro::Status compare_sides(Side& a, Side& b, const merkle::TreeView& tree_a,
                            const merkle::TreeView& tree_b,
                            std::uint64_t region_offset,
                            const CompareOptions& options,
                            CompareReport& report);

/// Records one finished checkpoint-pair compare in the compare.* metrics.
void record_compare_metrics(const CompareReport& report);

}  // namespace repro::cmp
