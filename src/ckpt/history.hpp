// Checkpoint-history catalog.
//
// The problem formulation compares histories A_i^j and B_i^j: N ranks × M
// capture iterations per run, stored on the shared "PFS" directory as
//
//   <root>/<run_id>/iter<j>/rank<i>.ckpt       checkpoint bulk data
//   <root>/<run_id>/iter<j>/rank<i>.rmrk       Merkle metadata sidecar
//
// The catalog scans this layout, pairs up the two runs' files, and hands the
// comparison runtime an ordered worklist.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace repro::ckpt {

struct CheckpointRef {
  std::string run_id;
  std::uint64_t iteration = 0;
  std::uint32_t rank = 0;
  std::filesystem::path checkpoint_path;
  std::filesystem::path metadata_path;  ///< may not exist (no tree captured)

  /// False also when the sidecar cannot be probed.
  [[nodiscard]] bool has_metadata() const {
    std::error_code ec;
    return std::filesystem::exists(metadata_path, ec);
  }
};

/// One unit of comparison work: the same (iteration, rank) from two runs.
struct CheckpointPair {
  CheckpointRef run_a;
  CheckpointRef run_b;
};

/// Lenient pairing outcome for ragged histories (crashed runs, partial
/// copies, differing capture cadences): the aligned pairs plus whatever
/// (iteration, rank) slots exist on only one side. Forensics tools compare
/// the intersection and report the rest instead of refusing.
struct PairingReport {
  std::vector<CheckpointPair> pairs;      ///< sorted by (iteration, rank)
  std::vector<CheckpointRef> only_in_a;   ///< present in run A only
  std::vector<CheckpointRef> only_in_b;   ///< present in run B only

  [[nodiscard]] bool ragged() const noexcept {
    return !only_in_a.empty() || !only_in_b.empty();
  }
};

class HistoryCatalog {
 public:
  explicit HistoryCatalog(std::filesystem::path root)
      : root_(std::move(root)) {}

  [[nodiscard]] const std::filesystem::path& root() const noexcept {
    return root_;
  }

  /// Paths for a (run, iteration, rank); creates parent directories.
  repro::Result<CheckpointRef> make_ref(const std::string& run_id,
                                        std::uint64_t iteration,
                                        std::uint32_t rank) const;

  /// Same, without touching the filesystem.
  [[nodiscard]] CheckpointRef ref(const std::string& run_id,
                                  std::uint64_t iteration,
                                  std::uint32_t rank) const;

  /// Run ids present under the root, sorted.
  [[nodiscard]] repro::Result<std::vector<std::string>> runs() const;

  /// All checkpoints of one run, sorted by (iteration, rank).
  [[nodiscard]] repro::Result<std::vector<CheckpointRef>> checkpoints(
      const std::string& run_id) const;

  /// Pair two runs' histories: pair_runs_lenient's merge, refused with
  /// FAILED_PRECONDITION (naming the first one-sided checkpoint) unless
  /// both runs cover the same (iteration, rank) set — the paper's model
  /// assumes aligned capture schedules.
  [[nodiscard]] repro::Result<std::vector<CheckpointPair>> pair_runs(
      const std::string& run_a, const std::string& run_b) const;

  /// Lenient variant: pairs the (iteration, rank) intersection and reports
  /// one-sided checkpoints instead of erroring. Still errors on I/O
  /// problems (unreadable run directories).
  [[nodiscard]] repro::Result<PairingReport> pair_runs_lenient(
      const std::string& run_a, const std::string& run_b) const;

 private:
  std::filesystem::path root_;
};

}  // namespace repro::ckpt
