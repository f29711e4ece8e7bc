// Online checkpoint comparison (the paper's first future-work item,
// Section 5).
//
// The offline pipeline reads *both* runs' flagged chunks back from the PFS.
// When the comparison runs inside the application — "is this run still
// reproducing the reference run?" — the live checkpoint bytes are already
// resident, so only the *reference* run's data ever needs to be read, and
// only for chunks the Merkle stage could not prune. The live run's tree is
// built in memory and never touches storage unless the caller also captures
// normally.
//
// check() runs the same two-stage engine as compare_pair (compare/engine.hpp)
// with the same CompareOptions: the reference is a file Side (its sidecar,
// or a tree built when build_metadata_if_missing allows), the live run a
// resident Side whose flagged chunks are copied out of memory by the
// stage-2 streamer. Verdicts, flagged chunks and the diff sample therefore
// match compare_pair on the same pair written to disk. Both trees read
// values as their checkpoint's own kind, so an F64 live run checks against
// an F64 reference captured by CaptureEngine.
//
// Typical use inside a simulation loop (see examples/online_monitor.cpp):
//
//   cmp::OnlineComparator monitor(catalog, "reference-run", options);
//   ... at each capture iteration ...
//   auto report = monitor.check(writer);   // writer holds live bytes
//   if (!report.value().identical_within_bound()) { react early! }
#pragma once

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/history.hpp"
#include "common/status.hpp"
#include "compare/comparator.hpp"
#include "compare/report.hpp"

namespace repro::cmp {

/// Compares a running application's checkpoints against a reference run's
/// stored history, iteration by iteration.
class OnlineComparator {
 public:
  OnlineComparator(ckpt::HistoryCatalog catalog, std::string reference_run,
                   CompareOptions options)
      : catalog_(std::move(catalog)),
        reference_run_(std::move(reference_run)),
        options_(std::move(options)) {}

  /// Compare the live checkpoint in `writer` (its info() names the
  /// iteration and rank) against the reference run's checkpoint for the
  /// same (iteration, rank). Reads reference metadata + only the flagged
  /// reference chunks; the live side stays in memory. The live tree is
  /// built with options.tree's chunk size and hash parameters at
  /// options.error_bound, so both must match how the reference was
  /// captured; like every whole-checkpoint tree, it reads values as the
  /// live checkpoint's own kind (CheckpointInfo::value_kind), the kind a
  /// capture of the same fields records.
  repro::Result<CompareReport> check(const ckpt::CheckpointWriter& writer);

  /// Earliest divergent iteration observed so far (across ranks checked
  /// through this comparator).
  [[nodiscard]] std::optional<std::uint64_t> first_divergent_iteration()
      const noexcept {
    return first_divergence_;
  }

  /// (iteration, rank, report) for every check() so far.
  [[nodiscard]] const std::vector<
      std::tuple<std::uint64_t, std::uint32_t, CompareReport>>&
  history() const noexcept {
    return history_;
  }

  /// Total reference bytes read across all checks — the online mode's I/O
  /// bill (the offline pipeline would have paid roughly twice this plus the
  /// live run's own reads).
  [[nodiscard]] std::uint64_t reference_bytes_read() const noexcept {
    return reference_bytes_read_;
  }

 private:
  ckpt::HistoryCatalog catalog_;
  std::string reference_run_;
  CompareOptions options_;
  std::optional<std::uint64_t> first_divergence_;
  std::vector<std::tuple<std::uint64_t, std::uint32_t, CompareReport>>
      history_;
  std::uint64_t reference_bytes_read_ = 0;
};

}  // namespace repro::cmp
