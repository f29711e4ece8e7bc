// Per-field error-bounded comparison.
//
// compare_pair() applies one ε to a whole checkpoint. Domain tolerances are
// usually per variable: positions to 1e-6, velocities to 1e-4, potential to
// 1e-3. This extension builds (or maps, sidecar "<ckpt>.rmrb": an RMF2 file
// with one named tree per field) one Merkle tree per field — each at its
// own bound — and runs the two-stage engine compare_pair runs
// (compare/engine.hpp) once per field over that field's region of the data
// section, so a loose-tolerance field prunes to nothing while a tight one
// is still verified exactly. Reports keep the per-field structure (which
// field diverged is the scientific question).
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "common/status.hpp"
#include "compare/comparator.hpp"
#include "compare/report.hpp"
#include "io/retry.hpp"
#include "merkle/flat.hpp"

namespace repro::cmp {

struct FieldCompareOptions {
  /// Per-field absolute error bounds; fields not listed use
  /// compare.error_bound.
  std::map<std::string, double, std::less<>> field_bounds;

  /// Everything else, as for compare_pair. Each field's tree is built with
  /// tree.chunk_bytes (rounded down to whole values of the field's kind) and
  /// tree.hash.values_per_block; collect_field_stats is ignored (the
  /// FieldReports are the per-field breakdown).
  CompareOptions compare;
};

struct FieldReport {
  std::string field;
  double error_bound = 0;
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_flagged = 0;
  std::uint64_t values_compared = 0;
  std::uint64_t values_exceeding = 0;
  std::uint64_t bytes_read_per_file = 0;
};

struct FieldsReport {
  std::vector<FieldReport> fields;
  /// The max_diffs smallest value indices across all fields, ascending.
  std::vector<DiffRecord> diffs;
  /// I/O recovery activity: backend setup plus every field's stage 2.
  io::IoStats io;
  double total_seconds = 0;

  [[nodiscard]] bool identical_within_bounds() const noexcept {
    for (const auto& field : fields) {
      if (field.values_exceeding > 0) return false;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t total_exceeding() const noexcept {
    std::uint64_t total = 0;
    for (const auto& field : fields) total += field.values_exceeding;
    return total;
  }
};

/// Compare two checkpoints field by field under per-field bounds. Metadata
/// bundles are looked up at "<ckpt>.rmrb" (built and persisted when absent
/// and build_metadata_if_missing is set).
repro::Result<FieldsReport> compare_fields(
    const std::filesystem::path& checkpoint_a,
    const std::filesystem::path& checkpoint_b,
    const FieldCompareOptions& options);

/// Build the per-field metadata bundle for one checkpoint (capture-time
/// path; the offline path calls this implicitly): one tree per field, named
/// after it, held as an RMF2 multi-tree blob.
repro::Result<merkle::MappedBundle> build_field_bundle(
    const ckpt::CheckpointInfo& info, std::span<const std::uint8_t> data,
    const FieldCompareOptions& options);

}  // namespace repro::cmp
