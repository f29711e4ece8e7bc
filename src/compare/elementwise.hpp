// Element-wise error-bounded comparison kernel.
//
// The innermost loop of both the Direct baseline and stage 2 of our method:
// given two buffers holding the same region from two runs, count (and
// optionally locate) values with |a - b| > eps. Parallelized over the
// executor like every other bulk kernel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "merkle/tree.hpp"
#include "par/exec.hpp"

namespace repro::cmp {

struct ElementDiff {
  std::uint64_t value_index = 0;  ///< global index within the data section
  double value_a = 0;
  double value_b = 0;
};

struct ElementwiseResult {
  std::uint64_t values_compared = 0;
  std::uint64_t values_exceeding = 0;
  /// Severity statistics, populated only when ElementwiseOptions::
  /// collect_stats is set and the kind is a float type. NaN pairs are
  /// excluded (their "difference" has no magnitude). sum_sq_ref sums run A's
  /// squares — the denominator of the relative L2 error
  /// sqrt(sum_sq_diff / sum_sq_ref) forensics tools report per field.
  double max_abs_diff = 0;
  double sum_sq_diff = 0;
  double sum_sq_ref = 0;
};

struct ElementwiseOptions {
  par::Exec exec = par::Exec::parallel();
  /// Collect per-value diff records (capped at max_diffs); counting alone
  /// is cheaper and is what the throughput benches use.
  bool collect_diffs = false;
  std::size_t max_diffs = 1024;
  /// Accumulate max |a-b| and the squared sums above. Forces a scalar pass
  /// over every block (not just flagged ones), so divergence-forensics
  /// callers opt in; the hot compare path leaves it off.
  bool collect_stats = false;
};

/// Fewest values one claim of compare_region holds for F32 and F64: 16 Ki
/// F32 values are two 64 KiB buffers, ~8 µs of count_diffs at ~16 GB/s,
/// the same order as waking a pool thread and joining it. A region of at
/// most this many values (any stage-2 chunk up to 64 KiB) is one claim and
/// runs on the calling thread; larger regions fan out (docs/PERF.md §4).
inline constexpr std::uint64_t kMinValuesPerClaim = 16 * 1024;
/// The same floor for kBytes regions: the same 64 KiB per claim.
inline constexpr std::uint64_t kMinBytesPerClaim =
    kMinValuesPerClaim * sizeof(float);

/// Compare two equal-length byte regions holding `kind`-typed values with
/// absolute bound `eps`. `base_value_index` offsets the reported indices so
/// callers can map chunk-local hits back to checkpoint positions. Appends
/// to `diffs` when collecting. For ValueKind::kBytes, "exceeding" means
/// bitwise-unequal bytes and eps is ignored (and collect_stats reports
/// nothing — byte payloads have no numeric severity).
///
/// Collection is deterministic regardless of the dynamic schedule: when
/// `diffs` grows past the cap, the max_diffs records with the *smallest*
/// value_index are kept, so repeated runs agree on the sample (callers
/// sort-and-truncate once more at the end; see compare_pair).
ElementwiseResult compare_region(std::span<const std::uint8_t> run_a,
                                 std::span<const std::uint8_t> run_b,
                                 merkle::ValueKind kind, double eps,
                                 std::uint64_t base_value_index,
                                 const ElementwiseOptions& options,
                                 std::vector<ElementDiff>* diffs);

}  // namespace repro::cmp
