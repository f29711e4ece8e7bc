#include "compare/elementwise.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "hash/kernels.hpp"

namespace repro::cmp {

namespace {

/// Bounds collection memory without breaking determinism: keeps the
/// max_diffs records with the smallest value_index. Any record discarded
/// here has >= max_diffs smaller-indexed records still present, so it could
/// never survive the caller's final sort-and-truncate — the kept sample is
/// independent of the dynamic schedule's arrival order.
void prune_to_smallest(std::vector<ElementDiff>* diffs,
                       std::size_t max_diffs) {
  if (diffs->size() <= max_diffs) return;
  auto mid = diffs->begin() + static_cast<std::ptrdiff_t>(max_diffs);
  std::nth_element(diffs->begin(), mid, diffs->end(),
                   [](const ElementDiff& a, const ElementDiff& b) {
                     return a.value_index < b.value_index;
                   });
  diffs->resize(max_diffs);
}

template <typename Float>
ElementwiseResult compare_typed(std::span<const std::uint8_t> run_a,
                                std::span<const std::uint8_t> run_b,
                                double eps, std::uint64_t base_value_index,
                                const ElementwiseOptions& options,
                                std::vector<ElementDiff>* diffs) {
  const auto* values_a = reinterpret_cast<const Float*>(run_a.data());
  const auto* values_b = reinterpret_cast<const Float*>(run_b.data());
  const std::uint64_t count = run_a.size() / sizeof(Float);

  ElementwiseResult result;
  result.values_compared = count;

  // NaN semantics match the quantizer: NaN vs NaN is reproducible, NaN vs
  // finite is a difference. The batched kernel implements the same rule;
  // this scalar copy only runs when locating diffs within a flagged block.
  auto differs = [eps](double a, double b) {
    const bool nan_a = std::isnan(a);
    const bool nan_b = std::isnan(b);
    if (nan_a || nan_b) return nan_a != nan_b;
    return std::abs(a - b) > eps;
  };

  // Both paths: claimed blocks of at least kMinValuesPerClaim values,
  // counted by the batched ε-compare kernel.
  std::atomic<std::uint64_t> exceeding{0};
  const bool collecting = options.collect_diffs && diffs != nullptr;
  if (!collecting && !options.collect_stats) {
    options.exec.for_blocks(
        0, count, kMinValuesPerClaim, [&](std::uint64_t lo, std::uint64_t hi) {
          exceeding.fetch_add(
              hash::count_diffs(values_a + lo, values_b + lo, hi - lo, eps),
              std::memory_order_relaxed);
        });
    result.values_exceeding = exceeding.load();
    return result;
  }

  std::mutex merge_mu;
  options.exec.for_blocks(
      0, count, kMinValuesPerClaim, [&](std::uint64_t lo, std::uint64_t hi) {
        // Count first with the kernel; only blocks with hits (or a stats
        // request, which needs every value) pay the scalar loop — most
        // blocks of a mostly-reproducible pair are clean.
        const std::uint64_t hits =
            hash::count_diffs(values_a + lo, values_b + lo, hi - lo, eps);
        if (hits != 0) exceeding.fetch_add(hits, std::memory_order_relaxed);
        if (hits == 0 && !options.collect_stats) return;

        // Indices ascend within a block, so a record past the block's first
        // max_diffs could never survive the final prune: keep none of them.
        const std::size_t keep = static_cast<std::size_t>(
            std::min<std::uint64_t>(hits, options.max_diffs));
        std::vector<ElementDiff> local;
        if (collecting) local.reserve(keep);
        double local_max = 0;
        double local_sq_diff = 0;
        double local_sq_ref = 0;
        for (std::uint64_t i = lo; i < hi; ++i) {
          const auto a = static_cast<double>(values_a[i]);
          const auto b = static_cast<double>(values_b[i]);
          if (options.collect_stats && !std::isnan(a) && !std::isnan(b)) {
            const double diff = a - b;
            local_max = std::max(local_max, std::abs(diff));
            local_sq_diff += diff * diff;
            local_sq_ref += a * a;
          }
          if (collecting && local.size() < keep && differs(a, b)) {
            local.push_back({base_value_index + i, a, b});
          }
        }

        std::lock_guard<std::mutex> lock(merge_mu);
        result.max_abs_diff = std::max(result.max_abs_diff, local_max);
        result.sum_sq_diff += local_sq_diff;
        result.sum_sq_ref += local_sq_ref;
        if (collecting && !local.empty()) {
          diffs->insert(diffs->end(), local.begin(), local.end());
          // Amortized prune: let the vector run to 2x the cap before paying
          // the nth_element; callers sort-and-truncate the remainder.
          if (diffs->size() > 2 * options.max_diffs) {
            prune_to_smallest(diffs, options.max_diffs);
          }
        }
      });
  // Final prune restores the public cap: the amortized in-loop prune only
  // fires past 2x, so the vector may still hold up to 2x max_diffs here.
  if (collecting) prune_to_smallest(diffs, options.max_diffs);
  result.values_exceeding = exceeding.load();
  return result;
}

}  // namespace

ElementwiseResult compare_region(std::span<const std::uint8_t> run_a,
                                 std::span<const std::uint8_t> run_b,
                                 merkle::ValueKind kind, double eps,
                                 std::uint64_t base_value_index,
                                 const ElementwiseOptions& options,
                                 std::vector<ElementDiff>* diffs) {
  switch (kind) {
    case merkle::ValueKind::kF32:
      return compare_typed<float>(run_a, run_b, eps, base_value_index,
                                  options, diffs);
    case merkle::ValueKind::kF64:
      return compare_typed<double>(run_a, run_b, eps, base_value_index,
                                   options, diffs);
    case merkle::ValueKind::kBytes: {
      ElementwiseResult result;
      const std::uint64_t count = run_a.size();
      result.values_compared = count;
      std::atomic<std::uint64_t> exceeding{0};
      auto count_block = [&](std::uint64_t lo, std::uint64_t hi) {
        std::uint64_t hits = 0;
        for (std::uint64_t i = lo; i < hi; ++i) {
          hits += run_a[i] != run_b[i] ? 1 : 0;
        }
        exceeding.fetch_add(hits, std::memory_order_relaxed);
      };
      options.exec.for_blocks(0, count, kMinBytesPerClaim, count_block);
      result.values_exceeding = exceeding.load();
      if (options.collect_diffs && diffs != nullptr) {
        for (std::uint64_t i = 0;
             i < count && diffs->size() < options.max_diffs; ++i) {
          if (run_a[i] != run_b[i]) {
            diffs->push_back({base_value_index + i,
                              static_cast<double>(run_a[i]),
                              static_cast<double>(run_b[i])});
          }
        }
      }
      return result;
    }
  }
  return {};
}

}  // namespace repro::cmp
