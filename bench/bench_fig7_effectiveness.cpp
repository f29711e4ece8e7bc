// Figure 7 reproduction: effectiveness of the error-bounded hash function.
//
//   (a) percentage of checkpoint data marked potentially changed, per
//       (error bound, chunk size);
//   (b) false-positive rate: flagged chunks that contain no value actually
//       exceeding the bound, relative to the chunks that could have been
//       false positives.
//
// Paper shape claims checked (Section 3.4.3):
//   * Zero false negatives: every chunk with a real out-of-bound change is
//     flagged (the conservative guarantee) — verified exactly here.
//   * Flagged percentage grows as chunks grow and as the bound tightens.
//   * False-positive rates are small (the paper reports <= ~0.175).
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_common.hpp"
#include "merkle/compare.hpp"
#include "merkle/flat.hpp"

namespace {

using namespace repro;

/// Ground-truth chunk set: chunks containing at least one |a-b| > eps.
std::set<std::uint64_t> truth_chunks(const bench::PairFiles& pair,
                                     std::uint64_t chunk_bytes, double eps) {
  std::set<std::uint64_t> chunks;
  const std::uint64_t chunk_values = chunk_bytes / sizeof(float);
  for (std::size_t i = 0; i < pair.values_a.size(); ++i) {
    if (std::abs(static_cast<double>(pair.values_a[i]) -
                 static_cast<double>(pair.values_b[i])) > eps) {
      chunks.insert(i / chunk_values);
    }
  }
  return chunks;
}

}  // namespace

int main() {
  bench::print_banner(
      "Figure 7: effectiveness of the error-bounded hash function",
      "Tan et al., Figure 7 a-b",
      "(a) % of data flagged for re-read; (b) false positive rate; plus the "
      "zero-false-negative verification.");

  const std::uint64_t values = (8ULL << 20) * bench::scale_factor();
  TempDir dir{"fig7"};
  const bench::PairFiles pair = bench::make_layered_pair(dir, values, "f7");
  std::printf("checkpoint size: %s\n\n", format_size(pair.data_bytes).c_str());

  const std::vector<double> bounds{1e-7, 1e-6, 1e-5, 1e-4, 1e-3};
  const std::vector<std::uint64_t> chunks{4 * kKiB, 16 * kKiB, 64 * kKiB,
                                          256 * kKiB, 512 * kKiB};

  std::vector<std::string> headers{"Error bound"};
  for (const std::uint64_t chunk : chunks) {
    headers.push_back(format_size(chunk));
  }
  TextTable flagged_table(headers);
  TextTable fpr_table(headers);

  bool no_false_negatives = true;
  bool flagged_grows_with_tightening = true;
  double max_fpr = 0;
  std::vector<double> previous_row(chunks.size(), 200.0);

  for (const double eps : bounds) {
    std::vector<std::string> flagged_row{strprintf("%g", eps)};
    std::vector<std::string> fpr_row{strprintf("%g", eps)};
    std::vector<double> this_row;
    for (const std::uint64_t chunk : chunks) {
      const ckpt::CheckpointPair with_metadata =
          bench::metadata_for(pair, chunk, eps);
      const auto sidecar_a =
          merkle::MappedBundle::open(with_metadata.run_a.metadata_path);
      const auto sidecar_b =
          merkle::MappedBundle::open(with_metadata.run_b.metadata_path);
      if (!sidecar_a.is_ok() || !sidecar_b.is_ok()) {
        std::fprintf(stderr, "metadata load failed\n");
        return 1;
      }
      const auto tree_a = sidecar_a.value().sole_tree();
      const auto tree_b = sidecar_b.value().sole_tree();
      if (!tree_a.is_ok() || !tree_b.is_ok()) {
        std::fprintf(stderr, "metadata load failed\n");
        return 1;
      }
      const auto flagged =
          merkle::compare_trees(tree_a.value(), tree_b.value());
      if (!flagged.is_ok()) {
        std::fprintf(stderr, "tree compare failed\n");
        return 1;
      }
      const std::set<std::uint64_t> flagged_set(flagged.value().begin(),
                                                flagged.value().end());
      const std::set<std::uint64_t> truth = truth_chunks(pair, chunk, eps);

      // Conservative guarantee: truth must be a subset of flagged.
      for (const std::uint64_t t : truth) {
        if (!flagged_set.contains(t)) no_false_negatives = false;
      }

      const std::uint64_t total = tree_a.value().num_chunks();
      const double flagged_pct =
          100.0 * static_cast<double>(flagged_set.size()) /
          static_cast<double>(total);
      const std::uint64_t clean_chunks = total - truth.size();
      const std::uint64_t false_positives =
          flagged_set.size() - truth.size();
      const double fpr =
          clean_chunks > 0 ? static_cast<double>(false_positives) /
                                 static_cast<double>(clean_chunks)
                           : 0.0;
      max_fpr = std::max(max_fpr, fpr);
      flagged_row.push_back(strprintf("%.1f%%", flagged_pct));
      fpr_row.push_back(strprintf("%.4f", fpr));
      this_row.push_back(flagged_pct);
    }
    // Rows iterate 1e-7 -> 1e-3: flagged % must not increase as eps loosens.
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      if (this_row[c] > previous_row[c] + 1.0) {
        flagged_grows_with_tightening = false;
      }
    }
    previous_row = this_row;
    flagged_table.add_row(std::move(flagged_row));
    fpr_table.add_row(std::move(fpr_row));
  }

  std::printf("(a) %% of checkpoint data marked potentially changed\n");
  flagged_table.print();
  std::printf("\n(b) false positive rate (flagged clean chunks / clean "
              "chunks)\n");
  fpr_table.print();

  const bool shapes_ok =
      no_false_negatives && flagged_grows_with_tightening && max_fpr < 0.25;
  std::printf("\nshape check (%s):\n"
              "  [1] zero false negatives: %s\n"
              "  [2] flagged %% grows as the bound tightens: %s\n"
              "  [3] max false-positive rate %.4f (< 0.25, paper <= ~0.175)\n",
              shapes_ok ? "PASS" : "CHECK FAILED",
              no_false_negatives ? "yes" : "NO",
              flagged_grows_with_tightening ? "yes" : "NO", max_fpr);
  return 0;
}
