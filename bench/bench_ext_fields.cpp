// Extension bench: per-field error bounds (src/compare/fields.hpp).
//
// A Table 1-shaped checkpoint (X/Y/Z tight, VX/VY/VZ medium, PHI loose) is
// compared three ways:
//   * single-bound comparison at the tightest tolerance (what compare_pair
//     must do to be safe for every field),
//   * single-bound at the loosest tolerance (fast but unsafe for X/Y/Z),
//   * per-field bounds (safe AND fast: each field prunes under its own ε).
// The win: per-field matches the tight run's verdict while reading a
// fraction of its bytes.
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "compare/comparator.hpp"
#include "compare/fields.hpp"

namespace {

using namespace repro;

struct FieldSpec {
  const char* name;
  double bound;
  std::uint64_t divergence_seed;
};

}  // namespace

int main() {
  bench::print_banner(
      "Extension: per-field error bounds",
      "beyond the paper (per-variable tolerances)",
      "X/Y/Z at 1e-6, VX/VY/VZ at 1e-4, PHI at 1e-2; divergence ~1e-3 "
      "everywhere.");

  const std::uint64_t values_per_field =
      (1ULL << 20) * bench::scale_factor();
  const std::vector<FieldSpec> fields{
      {"X", 1e-6, 1},  {"Y", 1e-6, 2},  {"Z", 1e-6, 3},
      {"VX", 1e-4, 4}, {"VY", 1e-4, 5}, {"VZ", 1e-4, 6},
      {"PHI", 1e-2, 7},
  };

  TempDir dir{"ext-fields"};
  // Build both runs: every field perturbed at ~1e-3 (beyond 1e-6 and 1e-4,
  // within 1e-2), values grid-snapped so loose bounds actually prune.
  auto write_run = [&](const char* run, bool diverge) {
    ckpt::CheckpointWriter writer("bench", run, 1, 0);
    for (const FieldSpec& field : fields) {
      auto data = sim::generate_field(values_per_field,
                                      field.divergence_seed * 100);
      for (float& v : data) {
        v = static_cast<float>(
            std::llround(static_cast<double>(v) / 1e-2) * 1e-2);
      }
      if (diverge) {
        sim::apply_divergence(data,
                              {.region_fraction = 0.05, .region_values = 1024,
                               .magnitude = 1e-3,
                               .seed = field.divergence_seed});
      }
      if (!writer.add_field_f32(field.name, data).is_ok()) std::exit(1);
    }
    const auto path = dir.file(std::string(run) + ".ckpt");
    if (!writer.write(path).is_ok()) std::exit(1);
    (void)repro::evict_page_cache(path);
    return path;
  };
  const auto path_a = write_run("a", false);
  const auto path_b = write_run("b", true);
  std::printf("checkpoint: 7 fields x %s = %s\n\n",
              format_size(values_per_field * 4).c_str(),
              format_size(7 * values_per_field * 4).c_str());

  TextTable table({"Mode", "Verdict", "Values > bound", "Bytes read/file",
                   "Time (ms)"});
  std::uint64_t tight_bytes = 0;
  std::uint64_t per_field_bytes = 0;
  std::uint64_t tight_exceeding = 0;
  std::uint64_t per_field_exceeding = 0;

  // Single-bound runs at the extremes.
  for (const double eps : {1e-6, 1e-2}) {
    cmp::CompareOptions options;
    options.error_bound = eps;
    options.tree.chunk_bytes = 16 * kKiB;
    options.tree.hash.error_bound = eps;
    options.evict_cache = true;
    const auto report = cmp::compare_files(path_a, path_b, options);
    if (!report.is_ok()) {
      std::fprintf(stderr, "compare failed: %s\n",
                   report.status().to_string().c_str());
      return 1;
    }
    table.add_row({strprintf("single bound %g", eps),
                   report.value().identical_within_bound() ? "agree"
                                                           : "DIVERGED",
                   std::to_string(report.value().values_exceeding),
                   format_size(report.value().bytes_read_per_file),
                   strprintf("%.2f", report.value().total_seconds * 1e3)});
    if (eps == 1e-6) {
      tight_bytes = report.value().bytes_read_per_file;
      tight_exceeding = report.value().values_exceeding;
    }
    // Fresh sidecars for the next bound.
    std::filesystem::remove(path_a.string() + ".rmrk");
    std::filesystem::remove(path_b.string() + ".rmrk");
  }

  // Per-field bounds.
  {
    cmp::FieldCompareOptions options;
    for (const FieldSpec& field : fields) {
      options.field_bounds[field.name] = field.bound;
    }
    options.compare.tree.chunk_bytes = 16 * kKiB;
    (void)repro::evict_page_cache(path_a);
    (void)repro::evict_page_cache(path_b);
    const auto report = cmp::compare_fields(path_a, path_b, options);
    if (!report.is_ok()) {
      std::fprintf(stderr, "fields compare failed: %s\n",
                   report.status().to_string().c_str());
      return 1;
    }
    std::uint64_t bytes = 0;
    for (const auto& field : report.value().fields) {
      bytes += field.bytes_read_per_file;
    }
    per_field_bytes = bytes;
    per_field_exceeding = report.value().total_exceeding();
    table.add_row({"per-field bounds",
                   report.value().identical_within_bounds() ? "agree"
                                                            : "DIVERGED",
                   std::to_string(per_field_exceeding), format_size(bytes),
                   strprintf("%.2f", report.value().total_seconds * 1e3)});
  }
  table.print();

  // Per-field must catch every violation the tight single bound catches on
  // the tight fields (X/Y/Z diverge at 1e-3 > 1e-6) while reading less than
  // the tight run (PHI prunes under its loose bound).
  const bool shapes_ok = per_field_exceeding > 0 &&
                         per_field_exceeding < tight_exceeding &&
                         per_field_bytes < tight_bytes;
  std::printf("\nshape check (%s):\n"
              "  [1] per-field still flags the tight fields' divergence\n"
              "  [2] per-field reads less than the everything-tight run "
              "(%s vs %s)\n",
              shapes_ok ? "PASS" : "CHECK FAILED",
              format_size(per_field_bytes).c_str(),
              format_size(tight_bytes).c_str());
  return 0;
}
