// Extension bench: offline vs online comparison I/O volume and runtime
// (the paper's Section 5 projection: "online checkpoint comparison can
// further reduce the I/O overhead since only the previous checkpoint
// history needs to be read from the PFS").
//
// Same divergence profile as the figure benches; for each error bound we
// compare one pair offline (both files' flagged chunks read from storage)
// and online (live side resident in memory, only reference chunks read).
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "compare/comparator.hpp"
#include "compare/online.hpp"
#include "merkle/flat.hpp"

namespace {

using namespace repro;

}  // namespace

int main() {
  bench::print_banner(
      "Extension: offline vs online comparison (future work, Section 5)",
      "Tan et al., Section 5",
      "Online keeps the live run in memory; bulk reads halve (or better).");

  const std::uint64_t values = (4ULL << 20) * bench::scale_factor();
  TempDir dir{"ext-online"};
  const bench::PairFiles pair = bench::make_layered_pair(dir, values, "eo");
  std::printf("checkpoint size: %s\n\n", format_size(pair.data_bytes).c_str());

  // The online side needs the "live" bytes as a CheckpointWriter and the
  // reference stored in a catalog.
  ckpt::HistoryCatalog catalog{dir.path() / "catalog"};
  const std::uint64_t chunk = 4 * kKiB;

  TextTable table({"Error bound", "Offline bytes read (both files)",
                   "Online bytes read (reference only)", "Offline time (ms)",
                   "Online time (ms)"});
  bool shapes_ok = true;
  for (const double eps : {1e-3, 1e-5, 1e-7}) {
    // Stage the reference (run A) in the catalog with metadata at eps.
    merkle::TreeParams params;
    params.chunk_bytes = chunk;
    params.hash.error_bound = eps;
    const auto ref = catalog.make_ref("reference", 1, 0);
    if (!ref.is_ok()) return 1;
    ckpt::CheckpointWriter ref_writer("bench", "reference", 1, 0);
    if (!ref_writer.add_field_f32("DATA", pair.values_a).is_ok()) return 1;
    if (!ref_writer.write(ref.value().checkpoint_path).is_ok()) return 1;
    {
      merkle::TreeBuilder builder(params, par::Exec::parallel());
      auto tree = builder.build(ref_writer.data_section());
      if (!tree.is_ok() ||
          !merkle::save_flat(tree.value(), ref.value().metadata_path)
               .is_ok()) {
        return 1;
      }
    }

    // Offline: both sides from storage.
    const ckpt::CheckpointPair offline_pair =
        bench::metadata_for(pair, chunk, eps);
    cmp::CompareOptions offline_options;
    offline_options.error_bound = eps;
    offline_options.evict_cache = true;
    offline_options.build_metadata_if_missing = false;
    const auto offline = cmp::compare_pair(offline_pair, offline_options);
    if (!offline.is_ok()) {
      std::fprintf(stderr, "offline failed: %s\n",
                   offline.status().to_string().c_str());
      return 1;
    }

    // Online: run B resident in memory.
    ckpt::CheckpointWriter live_writer("bench", "live", 1, 0);
    if (!live_writer.add_field_f32("DATA", pair.values_b).is_ok()) return 1;
    cmp::CompareOptions online_options;
    online_options.error_bound = eps;
    online_options.tree = params;
    cmp::OnlineComparator monitor(catalog, "reference", online_options);
    (void)repro::evict_page_cache(ref.value().checkpoint_path);
    const auto online = monitor.check(live_writer);
    if (!online.is_ok()) {
      std::fprintf(stderr, "online failed: %s\n",
                   online.status().to_string().c_str());
      return 1;
    }

    const std::uint64_t offline_bytes =
        2 * offline.value().bytes_read_per_file;
    const std::uint64_t online_bytes = online.value().bytes_read_per_file;
    table.add_row({strprintf("%g", eps), format_size(offline_bytes),
                   format_size(online_bytes),
                   strprintf("%.2f", offline.value().total_seconds * 1e3),
                   strprintf("%.2f", online.value().total_seconds * 1e3)});
    if (online.value().values_exceeding !=
        offline.value().values_exceeding) {
      shapes_ok = false;
    }
    if (online_bytes > offline_bytes / 2 + 1024) shapes_ok = false;
  }
  table.print();

  std::printf("\nshape check (%s):\n"
              "  [1] online and offline report identical diff counts\n"
              "  [2] online reads <= half the bulk bytes (reference side "
              "only)\n",
              shapes_ok ? "PASS" : "CHECK FAILED");
  return 0;
}
