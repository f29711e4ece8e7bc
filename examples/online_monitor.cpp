// In-situ reproducibility monitoring + compacted history — the paper's two
// future-work directions (Section 5), working together:
//
//   * A reference run is captured once (checkpoints + metadata + a
//     delta-compacted history).
//   * A second run then monitors itself ONLINE: at each capture iteration it
//     compares its in-memory state against the reference, reading back only
//     the reference chunks the Merkle stage could not prune — and can react
//     (abort, log, re-seed) the moment reproducibility is lost, instead of
//     discovering it post-mortem.
//
// Build & run:  ./build/examples/online_monitor
#include <cstdio>

#include "ckpt/delta_store.hpp"
#include "common/fs.hpp"
#include "common/table.hpp"
#include "compare/online.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"
#include "sim/hacc_lite.hpp"

namespace {

using namespace repro;

constexpr double kErrorBound = 1e-6;
const std::vector<std::uint64_t> kSchedule{5, 10, 15, 20, 25};

merkle::TreeParams tree_params() {
  merkle::TreeParams params;
  params.chunk_bytes = 4 * kKiB;
  params.hash.error_bound = kErrorBound;
  return params;
}

sim::SimConfig sim_config(std::uint64_t run_seed) {
  sim::SimConfig config;
  config.num_particles = 16384;
  config.mesh_dim = 16;
  config.box_size = 32.0;
  config.steps = 25;
  config.time_step = 0.02;
  if (run_seed != 0) {
    config.noise.enabled = true;
    config.noise.run_seed = run_seed;
    config.noise.jitter_magnitude = 1e-6;
  }
  return config;
}

}  // namespace

int main() {
  TempDir pfs{"online-monitor"};
  ckpt::HistoryCatalog catalog{pfs.path()};

  // --- Phase 1: the reference run, captured normally + delta-compacted.
  std::printf("reference run: capturing checkpoints + delta history...\n");
  auto delta = ckpt::DeltaStore::open(pfs.path() / "delta", "reference", 0,
                                      {.tree = tree_params()});
  if (!delta.is_ok()) return 1;
  {
    sim::HaccLite app(sim_config(/*run_seed=*/0));
    if (!app.initialize().is_ok()) return 1;
    const Status status = app.run(kSchedule, [&](std::uint64_t iteration) {
      ckpt::CheckpointWriter writer("haccette", "reference", iteration, 0);
      REPRO_RETURN_IF_ERROR(app.add_checkpoint_fields(writer));
      // Regular checkpoint + sidecar for the online monitor...
      const auto ref = catalog.make_ref("reference", iteration, 0);
      REPRO_RETURN_IF_ERROR(ref.status());
      REPRO_RETURN_IF_ERROR(writer.write(ref.value().checkpoint_path));
      merkle::TreeBuilder builder(tree_params(), par::Exec::parallel());
      REPRO_ASSIGN_OR_RETURN(const merkle::MerkleTree tree,
                             builder.build(writer.data_section()));
      REPRO_RETURN_IF_ERROR(
          merkle::save_flat(tree, ref.value().metadata_path));
      // ...and the compacted history for long-term storage.
      return delta.value().append(iteration, writer.data_section());
    });
    if (!status.is_ok()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   status.to_string().c_str());
      return 1;
    }
  }
  const auto& dstats = delta.value().stats();
  std::printf("  delta store: %s raw -> %s stored (%.1fx compaction, "
              "%llu/%llu chunks elided)\n\n",
              format_size(dstats.raw_bytes).c_str(),
              format_size(dstats.stored_bytes).c_str(),
              dstats.compaction_ratio(),
              static_cast<unsigned long long>(dstats.chunks_total -
                                              dstats.chunks_stored),
              static_cast<unsigned long long>(dstats.chunks_total));

  // --- Phase 2: a second run monitors itself online against the reference.
  std::printf("second run (nondeterministic): monitoring online...\n");
  cmp::CompareOptions online_options;
  online_options.error_bound = kErrorBound;
  online_options.tree = tree_params();
  cmp::OnlineComparator monitor(catalog, "reference", online_options);

  sim::HaccLite app(sim_config(/*run_seed=*/77));
  if (!app.initialize().is_ok()) return 1;
  TextTable table({"iteration", "verdict", "values > eps", "ref bytes read"});
  const Status status = app.run(kSchedule, [&](std::uint64_t iteration) {
    ckpt::CheckpointWriter writer("haccette", "live", iteration, 0);
    REPRO_RETURN_IF_ERROR(app.add_checkpoint_fields(writer));
    REPRO_ASSIGN_OR_RETURN(const cmp::CompareReport report,
                           monitor.check(writer));
    table.add_row({std::to_string(iteration),
                   report.identical_within_bound() ? "reproducing"
                                                   : "DIVERGED",
                   std::to_string(report.values_exceeding),
                   format_size(report.bytes_read_per_file)});
    return Status::ok();
  });
  if (!status.is_ok()) {
    std::fprintf(stderr, "monitored run failed: %s\n",
                 status.to_string().c_str());
    return 1;
  }
  table.print();

  if (monitor.first_divergent_iteration().has_value()) {
    std::printf("\nonline monitor caught the divergence at iteration %llu, "
                "while the run was still in flight; total reference data "
                "read: %s (offline comparison of the full history would "
                "have read both runs' flagged chunks after the fact).\n",
                static_cast<unsigned long long>(
                    *monitor.first_divergent_iteration()),
                format_size(monitor.reference_bytes_read()).c_str());
  } else {
    std::printf("\nrun reproduced the reference at every capture point.\n");
  }

  // Bonus: the delta store can hand back any reference iteration for
  // post-mortem analysis without having kept full checkpoints.
  const auto restored = delta.value().reconstruct(kSchedule.back());
  if (restored.is_ok()) {
    std::printf("reconstructed reference iteration %llu from the compacted "
                "history: %s\n",
                static_cast<unsigned long long>(kSchedule.back()),
                format_size(restored.value().size()).c_str());
  }
  return 0;
}
