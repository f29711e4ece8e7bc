// CI regression gate (the paper's Conclusions sketch this use case): store
// the Merkle metadata of a blessed "golden" run; every candidate build runs
// the same deterministic workload and compares *metadata only*. If the roots
// match, the change preserved numerics within the error bound — without
// storing or reading any golden bulk data.
//
// Build & run:  ./build/examples/ci_gate
#include <cstdio>

#include "common/fs.hpp"
#include "merkle/compare.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"
#include "sim/hacc_lite.hpp"

namespace {

using namespace repro;

constexpr double kErrorBound = 1e-6;

/// The "test workload": a short deterministic simulation; returns the final
/// particle state serialized as checkpoint data. `code_drift` models a code
/// change that perturbs numerics (0 = faithful refactor).
Result<std::vector<std::uint8_t>> run_workload(double code_drift) {
  sim::SimConfig config;
  config.num_particles = 8192;
  config.mesh_dim = 16;
  config.box_size = 16.0;
  config.steps = 10;
  config.time_step = 0.02;
  if (code_drift > 0) {
    config.noise.enabled = true;
    config.noise.run_seed = 7;
    config.noise.shuffle_deposit = false;
    config.noise.jitter_magnitude = code_drift;
  }
  sim::HaccLite app(config);
  REPRO_RETURN_IF_ERROR(app.initialize());
  REPRO_RETURN_IF_ERROR(app.run({}, nullptr));
  ckpt::CheckpointWriter writer("haccette", "ci", app.iteration(), 0);
  REPRO_RETURN_IF_ERROR(app.add_checkpoint_fields(writer));
  return std::vector<std::uint8_t>(writer.data_section().begin(),
                                   writer.data_section().end());
}

Result<merkle::MerkleTree> tree_of(const std::vector<std::uint8_t>& data) {
  merkle::TreeParams params;
  params.chunk_bytes = 16 * kKiB;
  params.hash.error_bound = kErrorBound;
  return merkle::TreeBuilder(params, par::Exec::parallel()).build(data);
}

/// Gate: compare candidate metadata against the stored golden metadata.
Result<bool> gate(const std::filesystem::path& golden_path,
                  double code_drift) {
  REPRO_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> data,
                         run_workload(code_drift));
  REPRO_ASSIGN_OR_RETURN(const merkle::MerkleTree candidate, tree_of(data));
  REPRO_ASSIGN_OR_RETURN(const merkle::MappedBundle golden_sidecar,
                         merkle::MappedBundle::open(golden_path));
  REPRO_ASSIGN_OR_RETURN(const merkle::TreeView golden,
                         golden_sidecar.sole_tree());
  REPRO_ASSIGN_OR_RETURN(
      const std::vector<std::uint64_t> diffs,
      merkle::compare_trees(golden, merkle::TreeView(candidate)));
  if (!diffs.empty()) {
    std::printf("  gate: %zu of %llu chunks differ beyond eps=%g\n",
                diffs.size(),
                static_cast<unsigned long long>(golden.num_chunks()),
                kErrorBound);
  }
  return diffs.empty();
}

}  // namespace

int main() {
  TempDir dir{"ci-gate"};
  const auto golden_path = dir.file("golden.rmrk");

  // --- Bless the golden run. Only the metadata is stored: a few KB instead
  //     of the checkpoint itself.
  {
    auto data = run_workload(/*code_drift=*/0.0);
    if (!data.is_ok()) {
      std::fprintf(stderr, "golden run failed\n");
      return 1;
    }
    auto tree = tree_of(data.value());
    if (!tree.is_ok() ||
        !merkle::save_flat(tree.value(), golden_path).is_ok()) {
      std::fprintf(stderr, "golden metadata save failed\n");
      return 1;
    }
    std::printf("blessed golden run: %s of metadata for %s of state\n",
                format_size(tree.value().metadata_bytes()).c_str(),
                format_size(data.value().size()).c_str());
  }

  // --- Candidate 1: a faithful refactor (bit-identical numerics).
  std::printf("\ncandidate 1 (faithful refactor):\n");
  const auto good = gate(golden_path, 0.0);
  if (!good.is_ok()) return 1;
  std::printf("  %s\n", good.value() ? "PASS - numerics preserved"
                                     : "FAIL - unexpected divergence");

  // --- Candidate 2: a change that perturbs forces by ~1e-4 per step.
  std::printf("\ncandidate 2 (numerics-affecting change):\n");
  const auto bad = gate(golden_path, 1e-4);
  if (!bad.is_ok()) return 1;
  std::printf("  %s\n",
              bad.value()
                  ? "PASS (unexpected!)"
                  : "FAIL - change introduces a reproducibility regression");

  // Exit code mirrors a real CI gate on the regressed candidate.
  return good.value() && !bad.value() ? 0 : 1;
}
