// The headline runtime: Merkle-pruned, error-bounded, streamed checkpoint
// comparison (Sections 2.2-2.5).
//
// compare_pair() runs the full two-stage pipeline on one (iteration, rank)
// checkpoint pair:
//   setup            open checkpoints + I/O backends
//   read             load both runs' Merkle metadata (or build it when the
//                    capture ran without metadata)
//   deserialization  decode the trees
//   compare_tree     pruned BFS -> candidate chunk list
//   compare_direct   stream candidate chunks from both files, element-wise
//                    verify within the error bound
// The five phases are charged into CompareReport::timers exactly as in the
// paper's Figure 6 breakdown. The stages themselves live in the engine
// (compare/engine.hpp) that OnlineComparator, compare_fields and the daemon
// share with compare_pair.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <optional>

#include "ckpt/format.hpp"
#include "ckpt/history.hpp"
#include "common/status.hpp"
#include "compare/report.hpp"
#include "io/backend.hpp"
#include "io/stream.hpp"
#include "merkle/compare.hpp"
#include "merkle/tree.hpp"
#include "par/exec.hpp"

namespace repro::cmp {

struct CompareOptions {
  /// Error bound applied by stage 2's element-wise verification. Stage 1
  /// uses the bound baked into the metadata at capture time; mixing bounds
  /// is rejected (the hash guarantee only covers its own bound).
  double error_bound = 1e-6;

  /// Backend for stage 2's scattered reads.
  io::BackendKind backend = io::BackendKind::kUring;
  /// Fall back (uring -> threads) instead of failing when unavailable.
  bool backend_fallback = true;
  io::BackendOptions backend_options;

  io::StreamOptions stream;
  merkle::TreeCompareOptions tree_compare;
  par::Exec exec = par::Exec::parallel();

  /// When a checkpoint has no .rmrk sidecar, build the tree on the fly with
  /// these parameters (offline mode); error_bound overrides tree.hash.
  merkle::TreeParams tree;
  bool build_metadata_if_missing = true;

  /// Collect located diffs (field + element index) up to max_diffs. The
  /// sample is deterministic: the max_diffs smallest value indices, in
  /// ascending order, independent of the dynamic schedule.
  bool collect_diffs = false;
  std::size_t max_diffs = 1024;

  /// Split stage 2 at field boundaries and fill CompareReport::
  /// field_divergences (per-field counts, max |a-b|, relative L2 over the
  /// flagged regions). Costs a scalar pass over streamed chunks, so the
  /// divergence-forensics paths (--ledger-out, repro-cli timeline) enable
  /// it; plain compare leaves it off.
  bool collect_field_stats = false;

  /// Drop both files (and metadata) from the page cache first — the
  /// cold-cache protocol the paper enforces with `vmtouch -e`.
  bool evict_cache = false;
};

/// A zero-copy tree view plus whatever owns its backing bytes. The view is
/// what the comparison walks; the type-erased pin (a MappedBundle, a decoded
/// MerkleTree, …) keeps those bytes alive for the duration of the compare
/// even if the supplying cache evicts the entry concurrently.
struct PinnedTree {
  merkle::TreeView view;
  std::shared_ptr<const void> pin;

  [[nodiscard]] bool valid() const noexcept { return view.valid(); }
};

/// Metadata hook: maps a sidecar path to a tree the caller already holds
/// resident (the compare service's sharded cache). An invalid PinnedTree
/// means "not resident; read the file". A resident tree skips the sidecar
/// read + deserialize phases entirely, so a fully resident pair reports
/// metadata_bytes_read == 0 — the "warm query touches zero sidecar I/O"
/// guarantee. Trees are validated against their checkpoint's data-section
/// size before use.
using MetadataProvider =
    std::function<repro::Result<PinnedTree>(const std::filesystem::path&)>;

/// Compare one aligned checkpoint pair (same iteration, same rank). Each
/// side's tree comes from `metadata` when it has it, else from the sidecar.
repro::Result<CompareReport> compare_pair(
    const ckpt::CheckpointPair& pair, const CompareOptions& options,
    const MetadataProvider& metadata = {});

/// The metadata sidecar of a bare checkpoint path: "<file>.ckpt.rmrk" when
/// it exists, else "<file>.rmrk" (catalog convention, extension replaced)
/// when that exists, else the former as the place to build it.
std::filesystem::path sidecar_for(const std::filesystem::path& checkpoint);

/// Convenience overload for bare file paths: metadata sidecars are looked
/// up with sidecar_for().
repro::Result<CompareReport> compare_files(
    const std::filesystem::path& checkpoint_a,
    const std::filesystem::path& checkpoint_b, const CompareOptions& options);

/// First-divergence search over two runs' full histories: compares pairs in
/// (iteration, rank) order and reports the earliest iteration at which any
/// rank exceeds the bound — the "identify divergence early in the execution
/// path" use case of the introduction.
struct HistoryReport {
  std::vector<std::pair<ckpt::CheckpointPair, CompareReport>> pairs;
  /// Earliest iteration with a difference; empty if histories agree.
  std::optional<std::uint64_t> first_divergent_iteration;
  std::optional<std::uint32_t> first_divergent_rank;
  /// Checkpoints present in only one run; always empty unless
  /// HistoryOptions::allow_ragged paired the runs leniently.
  std::vector<ckpt::CheckpointRef> only_in_a;
  std::vector<ckpt::CheckpointRef> only_in_b;
  double total_seconds = 0;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& [pair, report] : pairs) total += report.data_bytes;
    return total;
  }
};

struct HistoryOptions {
  CompareOptions pair_options;
  /// Stop at the first divergent iteration instead of comparing the whole
  /// history (early-exit mode).
  bool stop_at_first_divergence = false;
  /// Compare the (iteration, rank) intersection of ragged histories and
  /// report one-sided checkpoints in HistoryReport::only_in_a/_b, instead
  /// of failing when the runs' capture sets differ (crashed run, partial
  /// copy). Default keeps the strict aligned-schedule contract.
  bool allow_ragged = false;
};

/// Every pair goes through compare_pair with `metadata` as its hook.
repro::Result<HistoryReport> compare_histories(
    const ckpt::HistoryCatalog& catalog, const std::string& run_a,
    const std::string& run_b, const HistoryOptions& options,
    const MetadataProvider& metadata = {});

}  // namespace repro::cmp
