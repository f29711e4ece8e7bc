#include "compare/online.hpp"

#include "compare/elementwise.hpp"
#include "merkle/flat.hpp"

namespace repro::cmp {

repro::Result<CompareReport> OnlineComparator::check(
    const ckpt::CheckpointWriter& writer) {
  Stopwatch total;
  CompareReport report;
  const ckpt::CheckpointInfo& info = writer.info();
  const std::span<const std::uint8_t> live = writer.data_section();
  report.data_bytes = live.size();

  const ckpt::CheckpointRef reference =
      catalog_.ref(reference_run_, info.iteration, info.rank);

  // --- setup: open the reference checkpoint + its stage-2 backend.
  std::optional<ckpt::CheckpointReader> reference_reader;
  std::unique_ptr<io::IoBackend> backend;
  {
    PhaseTimer timer(report.timers, kPhaseSetup);
    REPRO_ASSIGN_OR_RETURN(
        auto opened, ckpt::CheckpointReader::open(reference.checkpoint_path));
    reference_reader.emplace(std::move(opened));
    if (reference_reader->data_bytes() != live.size()) {
      return repro::failed_precondition(
          "live checkpoint size differs from reference");
    }
    REPRO_ASSIGN_OR_RETURN(
        backend, io::open_backend_with_fallback(
                     reference.checkpoint_path, options_.backend,
                     options_.backend_options, options_.backend_fallback,
                     &report.io_fallbacks));
  }

  // --- map the reference sidecar (read) and resolve its tree view
  //     (deserialize), as the offline comparator does.
  merkle::MappedBundle reference_sidecar;
  {
    PhaseTimer timer(report.timers, kPhaseRead);
    REPRO_ASSIGN_OR_RETURN(reference_sidecar,
                           merkle::MappedBundle::open(reference.metadata_path));
  }
  report.metadata_bytes_read += reference_sidecar.resident_bytes();
  merkle::TreeView reference_tree;
  {
    PhaseTimer timer(report.timers, kPhaseDeserialize);
    REPRO_ASSIGN_OR_RETURN(reference_tree, reference_sidecar.sole_tree());
  }
  if (reference_tree.params().hash.error_bound != options_.error_bound) {
    return repro::failed_precondition(
        "reference metadata error bound differs from online error bound");
  }
  if (reference_tree.params() != options_.tree) {
    return repro::failed_precondition(
        "reference metadata tree parameters differ from online options");
  }

  // --- build the live tree from resident bytes (no storage involved).
  merkle::MerkleTree live_tree;
  {
    PhaseTimer timer(report.timers, kPhaseCompareTree);
    merkle::TreeBuilder builder(options_.tree, options_.exec);
    REPRO_ASSIGN_OR_RETURN(live_tree, builder.build(live));
  }

  // --- stage 1: pruned BFS.
  std::vector<std::uint64_t> candidates;
  {
    PhaseTimer timer(report.timers, kPhaseCompareTree);
    merkle::TreeCompareOptions tree_options = options_.tree_compare;
    tree_options.exec = options_.exec;
    merkle::TreeCompareStats stats;
    REPRO_ASSIGN_OR_RETURN(
        candidates,
        merkle::compare_trees(reference_tree, merkle::TreeView(live_tree),
                              tree_options, &stats));
    report.tree_nodes_visited = stats.nodes_visited;
  }
  report.chunks_total = reference_tree.num_chunks();
  report.chunks_flagged = candidates.size();

  // --- stage 2: read ONLY the reference side of flagged chunks; the live
  //     side is already in memory.
  if (!candidates.empty()) {
    PhaseTimer timer(report.timers, kPhaseCompareDirect);
    const io::ReadPlan plan = io::plan_chunk_reads(
        candidates, options_.tree.chunk_bytes, live.size(), options_.plan);
    std::vector<std::uint8_t> buffer(plan.buffer_bytes);
    std::vector<io::ReadRequest> requests;
    requests.reserve(plan.extents.size());
    for (const auto& extent : plan.extents) {
      requests.push_back(
          {reference_reader->data_offset() + extent.file_offset,
           std::span<std::uint8_t>(buffer.data() + extent.buffer_offset,
                                   extent.length)});
    }
    REPRO_RETURN_IF_ERROR(backend->read_batch(requests));
    report.bytes_read_per_file = plan.buffer_bytes;
    reference_bytes_read_ += plan.buffer_bytes;

    const merkle::ValueKind kind = options_.tree.value_kind;
    const std::uint32_t vsize = merkle::value_size(kind);
    ElementwiseOptions element_options;
    element_options.exec = options_.exec;
    element_options.collect_diffs = options_.collect_diffs;
    element_options.max_diffs = options_.max_diffs;

    std::vector<ElementDiff> raw_diffs;
    for (const auto& placement : plan.placements) {
      const std::uint64_t live_offset =
          placement.chunk * options_.tree.chunk_bytes;
      const auto result = compare_region(
          std::span<const std::uint8_t>(buffer.data() + placement.buffer_offset,
                                        placement.length),
          live.subspan(live_offset, placement.length), kind,
          options_.error_bound, live_offset / vsize, element_options,
          options_.collect_diffs ? &raw_diffs : nullptr);
      report.values_compared += result.values_compared;
      report.values_exceeding += result.values_exceeding;
    }

    if (options_.collect_diffs) {
      for (const auto& raw : raw_diffs) {
        DiffRecord record;
        record.value_index = raw.value_index;
        record.value_a = raw.value_a;
        record.value_b = raw.value_b;
        const std::uint64_t byte_offset = raw.value_index * vsize;
        if (const auto* field = info.field_at(byte_offset)) {
          record.field = field->name;
          record.element_index = (byte_offset - field->data_offset) / vsize;
        }
        report.diffs.push_back(std::move(record));
      }
    }
  }

  report.total_seconds = total.seconds();
  if (!report.identical_within_bound() &&
      (!first_divergence_.has_value() ||
       info.iteration < *first_divergence_)) {
    first_divergence_ = info.iteration;
  }
  history_.emplace_back(info.iteration, info.rank, report);
  return report;
}

}  // namespace repro::cmp
