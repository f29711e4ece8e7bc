#include "compare/online.hpp"

#include "compare/engine.hpp"

namespace repro::cmp {

repro::Result<CompareReport> OnlineComparator::check(
    const ckpt::CheckpointWriter& writer) {
  Stopwatch total;
  CompareReport report;
  const ckpt::CheckpointInfo& info = writer.info();
  const ckpt::CheckpointRef reference =
      catalog_.ref(reference_run_, info.iteration, info.rank);

  REPRO_ASSIGN_OR_RETURN(
      Side ref, open_file_side(reference.checkpoint_path, report));
  if (ref.info.data_bytes() != writer.data_section().size()) {
    return repro::failed_precondition(
        "live checkpoint size differs from reference");
  }
  REPRO_RETURN_IF_ERROR(
      load_tree(ref, reference.metadata_path, options_, {}, report));
  REPRO_ASSIGN_OR_RETURN(Side live, resident_side(writer, options_, report));
  report.data_bytes = live.info.data_bytes();
  REPRO_RETURN_IF_ERROR(compare_sides(ref, live, ref.tree.view,
                                      live.tree.view, 0, options_, report));
  report.total_seconds = total.seconds();
  record_compare_metrics(report);

  reference_bytes_read_ += report.bytes_read_per_file;
  if (!report.identical_within_bound() &&
      (!first_divergence_.has_value() ||
       info.iteration < *first_divergence_)) {
    first_divergence_ = info.iteration;
  }
  history_.emplace_back(info.iteration, info.rank, report);
  return report;
}

}  // namespace repro::cmp
