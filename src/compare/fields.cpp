#include "compare/fields.hpp"

#include <algorithm>

#include "common/fs.hpp"
#include "common/log.hpp"
#include "compare/engine.hpp"

namespace repro::cmp {

namespace {

double bound_for(const FieldCompareOptions& options, std::string_view name) {
  const auto it = options.field_bounds.find(name);
  return it == options.field_bounds.end() ? options.compare.error_bound
                                          : it->second;
}

merkle::TreeParams params_for(const FieldCompareOptions& options,
                              const ckpt::FieldInfo& field) {
  merkle::TreeParams params;
  params.value_kind = field.kind;
  params.hash.error_bound = bound_for(options, field.name);
  params.hash.values_per_block = options.compare.tree.hash.values_per_block;
  // Chunk size must divide into whole values of the field's kind.
  const std::uint32_t vsize = merkle::value_size(field.kind);
  params.chunk_bytes = std::max<std::uint64_t>(
      vsize, options.compare.tree.chunk_bytes / vsize * vsize);
  return params;
}

repro::Result<merkle::MappedBundle> load_or_build_bundle(
    Side& side, const std::filesystem::path& bundle_path,
    const FieldCompareOptions& options, CompareReport& setup) {
  if (std::filesystem::exists(bundle_path)) {
    return merkle::MappedBundle::open(bundle_path);
  }
  if (!options.compare.build_metadata_if_missing) {
    return repro::not_found("no metadata bundle at " + bundle_path.string());
  }
  REPRO_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> data,
                         read_data_section(side, options.compare, setup));
  REPRO_ASSIGN_OR_RETURN(merkle::MappedBundle bundle,
                         build_field_bundle(side.info, data, options));
  const repro::Status saved =
      repro::write_file(bundle_path, bundle.bytes())
          .with_context("saving per-field merkle bundle");
  if (!saved.is_ok()) {
    REPRO_LOG_WARN << "could not persist bundle sidecar: "
                   << saved.to_string();
  }
  return bundle;
}

}  // namespace

repro::Result<merkle::MappedBundle> build_field_bundle(
    const ckpt::CheckpointInfo& info, std::span<const std::uint8_t> data,
    const FieldCompareOptions& options) {
  if (data.size() != info.data_bytes()) {
    return repro::invalid_argument(
        "data span size does not match the checkpoint layout");
  }
  // FlatBuilder borrows the trees, so they must outlive finish().
  std::vector<merkle::MerkleTree> trees;
  trees.reserve(info.fields.size());
  merkle::FlatBuilder builder;
  for (const auto& field : info.fields) {
    merkle::TreeBuilder tree_builder(params_for(options, field),
                                     options.compare.exec);
    REPRO_ASSIGN_OR_RETURN(
        merkle::MerkleTree tree,
        tree_builder.build(
            data.subspan(field.data_offset, field.byte_size())));
    trees.push_back(std::move(tree));
    REPRO_RETURN_IF_ERROR(builder.add(field.name, trees.back()));
  }
  return merkle::MappedBundle::from_bytes(builder.finish());
}

repro::Result<FieldsReport> compare_fields(
    const std::filesystem::path& checkpoint_a,
    const std::filesystem::path& checkpoint_b,
    const FieldCompareOptions& options) {
  Stopwatch total;
  FieldsReport report;

  CompareReport setup;
  REPRO_ASSIGN_OR_RETURN(Side a, open_file_side(checkpoint_a, setup));
  REPRO_ASSIGN_OR_RETURN(Side b, open_file_side(checkpoint_b, setup));
  if (a.info.data_bytes() != b.info.data_bytes() ||
      a.info.fields.size() != b.info.fields.size()) {
    return repro::failed_precondition("checkpoint layouts differ");
  }
  for (std::size_t i = 0; i < a.info.fields.size(); ++i) {
    const auto& field_a = a.info.fields[i];
    const auto& field_b = b.info.fields[i];
    if (field_a.name != field_b.name || field_a.kind != field_b.kind ||
        field_a.element_count != field_b.element_count) {
      return repro::failed_precondition("field layouts differ at index " +
                                        std::to_string(i));
    }
  }

  REPRO_ASSIGN_OR_RETURN(
      const merkle::MappedBundle bundle_a,
      load_or_build_bundle(a, checkpoint_a.string() + ".rmrb", options, setup));
  REPRO_ASSIGN_OR_RETURN(
      const merkle::MappedBundle bundle_b,
      load_or_build_bundle(b, checkpoint_b.string() + ".rmrb", options, setup));
  // Backends opened for a bundle build; the field runs below count the
  // fallbacks of backends they open themselves.
  report.io.fallbacks = setup.io_fallbacks;

  // One engine run per field, over that field's region and trees. Fields
  // are laid out in ascending order and each run's sample is its smallest
  // indices, so appending up to max_diffs keeps the global smallest.
  CompareOptions field_options = options.compare;
  field_options.collect_field_stats = false;
  CompareReport totals;
  for (const auto& field : a.info.fields) {
    const merkle::TreeView* tree_a = bundle_a.view().find(field.name);
    const merkle::TreeView* tree_b = bundle_b.view().find(field.name);
    if (tree_a == nullptr || tree_b == nullptr ||
        tree_a->data_bytes() != field.byte_size()) {
      return repro::corrupt_data("metadata bundle has no tree covering field " +
                                 field.name);
    }
    field_options.error_bound = bound_for(options, field.name);
    CompareReport region;
    REPRO_RETURN_IF_ERROR(
        compare_sides(a, b, *tree_a, *tree_b, field.data_offset,
                      field_options, region)
            .with_context("field " + field.name));

    report.fields.push_back({field.name, field_options.error_bound,
                             region.chunks_total, region.chunks_flagged,
                             region.values_compared, region.values_exceeding,
                             region.bytes_read_per_file});
    for (auto& diff : region.diffs) {
      if (report.diffs.size() >= options.compare.max_diffs) break;
      report.diffs.push_back(std::move(diff));
    }
    report.io += {region.io_retries, region.io_short_reads,
                  region.io_interrupts, region.io_fallbacks};
    totals.chunks_total += region.chunks_total;
    totals.chunks_flagged += region.chunks_flagged;
    totals.values_compared += region.values_compared;
    totals.values_exceeding += region.values_exceeding;
  }

  report.total_seconds = totals.total_seconds = total.seconds();
  record_compare_metrics(totals);
  return report;
}

}  // namespace repro::cmp
