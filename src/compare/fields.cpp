#include "compare/fields.hpp"

#include <optional>

#include "common/fs.hpp"
#include "common/log.hpp"
#include "compare/elementwise.hpp"
#include "merkle/compare.hpp"

namespace repro::cmp {

namespace {

double bound_for(const FieldCompareOptions& options, std::string_view name) {
  const auto it = options.field_bounds.find(name);
  return it == options.field_bounds.end() ? options.default_bound
                                          : it->second;
}

merkle::TreeParams params_for(const FieldCompareOptions& options,
                              const ckpt::FieldInfo& field) {
  merkle::TreeParams params;
  params.value_kind = field.kind;
  params.hash.error_bound = bound_for(options, field.name);
  params.hash.values_per_block = options.values_per_block;
  // Chunk size must divide into whole values of the field's kind.
  const std::uint32_t vsize = merkle::value_size(field.kind);
  params.chunk_bytes =
      std::max<std::uint64_t>(vsize, options.chunk_bytes / vsize * vsize);
  return params;
}

repro::Result<merkle::MappedBundle> load_or_build_bundle(
    const ckpt::CheckpointReader& reader,
    const std::filesystem::path& bundle_path,
    const FieldCompareOptions& options) {
  if (std::filesystem::exists(bundle_path)) {
    return merkle::MappedBundle::open(bundle_path);
  }
  if (!options.build_metadata_if_missing) {
    return repro::not_found("no metadata bundle at " + bundle_path.string());
  }
  REPRO_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> data,
                         reader.read_data());
  REPRO_ASSIGN_OR_RETURN(merkle::MappedBundle bundle,
                         build_field_bundle(reader.info(), data, options));
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
    merkle::TreeBuilder tree_builder(params_for(options, field), options.exec);
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

  REPRO_ASSIGN_OR_RETURN(const ckpt::CheckpointReader reader_a,
                         ckpt::CheckpointReader::open(checkpoint_a));
  REPRO_ASSIGN_OR_RETURN(const ckpt::CheckpointReader reader_b,
                         ckpt::CheckpointReader::open(checkpoint_b));
  if (reader_a.data_bytes() != reader_b.data_bytes() ||
      reader_a.info().fields.size() != reader_b.info().fields.size()) {
    return repro::failed_precondition("checkpoint layouts differ");
  }
  for (std::size_t i = 0; i < reader_a.info().fields.size(); ++i) {
    const auto& field_a = reader_a.info().fields[i];
    const auto& field_b = reader_b.info().fields[i];
    if (field_a.name != field_b.name || field_a.kind != field_b.kind ||
        field_a.element_count != field_b.element_count) {
      return repro::failed_precondition("field layouts differ at index " +
                                        std::to_string(i));
    }
  }

  REPRO_ASSIGN_OR_RETURN(
      const merkle::MappedBundle bundle_a,
      load_or_build_bundle(reader_a, checkpoint_a.string() + ".rmrb",
                           options));
  REPRO_ASSIGN_OR_RETURN(
      const merkle::MappedBundle bundle_b,
      load_or_build_bundle(reader_b, checkpoint_b.string() + ".rmrb",
                           options));

  REPRO_ASSIGN_OR_RETURN(
      auto backend_a,
      io::open_backend_with_fallback(checkpoint_a, options.backend,
                                     options.backend_options,
                                     options.backend_fallback));
  REPRO_ASSIGN_OR_RETURN(
      auto backend_b,
      io::open_backend_with_fallback(checkpoint_b, options.backend,
                                     options.backend_options,
                                     options.backend_fallback));

  std::vector<std::uint8_t> buffer_a;
  std::vector<std::uint8_t> buffer_b;
  for (const auto& field : reader_a.info().fields) {
    const merkle::TreeView* tree_a = bundle_a.view().find(field.name);
    const merkle::TreeView* tree_b = bundle_b.view().find(field.name);
    if (tree_a == nullptr || tree_b == nullptr) {
      return repro::corrupt_data("metadata bundle missing field " +
                                 field.name);
    }
    const double bound = bound_for(options, field.name);
    if (tree_a->params().hash.error_bound != bound) {
      return repro::failed_precondition(
          "bundle for field " + field.name + " was built at bound " +
          std::to_string(tree_a->params().hash.error_bound) +
          ", requested " + std::to_string(bound) +
          "; delete the .rmrb sidecars to rebuild");
    }

    FieldReport field_report;
    field_report.field = field.name;
    field_report.error_bound = bound;
    field_report.chunks_total = tree_a->num_chunks();

    // Stage 1 per field.
    merkle::TreeCompareOptions tree_options;
    tree_options.exec = options.exec;
    REPRO_ASSIGN_OR_RETURN(
        const std::vector<std::uint64_t> candidates,
        merkle::compare_trees(*tree_a, *tree_b, tree_options));
    field_report.chunks_flagged = candidates.size();

    // Stage 2 per field: scattered reads offset into this field's region.
    if (!candidates.empty()) {
      const io::ReadPlan plan = io::plan_chunk_reads(
          candidates, tree_a->params().chunk_bytes, field.byte_size(),
          options.plan);
      buffer_a.resize(plan.buffer_bytes);
      buffer_b.resize(plan.buffer_bytes);
      const std::uint64_t field_base =
          reader_a.data_offset() + field.data_offset;
      std::vector<io::ReadRequest> requests;
      requests.reserve(plan.extents.size());
      auto issue = [&](io::IoBackend& backend,
                       std::vector<std::uint8_t>& buffer) {
        requests.clear();
        for (const auto& extent : plan.extents) {
          requests.push_back(
              {field_base + extent.file_offset,
               std::span<std::uint8_t>(buffer.data() + extent.buffer_offset,
                                       extent.length)});
        }
        return backend.read_batch(requests);
      };
      REPRO_RETURN_IF_ERROR(issue(*backend_a, buffer_a));
      REPRO_RETURN_IF_ERROR(issue(*backend_b, buffer_b));
      field_report.bytes_read_per_file = plan.buffer_bytes;

      ElementwiseOptions element_options;
      element_options.exec = options.exec;
      element_options.collect_diffs = options.collect_diffs;
      element_options.max_diffs = options.max_diffs;
      const std::uint32_t vsize = merkle::value_size(field.kind);
      std::vector<ElementDiff> raw_diffs;
      for (const auto& placement : plan.placements) {
        const std::uint64_t base_value =
            placement.chunk * tree_a->params().chunk_bytes / vsize;
        const auto result = compare_region(
            std::span<const std::uint8_t>(
                buffer_a.data() + placement.buffer_offset, placement.length),
            std::span<const std::uint8_t>(
                buffer_b.data() + placement.buffer_offset, placement.length),
            field.kind, bound, base_value, element_options,
            options.collect_diffs ? &raw_diffs : nullptr);
        field_report.values_compared += result.values_compared;
        field_report.values_exceeding += result.values_exceeding;
      }
      if (options.collect_diffs) {
        for (const auto& raw : raw_diffs) {
          if (report.diffs.size() >= options.max_diffs) break;
          DiffRecord record;
          record.field = field.name;
          record.element_index = raw.value_index;  // field-local already
          record.value_index =
              (field.data_offset + raw.value_index * vsize) / vsize;
          record.value_a = raw.value_a;
          record.value_b = raw.value_b;
          report.diffs.push_back(std::move(record));
        }
      }
    }

    report.fields.push_back(std::move(field_report));
  }

  report.total_seconds = total.seconds();
  return report;
}

}  // namespace repro::cmp
