#include "baseline/direct.hpp"

#include <algorithm>
#include <numeric>

#include "ckpt/format.hpp"
#include "common/fs.hpp"
#include "common/log.hpp"

namespace repro::baseline {

repro::Result<cmp::CompareReport> direct_compare(
    const std::filesystem::path& checkpoint_a,
    const std::filesystem::path& checkpoint_b, const DirectOptions& options) {
  if (options.evict_cache) {
    for (const auto& path : {checkpoint_a, checkpoint_b}) {
      const repro::Status status = repro::evict_page_cache(path);
      if (!status.is_ok()) {
        REPRO_LOG_WARN << "cache eviction failed: " << status.to_string();
      }
    }
  }

  Stopwatch total;
  cmp::CompareReport report;

  std::optional<ckpt::CheckpointReader> reader_a;
  std::optional<ckpt::CheckpointReader> reader_b;
  std::unique_ptr<io::IoBackend> backend_a;
  std::unique_ptr<io::IoBackend> backend_b;
  {
    PhaseTimer timer(report.timers, cmp::kPhaseSetup);
    REPRO_ASSIGN_OR_RETURN(auto opened_a,
                           ckpt::CheckpointReader::open(checkpoint_a));
    REPRO_ASSIGN_OR_RETURN(auto opened_b,
                           ckpt::CheckpointReader::open(checkpoint_b));
    reader_a.emplace(std::move(opened_a));
    reader_b.emplace(std::move(opened_b));
    if (reader_a->data_bytes() != reader_b->data_bytes()) {
      return repro::failed_precondition(
          "checkpoints cover different data sizes");
    }
    REPRO_ASSIGN_OR_RETURN(
        backend_a, io::open_backend_with_fallback(
                       checkpoint_a, options.backend, options.backend_options,
                       options.backend_fallback, &report.io_fallbacks));
    REPRO_ASSIGN_OR_RETURN(
        backend_b, io::open_backend_with_fallback(
                       checkpoint_b, options.backend, options.backend_options,
                       options.backend_fallback, &report.io_fallbacks));
  }
  report.data_bytes = reader_a->data_bytes();

  // Every chunk of the data section is on the worklist: Direct reads 100%.
  const std::uint64_t chunk_bytes =
      std::max<std::uint64_t>(options.stream.slice_bytes, 64 * 1024);
  const std::uint64_t num_chunks =
      report.data_bytes == 0
          ? 0
          : (report.data_bytes + chunk_bytes - 1) / chunk_bytes;
  std::vector<std::uint64_t> all_chunks(num_chunks);
  std::iota(all_chunks.begin(), all_chunks.end(), 0);

  // Interpret values as the checkpoint's tree does.
  const merkle::ValueKind kind = reader_a->info().value_kind();
  const std::uint32_t vsize = merkle::value_size(kind);

  {
    PhaseTimer timer(report.timers, cmp::kPhaseCompareDirect);

    io::StreamOptions stream_options = options.stream;
    stream_options.base_offset_a = reader_a->data_offset();
    stream_options.base_offset_b = reader_b->data_offset();

    io::PairedChunkStreamer streamer(*backend_a, *backend_b, chunk_bytes,
                                     report.data_bytes, all_chunks,
                                     stream_options);

    cmp::ElementwiseOptions element_options;
    element_options.exec = options.exec;
    element_options.collect_diffs = options.collect_diffs;
    element_options.max_diffs = options.max_diffs;

    std::vector<cmp::ElementDiff> raw_diffs;
    while (io::ChunkSlice* slice = streamer.next()) {
      for (const auto& placement : slice->placements) {
        const std::uint64_t base_value =
            placement.chunk * chunk_bytes / vsize;
        const auto result = cmp::compare_region(
            std::span<const std::uint8_t>(
                slice->data_a.data() + placement.buffer_offset,
                placement.length),
            std::span<const std::uint8_t>(
                slice->data_b.data() + placement.buffer_offset,
                placement.length),
            kind, options.error_bound, base_value, element_options,
            options.collect_diffs ? &raw_diffs : nullptr);
        report.values_compared += result.values_compared;
        report.values_exceeding += result.values_exceeding;
      }
    }
    REPRO_RETURN_IF_ERROR(streamer.status());
    report.bytes_read_per_file = streamer.bytes_read_per_file();

    if (options.collect_diffs) {
      // Same deterministic-sample contract as cmp::Comparator: the
      // max_diffs smallest value indices, ascending, regardless of the
      // dynamic schedule (compare_region already pruned to the smallest).
      std::sort(raw_diffs.begin(), raw_diffs.end(),
                [](const cmp::ElementDiff& a, const cmp::ElementDiff& b) {
                  return a.value_index < b.value_index;
                });
      for (const auto& raw : raw_diffs) {
        cmp::DiffRecord record;
        record.value_index = raw.value_index;
        record.value_a = raw.value_a;
        record.value_b = raw.value_b;
        const std::uint64_t byte_offset = raw.value_index * vsize;
        if (const auto* field = reader_a->info().field_at(byte_offset)) {
          record.field = field->name;
          record.element_index = (byte_offset - field->data_offset) / vsize;
        }
        report.diffs.push_back(std::move(record));
      }
    }
  }

  report.total_seconds = total.seconds();
  return report;
}

}  // namespace repro::baseline
