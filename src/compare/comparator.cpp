#include "compare/comparator.hpp"

#include <algorithm>
#include <cmath>

#include "common/fs.hpp"
#include "common/log.hpp"
#include "compare/engine.hpp"
#include "io/stream.hpp"
#include "merkle/flat.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace repro::cmp {

namespace {

struct PairMetrics {
  telemetry::Counter& pairs;
  telemetry::Counter& chunks_total;
  telemetry::Counter& chunks_flagged;
  telemetry::Counter& values_compared;
  telemetry::Counter& values_exceeding;
  telemetry::Histogram& pair_seconds;

  static PairMetrics& get() {
    auto& registry = telemetry::MetricsRegistry::global();
    static PairMetrics* metrics = new PairMetrics{
        registry.counter("compare.pairs"),
        registry.counter("compare.chunks.total"),
        registry.counter("compare.chunks.flagged"),
        registry.counter("compare.values.compared"),
        registry.counter("compare.values.exceeding"),
        registry.histogram("compare.pair.seconds",
                           telemetry::latency_buckets_seconds()),
    };
    return *metrics;
  }
};

/// The tree of a checkpoint captured without metadata: options.tree at
/// options.error_bound, over the checkpoint's own value kind.
repro::Result<merkle::MerkleTree> build_tree(
    const ckpt::CheckpointInfo& info, std::span<const std::uint8_t> data,
    const CompareOptions& options) {
  merkle::TreeParams params = options.tree;
  params.hash.error_bound = options.error_bound;
  params.value_kind = info.value_kind();
  return merkle::TreeBuilder(params, options.exec).build(data);
}

PinnedTree pin_tree(merkle::MerkleTree tree) {
  auto owned = std::make_shared<const merkle::MerkleTree>(std::move(tree));
  return PinnedTree{merkle::TreeView(*owned), owned};
}

/// Running per-field severity totals while stage 2 streams; folded into
/// CompareReport::field_divergences once the last slice is consumed.
struct FieldAccum {
  std::uint64_t values_compared = 0;
  std::uint64_t values_exceeding = 0;
  double max_abs_diff = 0;
  double sum_sq_diff = 0;
  double sum_sq_ref = 0;
};

}  // namespace

repro::Result<Side> open_file_side(const std::filesystem::path& checkpoint,
                                   CompareReport& report) {
  PhaseTimer timer(report.timers, kPhaseSetup);
  REPRO_ASSIGN_OR_RETURN(const ckpt::CheckpointReader reader,
                         ckpt::CheckpointReader::open(checkpoint));
  Side side;
  side.info = reader.info();
  side.data_offset = reader.data_offset();
  side.checkpoint = checkpoint;
  return side;
}

repro::Status ensure_backend(Side& side, const CompareOptions& options,
                             CompareReport& report) {
  if (side.backend != nullptr) return repro::Status::ok();
  PhaseTimer timer(report.timers, kPhaseSetup);
  REPRO_ASSIGN_OR_RETURN(
      side.backend,
      io::open_backend_with_fallback(side.checkpoint, options.backend,
                                     options.backend_options,
                                     options.backend_fallback,
                                     &report.io_fallbacks));
  return repro::Status::ok();
}

repro::Status load_tree(Side& side, const std::filesystem::path& metadata_path,
                        const CompareOptions& options,
                        const MetadataProvider& metadata,
                        CompareReport& report) {
  // A resident tree skips the read + deserialization phases entirely, which
  // is what keeps warm daemon queries at metadata_bytes_read == 0.
  PinnedTree pinned;
  if (metadata) {
    REPRO_ASSIGN_OR_RETURN(pinned, metadata(metadata_path));
  }
  bool sidecar_present = false;
  if (!pinned.valid()) {
    REPRO_ASSIGN_OR_RETURN(sidecar_present, repro::path_exists(metadata_path));
  }
  if (sidecar_present) {
    // Sidecars map straight into place — the deserialize phase only
    // resolves the tree view (the Figure-6 breakdown shows it as ~0).
    merkle::MappedBundle opened;
    {
      PhaseTimer timer(report.timers, kPhaseRead);
      REPRO_ASSIGN_OR_RETURN(opened, merkle::MappedBundle::open(metadata_path));
    }
    report.metadata_bytes_read += opened.resident_bytes();
    auto bundle =
        std::make_shared<const merkle::MappedBundle>(std::move(opened));
    PhaseTimer timer(report.timers, kPhaseDeserialize);
    REPRO_ASSIGN_OR_RETURN(pinned.view, bundle->sole_tree());
    pinned.pin = std::move(bundle);
  } else if (!pinned.valid()) {
    if (!options.build_metadata_if_missing) {
      return repro::not_found("no merkle metadata at " +
                              metadata_path.string());
    }
    // Offline mode: derive the tree now. Charged to the read phase since it
    // replaces the metadata read with a bulk read + hash; the backend open
    // before it is setup.
    REPRO_RETURN_IF_ERROR(ensure_backend(side, options, report));
    PhaseTimer timer(report.timers, kPhaseRead);
    REPRO_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> data,
                           read_data_section(side, options, report));
    REPRO_ASSIGN_OR_RETURN(merkle::MerkleTree built,
                           build_tree(side.info, data, options));
    const repro::Status saved = merkle::save_flat(built, metadata_path);
    if (!saved.is_ok()) {
      REPRO_LOG_WARN << "could not persist metadata sidecar: "
                     << saved.to_string();
    }
    pinned = pin_tree(std::move(built));
  }
  if (pinned.view.data_bytes() != side.info.data_bytes()) {
    return repro::failed_precondition(
        "metadata " + metadata_path.string() + " covers " +
        std::to_string(pinned.view.data_bytes()) +
        " bytes but its checkpoint has " +
        std::to_string(side.info.data_bytes()));
  }
  // Stage 2 reads values as the tree's kind, and the ε guarantee holds only
  // for digests of values quantized as the type they are.
  const merkle::ValueKind tree_kind = pinned.view.params().value_kind;
  const merkle::ValueKind kind = side.info.value_kind();
  if (tree_kind != kind) {
    return repro::failed_precondition(
        "metadata " + metadata_path.string() + " has value kind " +
        std::string{merkle::value_kind_name(tree_kind)} +
        " but its checkpoint's values are " +
        std::string{merkle::value_kind_name(kind)} +
        "; rebuild it with repro-cli tree");
  }
  side.tree = std::move(pinned);
  return repro::Status::ok();
}

repro::Result<Side> resident_side(const ckpt::CheckpointWriter& writer,
                                  const CompareOptions& options,
                                  CompareReport& report) {
  PhaseTimer timer(report.timers, kPhaseRead);
  Side side;
  side.info = writer.info();
  side.backend = io::open_memory_backend(writer.data_section());
  REPRO_ASSIGN_OR_RETURN(
      merkle::MerkleTree built,
      build_tree(side.info, writer.data_section(), options));
  side.tree = pin_tree(std::move(built));
  return side;
}

repro::Result<std::vector<std::uint8_t>> read_data_section(
    Side& side, const CompareOptions& options, CompareReport& report) {
  REPRO_RETURN_IF_ERROR(ensure_backend(side, options, report));
  std::vector<std::uint8_t> data(side.info.data_bytes());
  REPRO_RETURN_IF_ERROR(side.backend->read_at(side.data_offset, data));
  return data;
}

repro::Status compare_sides(Side& a, Side& b, const merkle::TreeView& tree_a,
                            const merkle::TreeView& tree_b,
                            std::uint64_t region_offset,
                            const CompareOptions& options,
                            CompareReport& report) {
  if (tree_a.params().hash.error_bound != options.error_bound) {
    return repro::failed_precondition(
        "metadata was captured with error bound " +
        std::to_string(tree_a.params().hash.error_bound) +
        " but the comparison requests " + std::to_string(options.error_bound) +
        "; re-capture or rebuild metadata");
  }

  // --- compare_tree: stage 1, pruned BFS.
  std::vector<std::uint64_t> candidates;
  {
    telemetry::TraceSpan span("compare.tree");
    PhaseTimer timer(report.timers, kPhaseCompareTree);
    merkle::TreeCompareOptions tree_options = options.tree_compare;
    tree_options.exec = options.exec;
    merkle::TreeCompareStats stats;
    REPRO_ASSIGN_OR_RETURN(candidates,
                           merkle::compare_trees(tree_a, tree_b, tree_options,
                                                 &stats));
    report.tree_nodes_visited = stats.nodes_visited;
  }
  report.chunks_total = tree_a.num_chunks();
  report.chunks_flagged = candidates.size();

  // --- compare_direct: stage 2, stream candidates + verify.
  const std::uint64_t chunk_bytes = tree_a.params().chunk_bytes;
  const std::vector<ckpt::FieldInfo>& fields = a.info.fields;
  std::vector<FieldAccum> field_accum(
      options.collect_field_stats ? fields.size() : 0);
  if (!candidates.empty()) {
    REPRO_RETURN_IF_ERROR(ensure_backend(a, options, report));
    REPRO_RETURN_IF_ERROR(ensure_backend(b, options, report));
    telemetry::TraceSpan span("compare.stage2");
    span.arg("candidates", static_cast<std::uint64_t>(candidates.size()));
    PhaseTimer timer(report.timers, kPhaseCompareDirect);

    io::StreamOptions stream_options = options.stream;
    stream_options.base_offset_a = a.data_offset + region_offset;
    stream_options.base_offset_b = b.data_offset + region_offset;
    // Backends may serve several regions (one per field), so charge this
    // region only the recovery activity it caused.
    const io::IoStats before = a.backend->stats() + b.backend->stats();

    io::PairedChunkStreamer streamer(*a.backend, *b.backend, chunk_bytes,
                                     tree_a.data_bytes(), candidates,
                                     stream_options);

    const merkle::ValueKind kind = tree_a.params().value_kind;
    const std::uint32_t vsize = merkle::value_size(kind);
    ElementwiseOptions element_options;
    element_options.exec = options.exec;
    element_options.collect_diffs = options.collect_diffs;
    element_options.max_diffs = options.max_diffs;
    element_options.collect_stats = options.collect_field_stats;

    // Raw diffs carry region-relative value indices.
    std::vector<ElementDiff> raw_diffs;
    while (io::ChunkSlice* slice = streamer.next()) {
      for (const auto& placement : slice->placements) {
        // Data-section byte range of this placement (one chunk's bytes).
        const std::uint64_t begin_byte =
            region_offset + placement.chunk * chunk_bytes;

        // Compare one byte range of the placement, attributing its outcome
        // to `accum` when per-field stats are on.
        auto compare_segment = [&](std::uint64_t seg_byte,
                                   std::uint64_t seg_len,
                                   FieldAccum* accum) {
          const std::uint64_t buffer_offset =
              placement.buffer_offset + (seg_byte - begin_byte);
          const auto result = compare_region(
              std::span<const std::uint8_t>(
                  slice->data_a.data() + buffer_offset, seg_len),
              std::span<const std::uint8_t>(
                  slice->data_b.data() + buffer_offset, seg_len),
              kind, options.error_bound, (seg_byte - region_offset) / vsize,
              element_options, options.collect_diffs ? &raw_diffs : nullptr);
          report.values_compared += result.values_compared;
          report.values_exceeding += result.values_exceeding;
          if (accum != nullptr) {
            accum->values_compared += result.values_compared;
            accum->values_exceeding += result.values_exceeding;
            accum->max_abs_diff =
                std::max(accum->max_abs_diff, result.max_abs_diff);
            accum->sum_sq_diff += result.sum_sq_diff;
            accum->sum_sq_ref += result.sum_sq_ref;
          }
        };

        if (!options.collect_field_stats) {
          compare_segment(begin_byte, placement.length, nullptr);
          continue;
        }

        // Field attribution: split the placement at field boundaries.
        // Chunks rarely straddle more than one boundary, so the split costs
        // a couple of extra compare_region calls at most.
        std::uint64_t off = begin_byte;
        const std::uint64_t end_byte = begin_byte + placement.length;
        while (off < end_byte) {
          const ckpt::FieldInfo* field = a.info.field_at(off);
          std::uint64_t seg_end = end_byte;
          FieldAccum* accum = nullptr;
          if (field != nullptr) {
            seg_end = std::min(end_byte,
                               field->data_offset + field->byte_size());
            accum = &field_accum[static_cast<std::size_t>(
                field - fields.data())];
          } else {
            // Padding between fields: attribute to no field and stop at the
            // next field start (fields are laid out in ascending order).
            for (const auto& next : fields) {
              if (next.data_offset > off) {
                seg_end = std::min(seg_end, next.data_offset);
                break;
              }
            }
          }
          if (seg_end <= off) break;  // malformed field table; stop splitting
          compare_segment(off, seg_end - off, accum);
          off = seg_end;
        }
      }
    }
    REPRO_RETURN_IF_ERROR(streamer.status());
    report.bytes_read_per_file = streamer.bytes_read_per_file();

    const io::IoStats after = a.backend->stats() + b.backend->stats();
    report.io_retries +=
        after.retries - before.retries + streamer.batch_retries();
    report.io_short_reads += after.short_reads - before.short_reads;
    report.io_interrupts += after.interrupts - before.interrupts;
    report.io_fallbacks += after.fallbacks - before.fallbacks;

    // Map raw value indices back onto checkpoint fields. Sort-and-truncate
    // first so the reported sample is the max_diffs smallest indices in
    // ascending order — deterministic under the dynamic schedule.
    if (options.collect_diffs) {
      std::sort(raw_diffs.begin(), raw_diffs.end(),
                [](const ElementDiff& x, const ElementDiff& y) {
                  return x.value_index < y.value_index;
                });
      if (raw_diffs.size() > options.max_diffs) {
        raw_diffs.resize(options.max_diffs);
      }
      report.diffs.reserve(raw_diffs.size());
      for (const auto& raw : raw_diffs) {
        const std::uint64_t byte_offset =
            region_offset + raw.value_index * vsize;
        DiffRecord record;
        record.value_index = byte_offset / vsize;
        record.value_a = raw.value_a;
        record.value_b = raw.value_b;
        if (const auto* field = a.info.field_at(byte_offset)) {
          record.field = field->name;
          record.element_index = (byte_offset - field->data_offset) / vsize;
        }
        report.diffs.push_back(std::move(record));
      }
    }
  }
  report.flagged_chunks = std::move(candidates);

  // Fold the per-field accumulators (and chunk-space geometry) into the
  // report. Fields with no flagged chunks still get an entry: the timeline
  // renders "clean" rows, and first-divergence aggregation needs the zeros.
  if (options.collect_field_stats) {
    report.field_divergences.reserve(fields.size());
    for (std::size_t index = 0; index < fields.size(); ++index) {
      const ckpt::FieldInfo& field = fields[index];
      FieldDivergence divergence;
      divergence.field = field.name;
      if (field.byte_size() > 0 && chunk_bytes > 0) {
        const std::uint64_t first_chunk = field.data_offset / chunk_bytes;
        const std::uint64_t last_chunk =
            (field.data_offset + field.byte_size() - 1) / chunk_bytes;
        divergence.chunk_begin = first_chunk;
        divergence.chunks_total = last_chunk - first_chunk + 1;
        for (const std::uint64_t chunk : report.flagged_chunks) {
          if (chunk < first_chunk || chunk > last_chunk) continue;
          ++divergence.chunks_flagged;
          if (!divergence.flagged_ranges.empty() &&
              divergence.flagged_ranges.back().second + 1 == chunk) {
            divergence.flagged_ranges.back().second = chunk;
          } else {
            divergence.flagged_ranges.emplace_back(chunk, chunk);
          }
        }
      }
      const FieldAccum& accum = field_accum[index];
      divergence.values_compared = accum.values_compared;
      divergence.values_exceeding = accum.values_exceeding;
      divergence.max_abs_diff = accum.max_abs_diff;
      divergence.rel_l2_error =
          accum.sum_sq_ref > 0
              ? std::sqrt(accum.sum_sq_diff / accum.sum_sq_ref)
              : 0.0;
      report.field_divergences.push_back(std::move(divergence));
    }
  }
  return repro::Status::ok();
}

void record_compare_metrics(const CompareReport& report) {
  PairMetrics& metrics = PairMetrics::get();
  metrics.pairs.increment();
  metrics.chunks_total.add(report.chunks_total);
  metrics.chunks_flagged.add(report.chunks_flagged);
  metrics.values_compared.add(report.values_compared);
  metrics.values_exceeding.add(report.values_exceeding);
  metrics.pair_seconds.record(report.total_seconds);
}

repro::Result<CompareReport> compare_pair(const ckpt::CheckpointPair& pair,
                                          const CompareOptions& options,
                                          const MetadataProvider& metadata) {
  Stopwatch total;
  CompareReport report;
  telemetry::TraceSpan pair_span("compare.pair");
  pair_span.arg("file_a", pair.run_a.checkpoint_path.filename().string())
      .arg("file_b", pair.run_b.checkpoint_path.filename().string());

  if (options.evict_cache) {
    for (const auto& path :
         {pair.run_a.checkpoint_path, pair.run_b.checkpoint_path,
          pair.run_a.metadata_path, pair.run_b.metadata_path}) {
      if (repro::path_exists(path).value_or(false)) {
        const repro::Status status = repro::evict_page_cache(path);
        if (!status.is_ok()) {
          REPRO_LOG_WARN << "cache eviction failed: " << status.to_string();
        }
      }
    }
  }

  // --- setup: open checkpoint headers (stage-2 backends open lazily, only
  // when stage 1 leaves candidates).
  Side a;
  Side b;
  {
    telemetry::TraceSpan span("compare.setup");
    REPRO_ASSIGN_OR_RETURN(a,
                           open_file_side(pair.run_a.checkpoint_path, report));
    REPRO_ASSIGN_OR_RETURN(b,
                           open_file_side(pair.run_b.checkpoint_path, report));
    if (a.info.data_bytes() != b.info.data_bytes()) {
      return repro::failed_precondition(
          "checkpoints cover different data sizes");
    }
  }
  report.data_bytes = a.info.data_bytes();

  // --- read + deserialization: the Merkle metadata.
  {
    telemetry::TraceSpan span("compare.load_metadata");
    REPRO_RETURN_IF_ERROR(
        load_tree(a, pair.run_a.metadata_path, options, metadata, report));
    REPRO_RETURN_IF_ERROR(
        load_tree(b, pair.run_b.metadata_path, options, metadata, report));
    span.arg("bytes", report.metadata_bytes_read);
  }

  // --- compare_tree + compare_direct.
  REPRO_RETURN_IF_ERROR(
      compare_sides(a, b, a.tree.view, b.tree.view, 0, options, report));

  report.total_seconds = total.seconds();
  record_compare_metrics(report);
  pair_span.arg("chunks_flagged", report.chunks_flagged)
      .arg("values_exceeding", report.values_exceeding);
  return report;
}

std::filesystem::path sidecar_for(const std::filesystem::path& checkpoint) {
  // A failed probe reads as "not there"; compare_pair's own probe of the
  // chosen path then reports the failure.
  std::filesystem::path appended = checkpoint.string() + ".rmrk";
  if (repro::path_exists(appended).value_or(false)) return appended;
  std::filesystem::path replaced = checkpoint;
  replaced.replace_extension(".rmrk");
  if (repro::path_exists(replaced).value_or(false)) return replaced;
  return appended;  // default target when neither exists yet
}

repro::Result<CompareReport> compare_files(
    const std::filesystem::path& checkpoint_a,
    const std::filesystem::path& checkpoint_b,
    const CompareOptions& options) {
  ckpt::CheckpointPair pair;
  pair.run_a.checkpoint_path = checkpoint_a;
  pair.run_a.metadata_path = sidecar_for(checkpoint_a);
  pair.run_b.checkpoint_path = checkpoint_b;
  pair.run_b.metadata_path = sidecar_for(checkpoint_b);
  return compare_pair(pair, options);
}

repro::Result<HistoryReport> compare_histories(
    const ckpt::HistoryCatalog& catalog, const std::string& run_a,
    const std::string& run_b, const HistoryOptions& options,
    const MetadataProvider& metadata) {
  Stopwatch total;
  HistoryReport history;
  std::vector<ckpt::CheckpointPair> pairs;
  if (options.allow_ragged) {
    REPRO_ASSIGN_OR_RETURN(ckpt::PairingReport pairing,
                           catalog.pair_runs_lenient(run_a, run_b));
    pairs = std::move(pairing.pairs);
    history.only_in_a = std::move(pairing.only_in_a);
    history.only_in_b = std::move(pairing.only_in_b);
  } else {
    REPRO_ASSIGN_OR_RETURN(pairs, catalog.pair_runs(run_a, run_b));
  }
  for (const auto& pair : pairs) {
    REPRO_ASSIGN_OR_RETURN(CompareReport report,
                           compare_pair(pair, options.pair_options, metadata));
    const bool diverged = !report.identical_within_bound();
    if (diverged && !history.first_divergent_iteration.has_value()) {
      history.first_divergent_iteration = pair.run_a.iteration;
      history.first_divergent_rank = pair.run_a.rank;
    }
    history.pairs.emplace_back(pair, std::move(report));
    if (diverged && options.stop_at_first_divergence) break;
  }
  history.total_seconds = total.seconds();
  return history;
}

}  // namespace repro::cmp
