// History phase: the paper's second promise, finding when and where two
// runs diverge.
//
// Setup writes runs A and B (2 ranks x 16 iterations x 8 MiB, ε = 1e-6,
// 64 KiB chunks) with their flat sidecars. B departs from A as the workload's
// shape says; on even iterations a near-boundary layer adds hash false
// positives (flagged chunks with no value beyond ε). The timed work repeats
// cmp::compare_histories over the whole history (history_gbps) and with
// stop_at_first_divergence (first_divergence_ms).
#include <algorithm>
#include <cmath>
#include <thread>

#include "ckpt/format.hpp"
#include "ckpt/history.hpp"
#include "compare/comparator.hpp"
#include "compare/elementwise.hpp"
#include "hash/kernels.hpp"
#include "io/backend.hpp"
#include "io/stream.hpp"
#include "merkle/compare.hpp"
#include "merkle/flat.hpp"
#include "phases.hpp"
#include "trace.hpp"

namespace reprobench {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kRanks = 2;
constexpr std::uint64_t kIterations = 16;
constexpr std::uint64_t kParticles = (8ULL << 20) / 28;  // 7 F32 fields
constexpr std::uint64_t kChunkBytes = 64 * 1024;
constexpr std::uint64_t kChunkValues = kChunkBytes / sizeof(float);
constexpr int kEarlyPerFull = 5;

/// Accumulated stage-1 / stage-2 effectiveness over full compares.
struct FlagStats {
  double chunks_total = 0;
  double chunks_flagged = 0;
  double flagged_useful = 0;   ///< flagged chunks holding a value beyond ε
  double flagged_payload = 0;  ///< bytes of flagged chunks, one file
  double bytes_read = 0;       ///< bytes_read_per_file
  std::vector<double> nodes_visited;
};

/// Checks a compare_histories result against the generator's ground truth.
bool check_history(const repro::Result<repro::cmp::HistoryReport>& result,
                   const HistoryInputs& inputs, bool early_exit) {
  if (!result.is_ok()) return false;
  const repro::cmp::HistoryReport& report = result.value();
  const std::uint64_t expected_pairs =
      early_exit ? inputs.first_iteration * inputs.ranks + inputs.first_rank + 1
                 : inputs.iterations * inputs.ranks;
  if (report.pairs.size() != expected_pairs) return false;
  if (report.first_divergent_iteration != inputs.first_iteration ||
      report.first_divergent_rank != inputs.first_rank) {
    return false;
  }
  for (const auto& [pair, pair_report] : report.pairs) {
    if (pair_report.values_exceeding !=
            inputs.total_exceeding(pair.run_a.iteration, pair.run_a.rank) ||
        pair_report.io_recovery_active()) {
      return false;
    }
  }
  return true;
}

void accumulate_flags(const repro::cmp::HistoryReport& report,
                      const HistoryInputs& inputs, FlagStats& stats) {
  for (const auto& [pair, pair_report] : report.pairs) {
    const auto& truth =
        inputs.exceeding[pair.run_a.iteration * inputs.ranks + pair.run_a.rank];
    stats.chunks_total += static_cast<double>(pair_report.chunks_total);
    stats.chunks_flagged += static_cast<double>(pair_report.chunks_flagged);
    stats.bytes_read += static_cast<double>(pair_report.bytes_read_per_file);
    stats.nodes_visited.push_back(
        static_cast<double>(pair_report.tree_nodes_visited));
    for (const std::uint64_t chunk : pair_report.flagged_chunks) {
      if (chunk < truth.size() && truth[chunk] > 0) stats.flagged_useful += 1;
      const std::uint64_t begin = chunk * kChunkBytes;
      stats.flagged_payload += static_cast<double>(
          std::min(kChunkBytes, inputs.data_bytes - begin));
    }
  }
}

/// Accumulated replay timings (traced run).
struct ReplayStats {
  double pair_seconds = 0;    ///< compare_pair wall time
  double replay_seconds = 0;  ///< the same pair through the layer calls
  std::vector<double> clean_pair_s;
  std::vector<double> divergent_pair_s;
  std::vector<double> stream_wait_s;  ///< per pair with candidates
};

/// Runs one pair through compare_pair, then through the public layer calls
/// compare_pair is built from, each in its own span. The gap between the
/// two is compare.unexplained_share. A direct read and a count_diffs pass
/// over the same candidates follow, outside that sum.
bool replay_pair(const repro::ckpt::CheckpointPair& pair,
                 std::uint64_t request, ReplayStats& stats) {
  Tracer& tracer = Tracer::get();
  const repro::cmp::CompareOptions options = [] {
    repro::cmp::CompareOptions o;
    o.error_bound = kEps;
    return o;
  }();

  double pair_s = 0;
  std::uint64_t flagged = 0;
  {
    Span span("compare.pair", request);
    const double t0 = now_s();
    auto report = repro::cmp::compare_pair(pair, options);
    pair_s = now_s() - t0;
    if (!report.is_ok()) return false;
    flagged = report.value().chunks_flagged;
  }
  (flagged == 0 ? stats.clean_pair_s : stats.divergent_pair_s).push_back(pair_s);

  const double replay0 = now_s();
  Span replay("compare.replay", request);
  auto open_reader = [&](const fs::path& path) {
    Span span("ckpt.reader_open", request);
    return repro::ckpt::CheckpointReader::open(path);
  };
  auto reader_a = open_reader(pair.run_a.checkpoint_path);
  auto reader_b = open_reader(pair.run_b.checkpoint_path);
  auto open_io = [&](const fs::path& path) {
    Span span("io.open", request);
    return repro::io::open_best(path, options.backend_options);
  };
  auto io_a = open_io(pair.run_a.checkpoint_path);
  auto io_b = open_io(pair.run_b.checkpoint_path);
  auto open_tree = [&](const fs::path& path, repro::merkle::MappedBundle& out)
      -> repro::Result<repro::merkle::TreeView> {
    Span span("merkle.open", request);
    REPRO_ASSIGN_OR_RETURN(out, repro::merkle::MappedBundle::open(path));
    return out.sole_tree();
  };
  repro::merkle::MappedBundle bundle_a;
  repro::merkle::MappedBundle bundle_b;
  auto tree_a = open_tree(pair.run_a.metadata_path, bundle_a);
  auto tree_b = open_tree(pair.run_b.metadata_path, bundle_b);
  if (!reader_a.is_ok() || !reader_b.is_ok() || !io_a.is_ok() ||
      !io_b.is_ok() || !tree_a.is_ok() || !tree_b.is_ok()) {
    return false;
  }
  repro::Result<std::vector<std::uint64_t>> candidates =
      std::vector<std::uint64_t>{};
  {
    Span span("merkle.bfs", request);
    repro::merkle::TreeCompareOptions tree_options = options.tree_compare;
    tree_options.exec = options.exec;
    candidates = repro::merkle::compare_trees(tree_a.value(), tree_b.value(),
                                              tree_options);
  }
  if (!candidates.is_ok() || candidates.value().size() != flagged) return false;
  const std::vector<std::uint64_t> chunks = candidates.value();
  const std::uint64_t data_bytes = tree_a.value().data_bytes();
  double wait_s = 0;
  if (!chunks.empty()) {
    repro::io::StreamOptions stream = options.stream;
    stream.base_offset_a = reader_a.value().data_offset();
    stream.base_offset_b = reader_b.value().data_offset();
    repro::io::PairedChunkStreamer streamer(*io_a.value(), *io_b.value(),
                                            kChunkBytes, data_bytes, chunks,
                                            stream);
    repro::cmp::ElementwiseOptions element;
    element.exec = options.exec;
    while (true) {
      repro::io::ChunkSlice* slice = nullptr;
      {
        const double w0 = now_s();
        Span span("io.stream_wait", request);
        slice = streamer.next();
        wait_s += now_s() - w0;
      }
      if (slice == nullptr) break;
      for (const auto& placement : slice->placements) {
        Span span("compare.region", request);
        (void)repro::cmp::compare_region(
            std::span<const std::uint8_t>(
                slice->data_a.data() + placement.buffer_offset,
                placement.length),
            std::span<const std::uint8_t>(
                slice->data_b.data() + placement.buffer_offset,
                placement.length),
            repro::merkle::ValueKind::kF32, kEps,
            placement.chunk * kChunkValues, element, nullptr);
        tracer.count("compare.region_bytes",
                     2.0 * static_cast<double>(placement.length));
      }
    }
    if (!streamer.status().is_ok()) return false;
    stats.stream_wait_s.push_back(wait_s);
  }
  replay.finish();
  stats.pair_seconds += pair_s;
  stats.replay_seconds += now_s() - replay0;
  if (chunks.empty()) return true;

  // Direct scattered read of the candidates, then the count_diffs kernel
  // over the bytes it read.
  std::vector<float> values_a(chunks.size() * kChunkValues);
  std::vector<float> values_b(values_a.size());
  std::vector<repro::io::ReadRequest> requests_a;
  std::vector<repro::io::ReadRequest> requests_b;
  std::vector<std::uint64_t> lengths;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const std::uint64_t begin = chunks[i] * kChunkBytes;
    const std::uint64_t len = std::min(kChunkBytes, data_bytes - begin);
    lengths.push_back(len);
    auto* dest_a = reinterpret_cast<std::uint8_t*>(values_a.data() + i * kChunkValues);
    auto* dest_b = reinterpret_cast<std::uint8_t*>(values_b.data() + i * kChunkValues);
    requests_a.push_back({reader_a.value().data_offset() + begin, {dest_a, len}});
    requests_b.push_back({reader_b.value().data_offset() + begin, {dest_b, len}});
  }
  {
    Span span("io.read", request);
    if (!io_a.value()->read_batch(requests_a).is_ok() ||
        !io_b.value()->read_batch(requests_b).is_ok()) {
      return false;
    }
  }
  double read_bytes = 0;
  for (const std::uint64_t len : lengths) read_bytes += 2.0 * static_cast<double>(len);
  tracer.count("io.read_bytes", read_bytes);
  {
    Span span("hash.count_diffs", request);
    std::uint64_t diffs = 0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      diffs += repro::hash::count_diffs_f32(
          values_a.data() + i * kChunkValues, values_b.data() + i * kChunkValues,
          lengths[i] / sizeof(float), kEps);
    }
    tracer.count("hash.count_diffs_bytes", read_bytes);
    tracer.count("hash.count_diffs_found", static_cast<double>(diffs));
  }
  return true;
}

}  // namespace

std::uint64_t HistoryInputs::total_exceeding(std::uint64_t iteration,
                                             std::uint32_t rank) const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : exceeding[iteration * ranks + rank]) total += n;
  return total;
}

HistoryInputs setup_history(const Config& config) {
  HistoryInputs inputs;
  inputs.root = config.work_dir / "history";
  inputs.ranks = kRanks;
  inputs.iterations = kIterations;
  inputs.data_bytes = kParticles * 7 * sizeof(float);
  inputs.exceeding.resize(kIterations * kRanks);
  std::error_code ec;
  fs::remove_all(inputs.root, ec);

  repro::merkle::TreeParams params;
  params.chunk_bytes = kChunkBytes;
  params.hash.error_bound = kEps;
  const repro::ckpt::HistoryCatalog catalog(inputs.root);
  static constexpr const char* kNames[] = {"X", "Y", "Z", "VX", "VY", "VZ", "PHI"};
  const std::uint64_t num_chunks =
      (inputs.data_bytes + kChunkBytes - 1) / kChunkBytes;

  std::vector<std::vector<float>> run_a(kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    run_a[r].resize(kParticles * 7);
    fill_base(run_a[r], mix(config.seed, 300, r));
  }
  // Rank 1 departs one iteration before rank 0, so the first divergent
  // (iteration, rank) is not simply the first pair of an iteration.
  const std::uint64_t start =
      config.shape == Shape::kClustered ? 6 : kIterations - 4;
  bool captured = true;
  for (std::uint64_t j = 0; j < kIterations; ++j) {
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      std::vector<float>& a = run_a[r];
      drift(a, mix(config.seed, 301, r), j);
      std::vector<float> b = a;
      const std::uint64_t key = j * kRanks + r;
      if (j % 2 == 0) {
        near_boundary(b, kChunkValues,
                      pick_chunks(num_chunks, 4, 1, mix(config.seed, 302, key)));
      }
      const std::uint64_t rank_start = start + (r == 0 ? 1 : 0);
      if (j >= rank_start) {
        if (config.shape == Shape::kClustered) {
          const double share =
              0.5 * (1.0 - std::pow(0.5, static_cast<double>(j - rank_start + 1)));
          const auto count = static_cast<std::uint64_t>(
              std::llround(share * static_cast<double>(num_chunks)));
          diverge(b, kChunkValues,
                  pick_chunks(num_chunks, count, 8, mix(config.seed, 303, key)),
                  4, mix(config.seed, 304, key));
        } else {
          diverge(b, kChunkValues,
                  pick_chunks(num_chunks, 3, 1, mix(config.seed, 303, key)),
                  kChunkValues, mix(config.seed, 304, key));
        }
      }
      inputs.exceeding[key] = exceeding_per_chunk(a, b, kChunkValues);

      for (const auto& [run, values] :
           {std::pair<const char*, const std::vector<float>*>{"A", &a},
            std::pair<const char*, const std::vector<float>*>{"B", &b}}) {
        repro::ckpt::CheckpointWriter writer("haccette", run, j, r);
        for (std::size_t f = 0; f < 7; ++f) {
          (void)writer.add_field_f32(
              kNames[f], std::span<const float>(values->data() + f * kParticles,
                                                kParticles));
        }
        captured = captured && write_checkpoint(catalog, writer, params);
      }
    }
  }
  if (!captured) std::fprintf(stderr, "reprobench: history setup failed\n");

  bool found = false;
  for (std::uint64_t j = 0; j < kIterations && !found; ++j) {
    for (std::uint32_t r = 0; r < kRanks && !found; ++r) {
      if (inputs.total_exceeding(j, r) > 0) {
        inputs.first_iteration = j;
        inputs.first_rank = r;
        found = true;
      }
    }
  }
  return inputs;
}

struct HistoryPhase::State {
  State(const HistoryInputs& in, Tally& t) : inputs(in), tally(t), catalog(in.root) {
    full.pair_options.error_bound = kEps;
    early = full;
    early.stop_at_first_divergence = true;
    if (auto paired = catalog.pair_runs("A", "B"); paired.is_ok()) {
      pairs = paired.value();
    }
  }

  const HistoryInputs& inputs;
  Tally& tally;
  repro::ckpt::HistoryCatalog catalog;
  repro::cmp::HistoryOptions full;
  repro::cmp::HistoryOptions early;
  std::vector<repro::ckpt::CheckpointPair> pairs;
  std::uint64_t request = 0;
  std::uint64_t replayed = 0;
  CycleSamples gbps;
  CycleSamples cpu_ms;
  CycleSamples first_ms;
  double busy_cpu = 0;
  double busy_wall = 0;
  FlagStats flags;
  ReplayStats replays;
};

HistoryPhase::HistoryPhase(const HistoryInputs& inputs, Tally& tally)
    : state_(std::make_unique<State>(inputs, tally)) {}

HistoryPhase::~HistoryPhase() = default;

void HistoryPhase::run(double budget_s, int cycle) {
  State& s = *state_;
  const HistoryInputs& inputs = s.inputs;
  const std::uint64_t history_bytes =
      inputs.data_bytes * inputs.iterations * inputs.ranks;
  const double deadline = now_s() + budget_s;
  do {
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    repro::Result<repro::cmp::HistoryReport> result =
        repro::internal_error("not run");
    {
      Span span("history.full", ++s.request);
      result = repro::cmp::compare_histories(s.catalog, "A", "B", s.full);
    }
    const double wall = now_s() - t0;
    const double cpu = process_cpu_s() - cpu0;
    s.busy_cpu += cpu;
    s.busy_wall += wall;
    s.gbps.add(cycle, 2.0 * static_cast<double>(history_bytes) / wall / 1e9);
    s.cpu_ms.add(cycle, cpu * 1e3);
    const bool ok = check_history(result, inputs, false);
    s.tally.check(ok, "full history compare");
    if (ok) accumulate_flags(result.value(), inputs, s.flags);

    for (int i = 0; i < kEarlyPerFull; ++i) {
      const double e0 = now_s();
      {
        Span span("history.first_divergence", ++s.request);
        result = repro::cmp::compare_histories(s.catalog, "A", "B", s.early);
      }
      s.first_ms.add(cycle, (now_s() - e0) * 1e3);
      s.tally.check(check_history(result, inputs, true),
                    "first-divergence search");
    }

    if (Tracer::get().enabled() && !s.pairs.empty()) {
      {
        Span span("ckpt.pair_runs", s.request);
        s.tally.check(s.catalog.pair_runs("A", "B").is_ok(), "pair_runs");
      }
      const auto& pair = s.pairs[s.replayed++ % s.pairs.size()];
      s.tally.check(replay_pair(pair, s.request, s.replays),
                    "layer replay of a pair");
    }
  } while (now_s() < deadline);
}

void HistoryPhase::report(const std::vector<int>& cycles, Metrics& e2e,
                          Metrics& layer) const {
  const State& s = *state_;
  e2e.set("history_gbps", median(s.gbps.of(cycles)), "GB/s");
  e2e.set("history_cpu_ms", median(s.cpu_ms.of(cycles)), "ms");
  e2e.set("first_divergence_ms", median(s.first_ms.of(cycles)), "ms");
  const Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;

  auto rate = [&](const char* bytes, const char* span) {
    const double seconds = tracer.total(span);
    return seconds > 0 ? tracer.counter(bytes) / seconds / 1e9 : 0.0;
  };
  const FlagStats& flags = s.flags;
  const ReplayStats& replays = s.replays;
  layer.set("hash.count_diffs_gbps",
            rate("hash.count_diffs_bytes", "hash.count_diffs"), "GB/s");
  layer.set("merkle.open_us", median(tracer.durations("merkle.open")) * 1e6, "us");
  layer.set("merkle.bfs_us", median(tracer.durations("merkle.bfs")) * 1e6, "us");
  layer.set("merkle.nodes_visited", median(flags.nodes_visited), "count");
  layer.set("merkle.flagged_ratio",
            flags.chunks_total > 0 ? flags.chunks_flagged / flags.chunks_total : 0,
            "ratio");
  layer.set("merkle.useful_flag_ratio",
            flags.chunks_flagged > 0 ? flags.flagged_useful / flags.chunks_flagged
                                     : 0,
            "ratio");
  layer.set("ckpt.reader_open_us",
            median(tracer.durations("ckpt.reader_open")) * 1e6, "us");
  layer.set("ckpt.pair_runs_ms",
            median(tracer.durations("ckpt.pair_runs")) * 1e3, "ms");
  layer.set("io.open_us", median(tracer.durations("io.open")) * 1e6, "us");
  layer.set("io.read_gbps", rate("io.read_bytes", "io.read"), "GB/s");
  layer.set("io.stream_wait_ms", median(replays.stream_wait_s) * 1e3, "ms");
  layer.set("io.read_amplification",
            flags.flagged_payload > 0 ? flags.bytes_read / flags.flagged_payload
                                      : 0,
            "ratio");
  layer.set("compare.clean_pair_us", median(replays.clean_pair_s) * 1e6, "us");
  layer.set("compare.divergent_pair_ms", median(replays.divergent_pair_s) * 1e3,
            "ms");
  layer.set("compare.region_gbps",
            rate("compare.region_bytes", "compare.region"), "GB/s");
  layer.set("compare.unexplained_share",
            replays.pair_seconds > 0
                ? 1.0 - replays.replay_seconds / replays.pair_seconds
                : 0,
            "ratio");
  layer.set("par.history_cpu_util",
            s.busy_cpu / (s.busy_wall * std::thread::hardware_concurrency()),
            "ratio");
}

}  // namespace reprobench
