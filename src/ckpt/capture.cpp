#include "ckpt/capture.hpp"

#include "common/fs.hpp"
#include "common/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace repro::ckpt {
namespace {

struct CaptureMetrics {
  telemetry::Counter& checkpoints;
  telemetry::Counter& bytes;
  telemetry::Counter& metadata_bytes;
  telemetry::Histogram& foreground_seconds;
  telemetry::Histogram& flush_seconds;

  static CaptureMetrics& get() {
    auto& registry = telemetry::MetricsRegistry::global();
    static CaptureMetrics* metrics = new CaptureMetrics{
        registry.counter("capture.checkpoints"),
        registry.counter("capture.bytes"),
        registry.counter("capture.metadata_bytes"),
        registry.histogram("capture.foreground.seconds",
                           telemetry::latency_buckets_seconds()),
        registry.histogram("capture.flush.seconds",
                           telemetry::latency_buckets_seconds()),
    };
    return *metrics;
  }
};

}  // namespace

CaptureEngine::CaptureEngine(std::filesystem::path local_dir,
                             HistoryCatalog catalog, CaptureOptions options)
    : local_dir_(std::move(local_dir)),
      catalog_(std::move(catalog)),
      options_(std::move(options)) {
  std::filesystem::create_directories(local_dir_);
}

CaptureEngine::~CaptureEngine() {
  const repro::Status status = wait_all();
  if (!status.is_ok()) {
    REPRO_LOG_ERROR << "capture flush failed during shutdown: "
                    << status.to_string();
  }
}

repro::Status CaptureEngine::capture(const CheckpointWriter& writer) {
  Stopwatch foreground;
  const CheckpointInfo& info = writer.info();
  telemetry::TraceSpan capture_span("capture.checkpoint");
  capture_span.arg("run", info.run_id)
      .arg("iteration", static_cast<std::uint64_t>(info.iteration))
      .arg("rank", static_cast<std::uint64_t>(info.rank));

  // Level 1: node-local write (the only part the application waits for).
  const auto local_name = info.run_id + "-iter" +
                          std::to_string(info.iteration) + "-rank" +
                          std::to_string(info.rank) + ".ckpt";
  const auto local_path = local_dir_ / local_name;
  {
    telemetry::TraceSpan span("capture.local_write");
    span.arg("bytes",
             static_cast<std::uint64_t>(writer.data_section().size()));
    REPRO_RETURN_IF_ERROR(writer.write(local_path));
  }

  // Capture-time Merkle metadata from the resident bytes (Algorithm 1 runs
  // "during application execution ... at checkpoint time").
  std::vector<std::uint8_t> metadata;
  if (options_.build_metadata) {
    telemetry::TraceSpan span("capture.tree_build");
    merkle::TreeBuilder builder(options_.tree, options_.exec);
    REPRO_ASSIGN_OR_RETURN(const merkle::MerkleTree tree,
                           builder.build(writer.data_section()));
    metadata = merkle::flat_serialize(tree);
  }

  {
    // The flusher thread updates stats_ concurrently; both sides lock.
    std::lock_guard<std::mutex> lock(mu_);
    stats_.foreground_seconds += foreground.seconds();
    stats_.checkpoints_captured += 1;
    stats_.bytes_captured += writer.data_section().size();
    stats_.metadata_bytes += metadata.size();
  }
  CaptureMetrics& metrics = CaptureMetrics::get();
  metrics.checkpoints.increment();
  metrics.bytes.add(writer.data_section().size());
  metrics.metadata_bytes.add(metadata.size());
  metrics.foreground_seconds.record(foreground.seconds());

  // Level 2: background flush to the PFS.
  flusher_.submit([this, local_path, metadata = std::move(metadata),
                   run_id = info.run_id, iteration = info.iteration,
                   rank = info.rank] {
    Stopwatch flush;
    telemetry::TraceSpan span("capture.flush");
    span.arg("iteration", static_cast<std::uint64_t>(iteration))
        .arg("rank", static_cast<std::uint64_t>(rank));
    repro::Status status;
    auto ref_result = catalog_.make_ref(run_id, iteration, rank);
    if (!ref_result.is_ok()) {
      status = ref_result.status();
    } else {
      const CheckpointRef& ref = ref_result.value();
      // Atomic publishes: a crash mid-flush leaves at most an orphaned
      // temp file (invisible to the catalog), never a torn .ckpt/.rmrk.
      status = repro::copy_file_atomic(local_path, ref.checkpoint_path)
                   .with_context("flushing checkpoint to PFS");
      if (status.is_ok() && !metadata.empty()) {
        status = repro::write_file(ref.metadata_path, metadata)
                     .with_context("flushing merkle metadata");
      }
    }
    CaptureMetrics::get().flush_seconds.record(flush.seconds());
    std::lock_guard<std::mutex> lock(mu_);
    stats_.flush_seconds += flush.seconds();
    if (flush_status_.is_ok() && !status.is_ok()) {
      flush_status_ = std::move(status);
    }
  });

  return repro::Status::ok();
}

repro::Status CaptureEngine::wait_all() {
  flusher_.wait_idle();
  std::lock_guard<std::mutex> lock(mu_);
  return flush_status_;
}

CaptureStats CaptureEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace repro::ckpt
