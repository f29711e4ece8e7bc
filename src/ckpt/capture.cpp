#include "ckpt/capture.hpp"

#include <exception>

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
  telemetry::Histogram& write_seconds;
  telemetry::Histogram& build_seconds;
  telemetry::Histogram& flush_seconds;

  static CaptureMetrics& get() {
    auto& registry = telemetry::MetricsRegistry::global();
    static CaptureMetrics* metrics = new CaptureMetrics{
        registry.counter("capture.checkpoints"),
        registry.counter("capture.bytes"),
        registry.counter("capture.metadata_bytes"),
        registry.histogram("capture.foreground.seconds",
                           telemetry::latency_buckets_seconds()),
        registry.histogram("capture.write.seconds",
                           telemetry::latency_buckets_seconds()),
        registry.histogram("capture.build.seconds",
                           telemetry::latency_buckets_seconds()),
        registry.histogram("capture.flush.seconds",
                           telemetry::latency_buckets_seconds()),
    };
    return *metrics;
  }
};

/// The outcome and duration of one half of a capture.
struct Timed {
  repro::Status status;
  double seconds = 0;
};

/// Runs and times one half of a capture. An exception becomes the half's
/// status, so neither half unwinds past the other: the writer pool catches
/// nothing, and the build must not leave capture() while the write still
/// reads the writer's buffer.
template <typename Half>
Timed run_half(Half&& half) {
  Stopwatch clock;
  Timed out;
  try {
    out.status = half();
  } catch (const std::exception& e) {
    out.status = repro::internal_error(std::string("capture: ") + e.what());
  } catch (...) {
    out.status = repro::internal_error("capture: unknown exception");
  }
  out.seconds = clock.seconds();
  return out;
}

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

  // Level 1, the node-local write, is the only part the application waits
  // for. The capture-time Merkle metadata (Algorithm 1 runs "during
  // application execution ... at checkpoint time") reads the same resident
  // bytes, so this thread builds it while the writer thread writes. The
  // build stays on this thread: as a pool task, its own helpers could queue
  // behind other builds that wait on theirs.
  const auto local_name = info.run_id + "-iter" +
                          std::to_string(info.iteration) + "-rank" +
                          std::to_string(info.rank) + ".ckpt";
  const auto local_path = local_dir_ / local_name;
  Timed local;
  writer_.submit([&] {
    local = run_half([&] {
      telemetry::TraceSpan span("capture.local_write");
      span.arg("bytes",
               static_cast<std::uint64_t>(writer.data_section().size()));
      return writer.write(local_path);
    });
  });
  Timed build;
  std::vector<std::uint8_t> metadata;
  if (options_.build_metadata) {
    build = run_half([&]() -> repro::Status {
      telemetry::TraceSpan span("capture.tree_build");
      merkle::TreeBuilder builder(options_.tree, options_.exec);
      REPRO_ASSIGN_OR_RETURN(const merkle::MerkleTree tree,
                             builder.build(writer.data_section()));
      metadata = merkle::flat_serialize(tree);
      return repro::Status::ok();
    });
  }
  // run_half catches, so nothing between the submit and this wait throws
  // and every path waits: the write never outlives the call that lent it
  // `writer`.
  writer_.wait_idle();
  // A write error wins over a build error; after either, nothing flushes.
  REPRO_RETURN_IF_ERROR(local.status);
  REPRO_RETURN_IF_ERROR(build.status);

  const double blocked = foreground.seconds();
  {
    // The flusher thread updates stats_ concurrently; both sides lock.
    std::lock_guard<std::mutex> lock(mu_);
    stats_.foreground_seconds += blocked;
    stats_.write_seconds += local.seconds;
    stats_.build_seconds += build.seconds;
    stats_.checkpoints_captured += 1;
    stats_.bytes_captured += writer.data_section().size();
    stats_.metadata_bytes += metadata.size();
  }
  CaptureMetrics& metrics = CaptureMetrics::get();
  metrics.checkpoints.increment();
  metrics.bytes.add(writer.data_section().size());
  metrics.metadata_bytes.add(metadata.size());
  metrics.foreground_seconds.record(blocked);
  metrics.write_seconds.record(local.seconds);
  if (options_.build_metadata) metrics.build_seconds.record(build.seconds);

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
      // A re-capture drops the old sidecar once its new checkpoint is
      // fsync'd, just before the rename: a crash between the two publishes
      // then leaves a checkpoint without a sidecar (compares build its
      // tree), never one beside a tree of other bytes, and a copy that
      // fails keeps the old pair. The checkpoint publish's directory fsync
      // persists the unlink with the rename.
      status = repro::copy_file_atomic(local_path, ref.checkpoint_path,
                                       ref.metadata_path)
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
