#include "io/backend.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "io/uring_backend.hpp"
#include "par/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace repro::io {

std::string_view backend_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kPread: return "pread";
    case BackendKind::kMmap: return "mmap";
    case BackendKind::kUring: return "io_uring";
    case BackendKind::kThreadAsync: return "threads";
  }
  return "?";
}

repro::Result<BackendKind> parse_backend(std::string_view name) {
  if (name == "pread") return BackendKind::kPread;
  if (name == "mmap") return BackendKind::kMmap;
  if (name == "uring" || name == "io_uring") return BackendKind::kUring;
  if (name == "threads" || name == "async") return BackendKind::kThreadAsync;
  return repro::invalid_argument("unknown io backend: " + std::string{name});
}

namespace {

/// Registry handles shared by every backend. The ad-hoc IoStatsCounters
/// stay authoritative for per-backend CompareReport numbers; these global
/// metrics aggregate the same events across all backends for --metrics-out.
struct IoMetrics {
  telemetry::Counter& read_ops;
  telemetry::Counter& read_bytes;
  telemetry::Counter& retries;
  telemetry::Counter& short_reads;
  telemetry::Counter& interrupts;
  telemetry::Counter& batches;
  telemetry::Histogram& batch_bytes;
  telemetry::Histogram& batch_seconds;

  static IoMetrics& get() {
    auto& registry = telemetry::MetricsRegistry::global();
    static IoMetrics* metrics = new IoMetrics{
        registry.counter("io.read.ops"),
        registry.counter("io.read.bytes"),
        registry.counter("io.retry.count"),
        registry.counter("io.short_read.count"),
        registry.counter("io.interrupt.count"),
        registry.counter("io.batch.count"),
        registry.histogram("io.batch.bytes", telemetry::size_buckets_bytes()),
        registry.histogram("io.batch.seconds",
                           telemetry::latency_buckets_seconds()),
    };
    return *metrics;
  }
};

std::uint64_t batch_total_bytes(std::span<const ReadRequest> requests) {
  std::uint64_t total = 0;
  for (const auto& request : requests) total += request.dest.size();
  return total;
}

/// RAII wrapper for one read_batch call: opens an "io.batch" trace span and
/// records batch count/size/latency metrics on scope exit.
class BatchScope {
 public:
  BatchScope(std::string_view backend, std::span<const ReadRequest> requests)
      : bytes_(batch_total_bytes(requests)), span_("io.batch") {
    span_.arg("backend", backend)
        .arg("requests", static_cast<std::uint64_t>(requests.size()))
        .arg("bytes", bytes_);
  }

  ~BatchScope() {
    IoMetrics& metrics = IoMetrics::get();
    metrics.batches.increment();
    metrics.batch_bytes.record(static_cast<double>(bytes_));
    metrics.batch_seconds.record(watch_.seconds());
  }

 private:
  std::uint64_t bytes_;
  Stopwatch watch_;
  telemetry::TraceSpan span_;
};

/// Overflow-safe EOF check shared by every backend: `offset + len > size`
/// wraps for huge offsets and would wrongly pass (offset == UINT64_MAX - 1
/// once did).
repro::Status check_bounds(const ReadRequest& request, std::uint64_t size,
                           std::string_view source) {
  if (request.dest.size() > size ||
      request.offset > size - request.dest.size()) {
    return repro::out_of_range(
        "read past EOF of " + std::string{source} + " (offset " +
        std::to_string(request.offset) + " len " +
        std::to_string(request.dest.size()) + " size " +
        std::to_string(size) + ")");
  }
  return repro::Status::ok();
}

/// Shared open/size/close plumbing for fd-based backends.
class FdBackendBase : public IoBackend {
 public:
  ~FdBackendBase() override {
    if (fd_ >= 0) ::close(fd_);
  }

  repro::Status open_file(const std::filesystem::path& path,
                          const RetryPolicy& retry) {
    retry_ = retry;
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) {
      return repro::io_error_errno("open: " + path.string(), errno);
    }
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
      return repro::io_error_errno("lseek: " + path.string(), errno);
    }
    size_ = static_cast<std::uint64_t>(end);
    path_ = path.string();
    return repro::Status::ok();
  }

  [[nodiscard]] std::uint64_t size() const noexcept override { return size_; }

  [[nodiscard]] IoStats stats() const noexcept override {
    return counters_.snapshot();
  }

 protected:
  /// Full pread loop: continues short reads, absorbs bounded EINTR/EAGAIN
  /// storms, and gives transient EIO-class errors a capped, backed-off
  /// number of retries before failing.
  repro::Status pread_full(std::uint64_t offset,
                           std::span<std::uint8_t> dest) const {
    IoMetrics& metrics = IoMetrics::get();
    metrics.read_ops.increment();
    metrics.read_bytes.add(dest.size());
    std::size_t got = 0;
    unsigned interrupts = 0;
    unsigned attempts = 1;
    while (got < dest.size()) {
      const ssize_t n = ::pread(fd_, dest.data() + got, dest.size() - got,
                                static_cast<off_t>(offset + got));
      if (n < 0) {
        if (errno_is_interrupt(errno)) {
          counters_.interrupts.fetch_add(1, std::memory_order_relaxed);
          metrics.interrupts.increment();
          if (++interrupts > retry_.max_interrupts) {
            return repro::io_error("pread interrupted " +
                                   std::to_string(interrupts) +
                                   " times without progress: " + path_);
          }
          continue;
        }
        if (retry_.retry_transient_io && errno_is_transient_io(errno) &&
            attempts < retry_.max_attempts) {
          counters_.retries.fetch_add(1, std::memory_order_relaxed);
          metrics.retries.increment();
          backoff_sleep(retry_, attempts);
          ++attempts;
          continue;
        }
        return repro::io_error_errno("pread: " + path_, errno);
      }
      if (n == 0) return repro::io_error("unexpected EOF in " + path_);
      if (static_cast<std::size_t>(n) < dest.size() - got) {
        counters_.short_reads.fetch_add(1, std::memory_order_relaxed);
        metrics.short_reads.increment();
      }
      got += static_cast<std::size_t>(n);
      interrupts = 0;  // progress ends the storm
    }
    return repro::Status::ok();
  }

  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string path_;
  RetryPolicy retry_;
  mutable IoStatsCounters counters_;
};

class PreadBackend final : public FdBackendBase {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "pread";
  }

  repro::Status read_at(std::uint64_t offset,
                        std::span<std::uint8_t> dest) override {
    REPRO_RETURN_IF_ERROR(check_bounds({offset, dest}, size_, path_));
    return pread_full(offset, dest);
  }

  repro::Status read_batch(std::span<ReadRequest> requests) override {
    BatchScope batch("pread", requests);
    for (const auto& request : requests) {
      REPRO_RETURN_IF_ERROR(read_at(request.offset, request.dest));
    }
    return repro::Status::ok();
  }
};

class MmapBackend final : public FdBackendBase {
 public:
  ~MmapBackend() override {
    if (map_ != MAP_FAILED && map_ != nullptr && size_ > 0) {
      ::munmap(map_, size_);
    }
  }

  repro::Status map() {
    if (size_ == 0) return repro::Status::ok();
    map_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (map_ == MAP_FAILED) {
      return repro::io_error_errno("mmap: " + path_, errno);
    }
    // The scattered pattern defeats readahead by design; tell the kernel so
    // it does not prefetch pages we will never touch.
    ::madvise(map_, size_, MADV_RANDOM);
    return repro::Status::ok();
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "mmap";
  }

  repro::Status read_at(std::uint64_t offset,
                        std::span<std::uint8_t> dest) override {
    REPRO_RETURN_IF_ERROR(check_bounds({offset, dest}, size_, path_));
    IoMetrics& metrics = IoMetrics::get();
    metrics.read_ops.increment();
    metrics.read_bytes.add(dest.size());
    if (dest.empty()) return repro::Status::ok();  // memcpy(null,...) is UB
    // Every touched page that is cold triggers a synchronous page fault —
    // exactly the cost Figure 9 attributes to the mmap backend.
    std::memcpy(dest.data(), static_cast<const std::uint8_t*>(map_) + offset,
                dest.size());
    return repro::Status::ok();
  }

  repro::Status read_batch(std::span<ReadRequest> requests) override {
    BatchScope batch("mmap", requests);
    for (const auto& request : requests) {
      REPRO_RETURN_IF_ERROR(read_at(request.offset, request.dest));
    }
    return repro::Status::ok();
  }

 private:
  void* map_ = MAP_FAILED;
};

/// Portable asynchronous backend: a private team of I/O threads drains the
/// request batch with preads. Mirrors the paper's "team of I/O threads"
/// when io_uring is unavailable.
class ThreadAsyncBackend final : public FdBackendBase {
 public:
  explicit ThreadAsyncBackend(unsigned io_threads)
      : pool_(std::max(1U, io_threads)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "threads";
  }

  repro::Status read_at(std::uint64_t offset,
                        std::span<std::uint8_t> dest) override {
    REPRO_RETURN_IF_ERROR(check_bounds({offset, dest}, size_, path_));
    return pread_full(offset, dest);
  }

  repro::Status read_batch(std::span<ReadRequest> requests) override {
    BatchScope batch("threads", requests);
    for (const auto& request : requests) {
      REPRO_RETURN_IF_ERROR(check_bounds(request, size_, path_));
    }
    std::mutex mu;
    repro::Status first_error;
    for (const auto& request : requests) {
      pool_.submit([this, &request, &mu, &first_error] {
        repro::Status status = pread_full(request.offset, request.dest);
        if (!status.is_ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first_error.is_ok()) first_error = std::move(status);
        }
      });
    }
    pool_.wait_idle();
    return first_error;
  }

 private:
  par::ThreadPool pool_;
};

class MemoryBackend final : public IoBackend {
 public:
  explicit MemoryBackend(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  [[nodiscard]] std::uint64_t size() const noexcept override {
    return bytes_.size();
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "memory";
  }

  repro::Status read_at(std::uint64_t offset,
                        std::span<std::uint8_t> dest) override {
    REPRO_RETURN_IF_ERROR(
        check_bounds({offset, dest}, bytes_.size(), "memory"));
    if (!dest.empty()) {  // memcpy(null, ...) is UB
      std::memcpy(dest.data(), bytes_.data() + offset, dest.size());
    }
    return repro::Status::ok();
  }

  repro::Status read_batch(std::span<ReadRequest> requests) override {
    for (const auto& request : requests) {
      REPRO_RETURN_IF_ERROR(read_at(request.offset, request.dest));
    }
    return repro::Status::ok();
  }

 private:
  std::span<const std::uint8_t> bytes_;
};

}  // namespace

std::unique_ptr<IoBackend> open_memory_backend(
    std::span<const std::uint8_t> bytes) {
  return std::make_unique<MemoryBackend>(bytes);
}

repro::Result<std::unique_ptr<IoBackend>> open_backend(
    const std::filesystem::path& path, BackendKind kind,
    const BackendOptions& options) {
  switch (kind) {
    case BackendKind::kPread: {
      auto backend = std::make_unique<PreadBackend>();
      REPRO_RETURN_IF_ERROR(backend->open_file(path, options.retry));
      return std::unique_ptr<IoBackend>{std::move(backend)};
    }
    case BackendKind::kMmap: {
      auto backend = std::make_unique<MmapBackend>();
      REPRO_RETURN_IF_ERROR(backend->open_file(path, options.retry));
      REPRO_RETURN_IF_ERROR(backend->map());
      return std::unique_ptr<IoBackend>{std::move(backend)};
    }
    case BackendKind::kUring:
      return open_uring_backend(path, options);
    case BackendKind::kThreadAsync: {
      auto backend = std::make_unique<ThreadAsyncBackend>(options.io_threads);
      REPRO_RETURN_IF_ERROR(backend->open_file(path, options.retry));
      return std::unique_ptr<IoBackend>{std::move(backend)};
    }
  }
  return repro::invalid_argument("bad backend kind");
}

repro::Result<std::unique_ptr<IoBackend>> open_backend_with_fallback(
    const std::filesystem::path& path, BackendKind kind,
    const BackendOptions& options, bool fallback, std::uint64_t* fallbacks) {
  auto result = open_backend(path, kind, options);
  if (result.is_ok() || !fallback ||
      result.status().code() != repro::StatusCode::kUnsupported) {
    return result;
  }
  REPRO_LOG_WARN << backend_name(kind) << " backend unavailable ("
                 << result.status().message()
                 << "); falling back to the threads backend for "
                 << path.string();
  if (fallbacks != nullptr) ++*fallbacks;
  return open_backend(path, BackendKind::kThreadAsync, options);
}

repro::Result<std::unique_ptr<IoBackend>> open_best(
    const std::filesystem::path& path, const BackendOptions& options) {
  // Setup can still fail after a successful probe (fd limits, seccomp
  // races): degrade rather than failing the comparison.
  const BackendKind kind =
      uring_available() ? BackendKind::kUring : BackendKind::kThreadAsync;
  return open_backend_with_fallback(path, kind, options, true);
}

}  // namespace repro::io
