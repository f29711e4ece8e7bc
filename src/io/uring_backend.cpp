#include "io/uring_backend.hpp"

#include <fcntl.h>
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "io/retry.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace repro::io {
namespace {

/// Global registry handles — same metric names as the other backends, so
/// the registry aggregates across backend kinds (see io/backend.cpp).
struct UringMetrics {
  telemetry::Counter& read_ops;
  telemetry::Counter& read_bytes;
  telemetry::Counter& retries;
  telemetry::Counter& short_reads;
  telemetry::Counter& interrupts;
  telemetry::Counter& fallbacks;
  telemetry::Counter& batches;
  telemetry::Histogram& batch_bytes;
  telemetry::Histogram& batch_seconds;
  /// Live SQEs submitted but not yet completed; mirrored into traces by
  /// telemetry::ResourceSampler.
  telemetry::Gauge& inflight;
  /// Rings created with io_uring_setup for backends; pooled reuse does not
  /// count.
  telemetry::Counter& ring_setups;

  static UringMetrics& get() {
    auto& registry = telemetry::MetricsRegistry::global();
    static UringMetrics* metrics = new UringMetrics{
        registry.counter("io.read.ops"),
        registry.counter("io.read.bytes"),
        registry.counter("io.retry.count"),
        registry.counter("io.short_read.count"),
        registry.counter("io.interrupt.count"),
        registry.counter("io.fallback.count"),
        registry.counter("io.batch.count"),
        registry.histogram("io.batch.bytes", telemetry::size_buckets_bytes()),
        registry.histogram("io.batch.seconds",
                           telemetry::latency_buckets_seconds()),
        registry.gauge("io.uring.inflight"),
        registry.counter("io.uring.ring_setups"),
    };
    return *metrics;
  }
};

std::atomic<bool> g_force_setup_failure{false};
std::atomic<unsigned> g_force_submit_failures{0};

bool consume_forced_submit_failure() noexcept {
  unsigned current = g_force_submit_failures.load(std::memory_order_relaxed);
  while (current > 0) {
    if (g_force_submit_failures.compare_exchange_weak(
            current, current - 1, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int ring_fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

template <typename T>
T* ring_ptr(void* base, std::uint32_t offset) {
  return reinterpret_cast<T*>(static_cast<std::uint8_t*>(base) + offset);
}

std::uint32_t load_acquire(const std::uint32_t* ptr) {
  return __atomic_load_n(ptr, __ATOMIC_ACQUIRE);
}

void store_release(std::uint32_t* ptr, std::uint32_t value) {
  __atomic_store_n(ptr, value, __ATOMIC_RELEASE);
}

/// Owns the ring fd and the three ring mappings, and counts the reads
/// pushed onto it that have not been reaped yet.
class Ring {
 public:
  Ring() = default;
  ~Ring() { close(); }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  repro::Status init(unsigned entries) {
    io_uring_params params;
    std::memset(&params, 0, sizeof params);
    ring_fd_ = sys_io_uring_setup(entries, &params);
    if (ring_fd_ < 0) {
      return repro::unsupported(std::string{"io_uring_setup failed: "} +
                                std::strerror(errno));
    }
    UringMetrics::get().ring_setups.increment();
    requested_entries_ = entries;
    sq_entries_ = params.sq_entries;
    cq_entries_ = params.cq_entries;

    const std::size_t sq_ring_bytes =
        params.sq_off.array + params.sq_entries * sizeof(std::uint32_t);
    const std::size_t cq_ring_bytes =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);

    if ((params.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      const std::size_t bytes = std::max(sq_ring_bytes, cq_ring_bytes);
      sq_ring_ = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_,
                        IORING_OFF_SQ_RING);
      if (sq_ring_ == MAP_FAILED) {
        return repro::io_error_errno("mmap sq ring", errno);
      }
      sq_ring_bytes_ = bytes;
      cq_ring_ = sq_ring_;
      cq_ring_bytes_ = 0;  // shared mapping, unmapped via sq_ring_
    } else {
      sq_ring_ = ::mmap(nullptr, sq_ring_bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_,
                        IORING_OFF_SQ_RING);
      if (sq_ring_ == MAP_FAILED) {
        return repro::io_error_errno("mmap sq ring", errno);
      }
      sq_ring_bytes_ = sq_ring_bytes;
      cq_ring_ = ::mmap(nullptr, cq_ring_bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_,
                        IORING_OFF_CQ_RING);
      if (cq_ring_ == MAP_FAILED) {
        return repro::io_error_errno("mmap cq ring", errno);
      }
      cq_ring_bytes_ = cq_ring_bytes;
    }

    const std::size_t sqe_bytes = params.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, sqe_bytes, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      return repro::io_error_errno("mmap sqes", errno);
    }
    sqe_bytes_ = sqe_bytes;

    sq_head_ = ring_ptr<std::uint32_t>(sq_ring_, params.sq_off.head);
    sq_tail_ = ring_ptr<std::uint32_t>(sq_ring_, params.sq_off.tail);
    sq_mask_ = *ring_ptr<std::uint32_t>(sq_ring_, params.sq_off.ring_mask);
    sq_array_ = ring_ptr<std::uint32_t>(sq_ring_, params.sq_off.array);

    cq_head_ = ring_ptr<std::uint32_t>(cq_ring_, params.cq_off.head);
    cq_tail_ = ring_ptr<std::uint32_t>(cq_ring_, params.cq_off.tail);
    cq_mask_ = *ring_ptr<std::uint32_t>(cq_ring_, params.cq_off.ring_mask);
    cqes_ = ring_ptr<io_uring_cqe>(cq_ring_, params.cq_off.cqes);
    return repro::Status::ok();
  }

  /// The queue depth the ring was created for (its pool key).
  [[nodiscard]] unsigned requested_entries() const noexcept {
    return requested_entries_;
  }

  /// Reads pushed and not yet reaped: queued, in the kernel, or completed
  /// with their CQE still in the completion queue.
  [[nodiscard]] std::size_t inflight() const noexcept { return inflight_; }

  /// Nothing queued, in flight or unreaped: the ring can serve another
  /// backend without its state leaking into that backend's batches.
  [[nodiscard]] bool quiescent() const noexcept {
    return inflight_ == 0 && unsubmitted() == 0 &&
           *cq_head_ == load_acquire(cq_tail_);
  }

  /// Free SQE slots right now.
  [[nodiscard]] unsigned sq_space() const noexcept {
    return sq_entries_ - (*sq_tail_ - load_acquire(sq_head_));
  }

  /// Queue one positional read; caller must ensure sq_space() > 0.
  void push_read(int fd, void* dest, std::uint32_t len, std::uint64_t offset,
                 std::uint64_t user_data) noexcept {
    const std::uint32_t tail = *sq_tail_;
    const std::uint32_t index = tail & sq_mask_;
    io_uring_sqe* sqe = &sqes_[index];
    std::memset(sqe, 0, sizeof *sqe);
    sqe->opcode = IORING_OP_READ;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<std::uint64_t>(dest);
    sqe->len = len;
    sqe->off = offset;
    sqe->user_data = user_data;
    sq_array_[index] = index;
    store_release(sq_tail_, tail + 1);
    ++pending_submit_;
    ++inflight_;
  }

  /// Withdraws the SQEs the kernel has not consumed yet. Without SQPOLL the
  /// kernel reads the submission queue only inside io_uring_enter, so
  /// rewinding the tail to the published head between calls is safe.
  void cancel_unsubmitted() noexcept {
    const unsigned dropped = unsubmitted();
    store_release(sq_tail_, load_acquire(sq_head_));
    pending_submit_ = 0;
    inflight_ -= std::min<std::size_t>(inflight_, dropped);
  }

  /// Submit queued SQEs and wait for at least `min_complete` completions.
  /// Interrupted submits are retried in a loop (never recursively), and the
  /// pending count is re-derived from the ring pointers first: the kernel
  /// may have consumed part of the submission before the signal arrived, so
  /// blindly resubmitting the stale count would over-report.
  repro::Status enter(unsigned min_complete, unsigned max_interrupts,
                      IoStatsCounters* counters) {
    unsigned interrupts = 0;
    for (;;) {
      const int rc = sys_io_uring_enter(ring_fd_, pending_submit_,
                                        min_complete, IORING_ENTER_GETEVENTS);
      if (rc >= 0) {
        pending_submit_ -= std::min(pending_submit_,
                                    static_cast<unsigned>(rc));
        return repro::Status::ok();
      }
      if (errno == EINTR || errno == EAGAIN) {
        const unsigned unsubmitted = *sq_tail_ - load_acquire(sq_head_);
        pending_submit_ = std::min(pending_submit_, unsubmitted);
        counters->interrupts.fetch_add(1, std::memory_order_relaxed);
        if (++interrupts > max_interrupts) {
          return repro::io_error("io_uring_enter interrupted " +
                                 std::to_string(interrupts) +
                                 " times without progress");
        }
        continue;
      }
      return repro::io_error_errno("io_uring_enter", errno);
    }
  }

  /// SQEs pushed but not yet consumed by the kernel (re-derived from the
  /// ring pointers, not the possibly stale pending_submit_ count).
  [[nodiscard]] unsigned unsubmitted() const noexcept {
    return *sq_tail_ - load_acquire(sq_head_);
  }

  /// Pop one completion if available.
  bool pop_completion(io_uring_cqe* out) noexcept {
    const std::uint32_t head = *cq_head_;
    if (head == load_acquire(cq_tail_)) return false;
    *out = cqes_[head & cq_mask_];
    store_release(cq_head_, head + 1);
    if (inflight_ > 0) --inflight_;
    return true;
  }

 private:
  void close() {
    if (sqes_ != nullptr && sqes_ != MAP_FAILED) ::munmap(sqes_, sqe_bytes_);
    if (cq_ring_bytes_ > 0 && cq_ring_ != nullptr && cq_ring_ != MAP_FAILED) {
      ::munmap(cq_ring_, cq_ring_bytes_);
    }
    if (sq_ring_ != nullptr && sq_ring_ != MAP_FAILED) {
      ::munmap(sq_ring_, sq_ring_bytes_);
    }
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  int ring_fd_ = -1;
  unsigned requested_entries_ = 0;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  unsigned pending_submit_ = 0;
  std::size_t inflight_ = 0;

  void* sq_ring_ = nullptr;
  std::size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  std::size_t cq_ring_bytes_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sqe_bytes_ = 0;

  std::uint32_t* sq_head_ = nullptr;
  std::uint32_t* sq_tail_ = nullptr;
  std::uint32_t sq_mask_ = 0;
  std::uint32_t* sq_array_ = nullptr;
  std::uint32_t* cq_head_ = nullptr;
  std::uint32_t* cq_tail_ = nullptr;
  std::uint32_t cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;
};

/// Most idle rings the pool keeps: two per compare worker of an 8-worker
/// daemon. A ring is a few KiB of mappings plus an fd, so the cap only
/// bounds a burst of concurrent backends; rings beyond it are closed.
constexpr std::size_t kMaxIdleRings = 16;

/// Idle rings shared by every UringBackend in the process, keyed by queue
/// depth. A new ring costs io_uring_setup, two or three MAP_POPULATE mmaps
/// and a kernel teardown on close, tens of microseconds that a small
/// stage-2 batch cannot amortize. A backend takes a ring when it opens and
/// hands it back when it is destroyed; only a quiescent ring is kept, so no
/// stale SQE or CQE reaches the next owner. A ring is not tied to the
/// thread that created it: any thread may submit on it, one at a time.
class RingPool {
 public:
  static RingPool& global() {
    static RingPool* pool = new RingPool;  // outlives static backends
    return *pool;
  }

  repro::Result<std::unique_ptr<Ring>> take(unsigned entries) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = idle_.begin(); it != idle_.end(); ++it) {
        if ((*it)->requested_entries() != entries) continue;
        std::unique_ptr<Ring> ring = std::move(*it);
        idle_.erase(it);
        return ring;
      }
    }
    auto ring = std::make_unique<Ring>();
    REPRO_RETURN_IF_ERROR(ring->init(entries));
    return ring;
  }

  /// Keeps `ring` for reuse if it is quiescent and the pool has room;
  /// otherwise the ring is closed.
  void give_back(std::unique_ptr<Ring> ring) {
    if (!ring->quiescent()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (idle_.size() < kMaxIdleRings) idle_.push_back(std::move(ring));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> idle_;
};

class UringBackend final : public IoBackend {
 public:
  ~UringBackend() override {
    if (ring_ != nullptr) RingPool::global().give_back(std::move(ring_));
    if (fd_ >= 0) ::close(fd_);
  }

  repro::Status open_file(const std::filesystem::path& path,
                          const BackendOptions& options) {
    options_ = options;
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
    REPRO_ASSIGN_OR_RETURN(
        ring_, RingPool::global().take(std::max(1U, options.queue_depth)));
    return repro::Status::ok();
  }

  [[nodiscard]] std::uint64_t size() const noexcept override { return size_; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "io_uring";
  }

  [[nodiscard]] IoStats stats() const noexcept override {
    IoStats out = counters_.snapshot();
    if (fallback_ != nullptr) out += fallback_->stats();
    return out;
  }

  repro::Status read_at(std::uint64_t offset,
                        std::span<std::uint8_t> dest) override {
    ReadRequest request{offset, dest};
    return read_batch(std::span<ReadRequest>(&request, 1));
  }

  repro::Status read_batch(std::span<ReadRequest> requests) override {
    if (fallback_ != nullptr) return fallback_->read_batch(requests);

    UringMetrics& metrics = UringMetrics::get();
    std::uint64_t total_bytes = 0;
    for (const auto& request : requests) total_bytes += request.dest.size();
    metrics.read_ops.add(requests.size());
    metrics.read_bytes.add(total_bytes);
    metrics.batches.increment();
    metrics.batch_bytes.record(static_cast<double>(total_bytes));
    Stopwatch batch_watch;
    telemetry::TraceSpan batch_span("io.batch");
    batch_span.arg("backend", std::string_view{"io_uring"})
        .arg("requests", static_cast<std::uint64_t>(requests.size()))
        .arg("bytes", total_bytes);
    struct SecondsRecorder {
      Stopwatch& watch;
      telemetry::Histogram& hist;
      ~SecondsRecorder() { hist.record(watch.seconds()); }
    } seconds_recorder{batch_watch, metrics.batch_seconds};

    for (const auto& request : requests) {
      // Overflow-safe bounds check (offset + len can wrap uint64).
      if (request.dest.size() > size_ ||
          request.offset > size_ - request.dest.size()) {
        return repro::out_of_range("read past EOF of " + path_);
      }
    }

    // Per-request progress; short reads, oversized (> 4 GiB) requests and
    // transient completion errors are resubmitted for the remainder.
    struct Progress {
      std::uint64_t done = 0;
      unsigned interrupts = 0;  // -EINTR/-EAGAIN completions for this request
      unsigned attempts = 1;    // transient -EIO retries consumed
    };
    std::vector<Progress> progress(requests.size());
    const RetryPolicy& policy = options_.retry;

    std::size_t next_to_queue = 0;   // first request not yet queued
    std::size_t finished = 0;
    std::vector<std::size_t> retry;  // continuations + transient retries

    while (finished < requests.size()) {
      // Fill the submission queue: continuations first, then fresh requests.
      while (ring_->sq_space() > 0 &&
             (!retry.empty() || next_to_queue < requests.size())) {
        std::size_t index;
        if (!retry.empty()) {
          index = retry.back();
          retry.pop_back();
        } else {
          index = next_to_queue++;
        }
        ReadRequest& request = requests[index];
        const std::uint64_t done = progress[index].done;
        if (request.dest.size() == done) {  // zero-length request
          ++finished;
          continue;
        }
        ring_->push_read(fd_, request.dest.data() + done,
                         clamp_uring_read_len(request.dest.size() - done),
                         request.offset + done, index);
      }
      metrics.inflight.set(static_cast<double>(ring_->inflight()));

      // One syscall submits the whole batch and waits for >= 1 completion.
      repro::Status entered =
          consume_forced_submit_failure()
              ? repro::io_error("io_uring_enter: forced submit failure "
                                "(testing hook)")
              : ring_->enter(ring_->inflight() > 0 ? 1 : 0,
                             policy.max_interrupts, &counters_);
      if (!entered.is_ok()) {
        return degrade_to_threads(std::move(entered), requests);
      }

      io_uring_cqe cqe;
      while (ring_->pop_completion(&cqe)) {
        const std::size_t index = static_cast<std::size_t>(cqe.user_data);
        if (cqe.res < 0) {
          const int err = -cqe.res;
          if (errno_is_interrupt(err)) {
            counters_.interrupts.fetch_add(1, std::memory_order_relaxed);
            metrics.interrupts.increment();
            if (++progress[index].interrupts > policy.max_interrupts) {
              return fail_batch(repro::io_error(
                  "io_uring read interrupted repeatedly: " + path_));
            }
            retry.push_back(index);
            continue;
          }
          if (policy.retry_transient_io && errno_is_transient_io(err) &&
              progress[index].attempts < policy.max_attempts) {
            counters_.retries.fetch_add(1, std::memory_order_relaxed);
            metrics.retries.increment();
            backoff_sleep(policy, progress[index].attempts);
            ++progress[index].attempts;
            retry.push_back(index);
            continue;
          }
          return fail_batch(
              repro::io_error_errno("io_uring read: " + path_, err));
        }
        if (cqe.res == 0) {
          return fail_batch(repro::io_error("unexpected EOF in " + path_));
        }
        progress[index].done += static_cast<std::uint64_t>(cqe.res);
        if (progress[index].done < requests[index].dest.size()) {
          counters_.short_reads.fetch_add(1, std::memory_order_relaxed);
          metrics.short_reads.increment();
          retry.push_back(index);  // short read: continue where it stopped
        } else {
          progress[index].interrupts = 0;
          ++finished;
        }
      }
      metrics.inflight.set(static_cast<double>(ring_->inflight()));
    }
    return repro::Status::ok();
  }

 private:
  /// Ends a failed batch: reaps every read still in the kernel before
  /// returning `cause`, so no late read lands in a buffer the caller frees
  /// and no stale CQE reaches the ring's next batch or owner. SQEs the
  /// kernel has not consumed are withdrawn rather than submitted. Unlike
  /// degrade_to_threads, io_uring_enter still works here, so the wait
  /// blocks in it. If the wait itself fails, the ring stays non-quiescent
  /// and is closed, not pooled.
  repro::Status fail_batch(repro::Status cause) {
    ring_->cancel_unsubmitted();
    io_uring_cqe cqe;
    for (;;) {
      while (ring_->pop_completion(&cqe)) {
      }
      if (ring_->inflight() == 0) break;
      repro::Status waited =
          ring_->enter(1, options_.retry.max_interrupts, &counters_);
      if (!waited.is_ok()) {
        return cause.with_context("could not reap in-flight reads (" +
                                  waited.to_string() + ")");
      }
    }
    UringMetrics::get().inflight.set(0);
    return cause;
  }

  /// Mid-batch submit failure: switch this backend to a thread-async
  /// fallback over the same file and re-issue the whole batch there (reads
  /// are idempotent). Only safe once no submitted SQE is still in flight —
  /// the kernel would otherwise write the buffers concurrently — so with
  /// reads outstanding we drain the completion queue first and give up if
  /// it does not empty.
  repro::Status degrade_to_threads(repro::Status cause,
                                   std::span<ReadRequest> requests) {
    // SQEs the kernel never consumed are not in flight: they stay inert in
    // the abandoned ring (a failed submit leaves them there), so only
    // submitted-but-uncompleted reads can touch our buffers.
    const unsigned inert = ring_->unsubmitted();
    io_uring_cqe cqe;
    for (int spin = 0; ring_->inflight() > inert && spin < 10000; ++spin) {
      while (ring_->pop_completion(&cqe)) {
      }
      if (ring_->inflight() > inert) std::this_thread::yield();
    }
    if (ring_->inflight() > inert) {
      return cause.with_context("io_uring submit failed with reads in flight");
    }
    // The inert SQEs make the ring unfit for another owner: close it.
    ring_.reset();
    auto fallback = open_backend(path_, BackendKind::kThreadAsync, options_);
    if (!fallback.is_ok()) {
      return cause.with_context("io_uring submit failed and fallback open "
                                "also failed (" +
                                fallback.status().to_string() + ")");
    }
    REPRO_LOG_WARN << "io_uring submit failed (" << cause.to_string()
                   << "); degrading to the threads backend for " << path_;
    counters_.fallbacks.fetch_add(1, std::memory_order_relaxed);
    UringMetrics::get().fallbacks.increment();
    fallback_ = std::move(fallback).value();
    return fallback_->read_batch(requests);
  }

  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string path_;
  BackendOptions options_;
  std::unique_ptr<Ring> ring_;  ///< from RingPool; returned on destruction
  IoStatsCounters counters_;
  std::unique_ptr<IoBackend> fallback_;
};

}  // namespace

bool uring_available() noexcept {
  static const bool available = [] {
    io_uring_params params;
    std::memset(&params, 0, sizeof params);
    const int fd = sys_io_uring_setup(2, &params);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return available;
}

repro::Result<std::unique_ptr<IoBackend>> open_uring_backend(
    const std::filesystem::path& path, const BackendOptions& options) {
  if (g_force_setup_failure.load(std::memory_order_relaxed)) {
    return repro::unsupported("io_uring_setup failed (testing hook)");
  }
  if (!uring_available()) {
    return repro::unsupported("io_uring not available in this environment");
  }
  auto backend = std::make_unique<UringBackend>();
  REPRO_RETURN_IF_ERROR(backend->open_file(path, options));
  return std::unique_ptr<IoBackend>{std::move(backend)};
}

void set_uring_setup_failure_for_testing(bool enabled) noexcept {
  g_force_setup_failure.store(enabled, std::memory_order_relaxed);
}

void set_uring_submit_failures_for_testing(unsigned count) noexcept {
  g_force_submit_failures.store(count, std::memory_order_relaxed);
}

}  // namespace repro::io
