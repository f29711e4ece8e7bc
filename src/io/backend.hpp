// I/O backend abstraction for reading checkpoint data from the "PFS".
//
// Stage 2 of the comparison issues many small reads at scattered offsets
// (the chunks the Merkle stage could not prune). The paper evaluates mmap
// against io_uring for this pattern (Figure 9); we ship four backends behind
// one interface so benches can swap them:
//   kPread       — synchronous positional reads (simple baseline)
//   kMmap        — map the file, copy ranges (page-fault driven)
//   kUring       — Linux io_uring via raw syscalls (the paper's choice)
//   kThreadAsync — portable async: a team of I/O threads issuing preads
// open_memory_backend() serves resident bytes through the same interface,
// so a run held in memory (the online comparator's live side) streams
// through stage 2 like a file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "io/retry.hpp"

namespace repro::io {

enum class BackendKind : std::uint8_t {
  kPread = 0,
  kMmap = 1,
  kUring = 2,
  kThreadAsync = 3,
};

std::string_view backend_name(BackendKind kind) noexcept;

/// Parse "pread" / "mmap" / "uring" / "threads".
repro::Result<BackendKind> parse_backend(std::string_view name);

/// One scattered read: fill `dest` from file offset `offset`.
struct ReadRequest {
  std::uint64_t offset = 0;
  std::span<std::uint8_t> dest;
};

class IoBackend {
 public:
  virtual ~IoBackend() = default;

  /// Total file size in bytes.
  [[nodiscard]] virtual std::uint64_t size() const noexcept = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Blocking single read; must fill dest completely (EOF is an error).
  virtual repro::Status read_at(std::uint64_t offset,
                                std::span<std::uint8_t> dest) = 0;

  /// Blocking scattered read of the whole batch. Backends overlap the
  /// requests internally (queue depth / thread team); returns once every
  /// request has completed.
  virtual repro::Status read_batch(std::span<ReadRequest> requests) = 0;

  /// Recovery counters accumulated over this backend's lifetime: retries,
  /// continued short reads, absorbed interrupts, fallback switches. All
  /// zero in a healthy run.
  [[nodiscard]] virtual IoStats stats() const noexcept { return {}; }
};

struct BackendOptions {
  /// io_uring submission-queue depth / thread-team size.
  unsigned queue_depth = 64;
  /// Threads in the kThreadAsync team.
  unsigned io_threads = 4;
  /// Bounds every backend's transient-fault recovery (docs/ROBUSTNESS.md).
  RetryPolicy retry;
};

/// Open `path` read-only with the requested backend. kUring falls back with
/// kUnsupported if the kernel (or sandbox) refuses io_uring_setup; callers
/// that do not care use open_best().
repro::Result<std::unique_ptr<IoBackend>> open_backend(
    const std::filesystem::path& path, BackendKind kind,
    const BackendOptions& options = {});

/// open_backend(), degrading to the thread-async backend when `kind` is
/// unsupported here (io_uring refused by the kernel or a sandbox) and
/// `fallback` is set: logs a warning and counts the switch in `*fallbacks`
/// (when non-null). With `fallback` false the kUnsupported error stands.
repro::Result<std::unique_ptr<IoBackend>> open_backend_with_fallback(
    const std::filesystem::path& path, BackendKind kind,
    const BackendOptions& options, bool fallback,
    std::uint64_t* fallbacks = nullptr);

/// A backend over resident bytes (bounds-checked memcpy reads; no file, no
/// recovery counters). `bytes` must outlive the backend.
std::unique_ptr<IoBackend> open_memory_backend(
    std::span<const std::uint8_t> bytes);

/// io_uring if available, otherwise the thread-async backend.
repro::Result<std::unique_ptr<IoBackend>> open_best(
    const std::filesystem::path& path, const BackendOptions& options = {});

/// True if io_uring_setup works in this process (probed once, cached).
bool uring_available() noexcept;

}  // namespace repro::io
