// Filesystem helpers: whole-file read/write, unique temp directories for
// tests/benches, and page-cache eviction (the vmtouch -e equivalent the paper
// uses between cold-cache measurements).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace repro {

/// Write the concatenation of `parts` to `path`, crash-consistently: the
/// bytes go to a same-directory temp file which is fsync'd and atomically
/// renamed over `path` (then the directory entry is made durable too). A
/// reader — or a restart after a crash at any point — sees either the old
/// content or the complete new content, never a torn prefix. Each part is
/// written from where it lies; nothing is concatenated in memory. Parent
/// dir must exist.
Status write_file(const std::filesystem::path& path,
                  std::initializer_list<std::span<const std::uint8_t>> parts);

/// write_file of one buffer.
Status write_file(const std::filesystem::path& path,
                  std::span<const std::uint8_t> data);

/// Copy `src` to `dst` with the same temp + fsync + rename publish protocol
/// as write_file, streaming in bounded buffers (no whole-file allocation).
/// A non-empty `stale` names a sibling of `dst` that must not outlive the
/// old `dst` (its sidecar, say). It is unlinked after the copy is fsync'd
/// and just before the rename, so the directory fsync that makes the rename
/// durable makes the unlink durable too, and a copy that fails leaves it.
Status copy_file_atomic(const std::filesystem::path& src,
                        const std::filesystem::path& dst,
                        const std::filesystem::path& stale = {});

/// Both publishes write through one loop that, after every
/// kWritebackSliceBytes, asks the kernel to start writing that slice to the
/// device (sync_file_range SYNC_FILE_RANGE_WRITE). The fsync before the
/// rename then waits only for the tail. The hint is not a durability step:
/// its result is ignored and the fsync stays.
inline constexpr std::size_t kWritebackSliceBytes = std::size_t{4} << 20;

/// Test-only: make the next `count` atomic publishes (write_file /
/// copy_file_atomic) fail *after* the temp file is written but *before* the
/// rename — simulating a crash mid-publish. The orphaned temp file is left
/// behind, as a real crash would leave it. A non-empty `path_substring`
/// restricts the failures to destinations containing it (so a test can
/// crash the PFS flush without tripping unrelated writes).
void set_fail_next_publishes_for_testing(unsigned count,
                                         std::string path_substring = "");

/// Read the whole file into a byte vector.
Result<std::vector<std::uint8_t>> read_file(const std::filesystem::path& path);

/// File size in bytes.
Result<std::uint64_t> file_size(const std::filesystem::path& path);

/// What a path names right now, from one stat: device, inode, size and
/// modification time. A publish (temp + rename) gives the path a new inode,
/// so a changed identity means the bytes behind the path were replaced.
struct FileIdentity {
  std::uint64_t device = 0;
  std::uint64_t inode = 0;
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;

  bool operator==(const FileIdentity&) const = default;
};

/// One stat of `path`; NOT_FOUND when nothing is there.
Result<FileIdentity> file_identity(const std::filesystem::path& path);

/// Whether anything is at `path` (symlinks followed), from one stat:
/// false when nothing is there, and an IO_ERROR that names the path when
/// the stat itself fails (a symlink loop, a parent it may not search).
Result<bool> path_exists(const std::filesystem::path& path);

/// Calls `visit` on each entry of directory `dir`, in the order the OS
/// lists them, and stops at the first error it returns. A scan that fails
/// is NOT_FOUND when `dir` is missing or not a directory, and an IO_ERROR
/// that names it otherwise.
Status for_each_entry(
    const std::filesystem::path& dir,
    const std::function<Status(const std::filesystem::directory_entry&)>&
        visit);

/// Drop `path`'s pages from the OS page cache (POSIX_FADV_DONTNEED after
/// fsync) so a following read is cold, mirroring the paper's `vmtouch -e`.
Status evict_page_cache(const std::filesystem::path& path);

/// Creates a unique directory under the system temp dir and removes it (and
/// everything inside) on destruction. Used by tests, benches and the CLI's
/// node-local capture tier.
class TempDir {
 public:
  /// `tag` is embedded in the directory name for debuggability. A temp dir
  /// that cannot be found or created is reported by status(), not thrown.
  explicit TempDir(std::string_view tag = "reprokit");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Whether the directory exists; the error names the directory if not.
  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// path() / relative.
  [[nodiscard]] std::filesystem::path file(std::string_view relative) const {
    return path_ / relative;
  }

 private:
  std::filesystem::path path_;
  Status status_;
};

}  // namespace repro
