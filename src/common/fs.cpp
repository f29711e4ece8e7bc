#include "common/fs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <random>

#include "common/log.hpp"

namespace repro {

namespace {

/// RAII fd wrapper local to this translation unit.
class Fd {
 public:
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

 private:
  int fd_;
};

std::mutex g_publish_failure_mu;
unsigned g_fail_next_publishes = 0;
std::string g_fail_publish_substring;

/// Consume one forced publish failure if armed and `path` matches.
bool consume_forced_publish_failure(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock(g_publish_failure_mu);
  if (g_fail_next_publishes == 0) return false;
  if (!g_fail_publish_substring.empty() &&
      path.string().find(g_fail_publish_substring) == std::string::npos) {
    return false;
  }
  --g_fail_next_publishes;
  return true;
}

/// The one write loop of both publishes. Appends to `fd` in pieces that end
/// on writeback-slice boundaries, and starts device writeback of each slice
/// as soon as it is complete, while the rest is still being copied in.
class SliceWriter {
 public:
  SliceWriter(int fd, const std::filesystem::path& path)
      : fd_(fd), path_(path) {}

  Status append(std::span<const std::uint8_t> data) {
    while (!data.empty()) {
      const std::size_t room =
          kWritebackSliceBytes - written_ % kWritebackSliceBytes;
      const ssize_t n =
          ::write(fd_, data.data(), std::min(data.size(), room));
      if (n < 0) {
        if (errno == EINTR) continue;
        return io_error_errno("write: " + path_.string(), errno);
      }
      written_ += static_cast<std::uint64_t>(n);
      data = data.subspan(static_cast<std::size_t>(n));
      while (written_ - hinted_ >= kWritebackSliceBytes) {
        // Only a hint: whatever it returns, the publish's fsync decides.
        (void)::sync_file_range(fd_, static_cast<off_t>(hinted_),
                                kWritebackSliceBytes, SYNC_FILE_RANGE_WRITE);
        hinted_ += kWritebackSliceBytes;
      }
    }
    return Status::ok();
  }

 private:
  int fd_;
  const std::filesystem::path& path_;
  std::uint64_t written_ = 0;
  std::uint64_t hinted_ = 0;  ///< end of the last slice handed to writeback
};

/// Same-directory temp name for publishing `path`. The prefix is filtered
/// out by every catalog scan (they match on final suffixes like ".ckpt"),
/// so a crash-orphaned temp file is invisible to readers.
std::filesystem::path temp_sibling(const std::filesystem::path& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path.parent_path() /
         (path.filename().string() + ".tmp-" + std::to_string(::getpid()) +
          "-" + std::to_string(counter.fetch_add(1)));
}

/// fsync the temp file, unlink `stale` if given, rename the temp over
/// `path`, and fsync the parent directory so the rename (and the unlink of a
/// sibling) survives a crash.
Status publish_temp(int temp_fd, const std::filesystem::path& temp,
                    const std::filesystem::path& path,
                    const std::filesystem::path& stale = {}) {
  if (::fsync(temp_fd) != 0) {
    return io_error_errno("fsync: " + temp.string(), errno);
  }
  if (consume_forced_publish_failure(path)) {
    return io_error("publish aborted before rename (testing hook): " +
                    path.string());
  }
  if (!stale.empty() && ::unlink(stale.c_str()) != 0 && errno != ENOENT) {
    return io_error_errno("unlink: " + stale.string(), errno);
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    return io_error_errno(
        "rename: " + temp.string() + " -> " + path.string(), errno);
  }
  // Best-effort: some filesystems refuse O_RDONLY fsync on directories.
  Fd dir(::open(path.parent_path().c_str(), O_RDONLY | O_DIRECTORY));
  if (dir.ok()) ::fsync(dir.get());
  return Status::ok();
}

/// Removes the temp file if publish failed partway (not on the simulated
/// crash path, which must leave the orphan behind like a real crash).
void unlink_quiet(const std::filesystem::path& temp) {
  std::error_code ec;
  std::filesystem::remove(temp, ec);
}

}  // namespace

Status write_file(const std::filesystem::path& path,
                  std::initializer_list<std::span<const std::uint8_t>> parts) {
  const std::filesystem::path temp = temp_sibling(path);
  Fd fd(::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644));
  if (!fd.ok()) {
    return io_error_errno("open for write: " + temp.string(), errno);
  }
  SliceWriter out(fd.get(), temp);
  Status status;
  for (const auto part : parts) {
    status = out.append(part);
    if (!status.is_ok()) break;
  }
  if (status.is_ok()) status = publish_temp(fd.get(), temp, path);
  if (!status.is_ok() &&
      status.message().find("testing hook") == std::string::npos) {
    unlink_quiet(temp);
  }
  return status;
}

Status write_file(const std::filesystem::path& path,
                  std::span<const std::uint8_t> data) {
  return write_file(path, {data});
}

Status copy_file_atomic(const std::filesystem::path& src,
                        const std::filesystem::path& dst,
                        const std::filesystem::path& stale) {
  Fd in(::open(src.c_str(), O_RDONLY));
  if (!in.ok()) {
    return io_error_errno("open for read: " + src.string(), errno);
  }
  const std::filesystem::path temp = temp_sibling(dst);
  Fd out(::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644));
  if (!out.ok()) {
    return io_error_errno("open for write: " + temp.string(), errno);
  }
  SliceWriter writer(out.get(), temp);
  std::vector<std::uint8_t> buffer(1U << 20);
  while (true) {
    const ssize_t n = ::read(in.get(), buffer.data(), buffer.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      unlink_quiet(temp);
      return io_error_errno("read: " + src.string(), errno);
    }
    if (n == 0) break;
    Status status = writer.append(std::span<const std::uint8_t>(
        buffer.data(), static_cast<std::size_t>(n)));
    if (!status.is_ok()) {
      unlink_quiet(temp);
      return status;
    }
  }
  Status status = publish_temp(out.get(), temp, dst, stale);
  if (!status.is_ok() &&
      status.message().find("testing hook") == std::string::npos) {
    unlink_quiet(temp);
  }
  return status;
}

void set_fail_next_publishes_for_testing(unsigned count,
                                         std::string path_substring) {
  std::lock_guard<std::mutex> lock(g_publish_failure_mu);
  g_fail_next_publishes = count;
  g_fail_publish_substring = std::move(path_substring);
}

Result<std::vector<std::uint8_t>> read_file(
    const std::filesystem::path& path) {
  Fd fd(::open(path.c_str(), O_RDONLY));
  if (!fd.ok()) {
    return io_error_errno("open for read: " + path.string(), errno);
  }
  const off_t end = ::lseek(fd.get(), 0, SEEK_END);
  if (end < 0) return io_error_errno("lseek: " + path.string(), errno);
  if (::lseek(fd.get(), 0, SEEK_SET) < 0) {
    return io_error_errno("lseek: " + path.string(), errno);
  }
  std::vector<std::uint8_t> data(static_cast<std::size_t>(end));
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::read(fd.get(), data.data() + got, data.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error_errno("read: " + path.string(), errno);
    }
    if (n == 0) {
      return io_error("unexpected EOF reading " + path.string());
    }
    got += static_cast<std::size_t>(n);
  }
  return data;
}

Result<std::uint64_t> file_size(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return io_error("stat: " + path.string() + ": " + ec.message());
  return static_cast<std::uint64_t>(size);
}

Result<FileIdentity> file_identity(const std::filesystem::path& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT || errno == ENOTDIR) {
      return not_found("no file: " + path.string());
    }
    return io_error_errno("stat: " + path.string(), errno);
  }
  FileIdentity identity;
  identity.device = static_cast<std::uint64_t>(st.st_dev);
  identity.inode = static_cast<std::uint64_t>(st.st_ino);
  identity.size = static_cast<std::uint64_t>(st.st_size);
  identity.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                          1'000'000'000 +
                      st.st_mtim.tv_nsec;
  return identity;
}

Result<bool> path_exists(const std::filesystem::path& path) {
  const Result<FileIdentity> identity = file_identity(path);
  if (identity.is_ok()) return true;
  if (identity.status().code() == StatusCode::kNotFound) return false;
  return identity.status();
}

Status for_each_entry(
    const std::filesystem::path& dir,
    const std::function<Status(const std::filesystem::directory_entry&)>&
        visit) {
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    REPRO_RETURN_IF_ERROR(visit(*it));
  }
  if (ec == std::errc::no_such_file_or_directory ||
      ec == std::errc::not_a_directory) {
    return not_found("no directory: " + dir.string());
  }
  if (ec) return io_error("scanning " + dir.string() + ": " + ec.message());
  return Status::ok();
}

Status evict_page_cache(const std::filesystem::path& path) {
  Fd fd(::open(path.c_str(), O_RDONLY));
  if (!fd.ok()) {
    return io_error_errno("open for eviction: " + path.string(), errno);
  }
  // Dirty pages are not dropped by DONTNEED, so flush first.
  if (::fdatasync(fd.get()) != 0) {
    return io_error_errno("fdatasync: " + path.string(), errno);
  }
  if (::posix_fadvise(fd.get(), 0, 0, POSIX_FADV_DONTNEED) != 0) {
    return io_error("posix_fadvise(DONTNEED) failed for " + path.string());
  }
  return Status::ok();
}

TempDir::TempDir(std::string_view tag) {
  static std::atomic<std::uint64_t> counter{0};
  std::random_device rd;
  const std::uint64_t nonce =
      (static_cast<std::uint64_t>(rd()) << 32) ^ counter.fetch_add(1);
  std::error_code ec;
  const std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) {
    const char* tmpdir = std::getenv("TMPDIR");
    status_ = io_error("no usable temp directory (TMPDIR=" +
                       std::string(tmpdir == nullptr ? "" : tmpdir) +
                       "): " + ec.message());
    return;
  }
  path_ = base / (std::string{tag} + "-" + std::to_string(::getpid()) + "-" +
                  std::to_string(nonce));
  std::filesystem::create_directories(path_, ec);
  if (ec) {
    status_ = io_error("creating temp directory " + path_.string() + ": " +
                       ec.message());
  }
}

TempDir::~TempDir() {
  if (!status_.is_ok()) return;  // nothing was created
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  if (ec) {
    REPRO_LOG_WARN << "failed to remove temp dir " << path_.string() << ": "
                   << ec.message();
  }
}

}  // namespace repro
