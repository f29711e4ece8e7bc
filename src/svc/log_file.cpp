#include "svc/log_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/json.hpp"
#include "common/log.hpp"
#include "io/retry.hpp"
#include "telemetry/trace.hpp"

namespace repro::svc {

LogFile::~LogFile() {
  if (fd_ >= 0) ::close(fd_);
}

repro::Status LogFile::open(const std::filesystem::path& path) {
  if (path.empty()) return repro::Status::ok();
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    int err = errno;
    if (err == ENOENT) {
      // The file appears with its first record (a clean WATCH run leaves
      // no alert log); until then its directory must be able to take it.
      const std::filesystem::path dir =
          path.has_parent_path() ? path.parent_path() : ".";
      err = ::access(dir.c_str(), W_OK | X_OK) == 0 ? 0 : errno;
    }
    if (err != 0) {
      return repro::internal_error("cannot open log " + path.string() +
                                   ": " + std::strerror(err));
    }
  }
  path_ = path;
  return repro::Status::ok();
}

void LogFile::write_line(std::string record) {
  if (path_.empty()) return;
  record += '\n';
  std::lock_guard<std::mutex> lock(write_mu_);
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
  }
  // One write(2) per record; the loop only finishes a short write, which
  // the lock keeps from interleaving with another writer's line.
  std::size_t written = 0;
  while (fd_ >= 0 && written < record.size()) {
    const ssize_t n =
        ::write(fd_, record.data() + written, record.size() - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
    } else if (n == 0 || !io::errno_is_interrupt(errno)) {
      break;
    }
  }
  if (written < record.size()) {
    REPRO_LOG_WARN << "log write to " << path_.string()
                   << " failed: " << std::strerror(errno);
  }
}

std::string access_record(const AccessFields& fields) {
  std::string out = "{";
  bool first = true;
  append_kv(out, "schema", "repro.svc.access", &first);
  append_kv(out, "version", std::uint64_t{1}, &first);
  append_kv(out, "verb", fields.verb, &first);
  append_kv(out, "status", wire_status_name(fields.status), &first);
  append_kv(out, "request_id", fields.request_id, &first);
  append_kv(out, "conn", fields.conn, &first);
  append_kv(out, "peer", fields.peer, &first);
  append_kv(out, "bytes_in", fields.bytes_in, &first);
  append_kv(out, "bytes_out", fields.bytes_out, &first);
  append_kv(out, "wall_us", fields.wall_us, &first);
  if (fields.trace.valid()) {
    const WireTraceContext& trace = fields.trace;
    append_kv(out, "trace_id",
              telemetry::TraceContext{trace.trace_hi, trace.trace_lo, 0}
                  .trace_id_hex(),
              &first);
    append_kv(out, "parent_span_id",
              telemetry::span_id_hex(trace.parent_span_id), &first);
  }
  return out;
}

}  // namespace repro::svc
