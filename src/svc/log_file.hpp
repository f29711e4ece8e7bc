// The service's append-only JSON-lines logs: the daemon's and the router's
// `repro.svc.access` records (docs/OBSERVABILITY.md) and the monitor's
// `repro.divergence.alert` records (docs/FORMATS.md) all go through one
// LogFile each.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "svc/wire.hpp"

namespace repro::svc {

/// One log file, opened once with O_APPEND and never reopened (rotate by
/// copy-and-truncate, or restart the process). A file that does not exist
/// yet is created by the first record. Each record is one write(2) of one
/// whole line with no user-space buffer, so a reader sees it as soon as
/// the write returns. Writers on several threads are serialized.
class LogFile {
 public:
  LogFile() = default;
  LogFile(const LogFile&) = delete;
  LogFile& operator=(const LogFile&) = delete;
  ~LogFile();

  /// Opens `path` for appending. A file that does not exist yet is created
  /// by the first record; until then only its directory is checked (it
  /// must be writable). An empty path leaves the log disabled. Fails,
  /// naming the path, when the file cannot be opened or created.
  repro::Status open(const std::filesystem::path& path);

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

  /// Appends `record` and a newline. A failed write logs a warning and is
  /// otherwise dropped: losing a log line never fails a request.
  void write_line(std::string record);

 private:
  std::filesystem::path path_;
  std::mutex write_mu_;  ///< serializes write_line and the first open
  int fd_ = -1;
};

/// The fields every `repro.svc.access` v1 record carries.
struct AccessFields {
  std::string_view verb;
  WireStatus status = WireStatus::kOk;
  std::uint64_t request_id = 0;
  std::uint64_t conn = 0;
  std::string_view peer;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  double wall_us = 0;
  /// The request's trace-context trailer; invalid when it carried none.
  WireTraceContext trace;
};

/// Opens an access record: `{`, then `schema` through `wall_us`, then
/// `trace_id`/`parent_span_id` when the request carried a trace. The
/// writer appends its own fields with append_kv(first = false) and closes
/// the object.
[[nodiscard]] std::string access_record(const AccessFields& fields);

}  // namespace repro::svc
