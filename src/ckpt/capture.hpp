// Asynchronous multi-level checkpoint capture (VELOC-lite).
//
// The paper captures intermediate results with VELOC: the application writes
// its checkpoint to fast node-local storage in the foreground and a
// background thread flushes it to the shared PFS while the simulation
// continues. We reproduce that pipeline and extend it with the paper's
// contribution: the Merkle metadata is built at capture time — while the
// checkpoint bytes are still in memory — so the comparison stage later needs
// no extra pass over the bulk data. The build and the local write only read
// the same resident bytes, so they run at the same time: the calling thread
// builds while an engine-owned writer thread writes, and a capture blocks
// the application for the slower of the two, not their sum.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "ckpt/format.hpp"
#include "ckpt/history.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"
#include "par/exec.hpp"
#include "par/thread_pool.hpp"

namespace repro::ckpt {

struct CaptureOptions {
  /// Parameters of the capture-time Merkle metadata.
  merkle::TreeParams tree;
  /// Build metadata at capture time (the paper's mode). Off = bulk-only
  /// capture; trees must then be built offline (repro-cli tree).
  bool build_metadata = true;
  par::Exec exec = par::Exec::parallel();
};

struct CaptureStats {
  std::uint64_t checkpoints_captured = 0;
  std::uint64_t bytes_captured = 0;
  std::uint64_t metadata_bytes = 0;
  double foreground_seconds = 0;  ///< time the application was blocked
  /// The two halves foreground_seconds overlaps: the level-1 local write
  /// (writer thread) and the tree build + sidecar encoding (calling
  /// thread). The larger one bounds the capture.
  double write_seconds = 0;
  double build_seconds = 0;
  double flush_seconds = 0;  ///< background local -> PFS copy time
};

/// Two-level capture engine: local_dir plays NVMe, the catalog root plays
/// the PFS. One engine per rank (VELOC is per-process too).
class CaptureEngine {
 public:
  CaptureEngine(std::filesystem::path local_dir, HistoryCatalog catalog,
                CaptureOptions options);
  ~CaptureEngine();

  CaptureEngine(const CaptureEngine&) = delete;
  CaptureEngine& operator=(const CaptureEngine&) = delete;

  /// Foreground part of a capture: write the checkpoint to local storage
  /// on the writer thread while this thread builds the Merkle tree from the
  /// same in-memory bytes, then enqueue the PFS flush and return. Blocks for
  /// the slower of the local write and the tree build. Returns only once
  /// the local write has finished (renamed and its directory synced), on
  /// every path; `writer` is not used after that. A write error is returned
  /// before a build error, and after either no flush is enqueued. An
  /// exception in either half is returned as an internal error. With
  /// build_metadata off it blocks for the write alone.
  repro::Status capture(const CheckpointWriter& writer);

  /// Block until every enqueued flush has landed on the PFS.
  repro::Status wait_all();

  /// Snapshot of the counters. By value: the foreground thread and the
  /// background flusher both update stats_, so a reference would race.
  [[nodiscard]] CaptureStats stats() const;
  [[nodiscard]] const HistoryCatalog& catalog() const noexcept {
    return catalog_;
  }

 private:
  std::filesystem::path local_dir_;
  HistoryCatalog catalog_;
  CaptureOptions options_;
  /// Level-1 local writes. One thread per engine, not per capture: with
  /// tracing on, every fresh thread would keep its own span ring (~4 MiB)
  /// allocated for the rest of the process.
  par::ThreadPool writer_{1};
  par::ThreadPool flusher_{1};  ///< background flush thread (one, ordered)
  mutable std::mutex mu_;       ///< guards stats_ and flush_status_
  repro::Status flush_status_;
  CaptureStats stats_;
};

}  // namespace repro::ckpt
