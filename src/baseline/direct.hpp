// The Direct baseline (Section 3.2.2): optimized pair-wise floating-point
// comparison.
//
// Unlike AllClose this is a serious competitor: it locates differences, is
// parallelized over the executor, and streams both files through the same
// asynchronous I/O machinery (io_uring et al.) as our method's stage 2.
// What it lacks is exactly the paper's contribution — the Merkle metadata
// that lets a comparison skip reading unchanged data. Direct always reads
// 100% of both checkpoints.
#pragma once

#include <cstdint>
#include <filesystem>

#include "common/status.hpp"
#include "compare/report.hpp"
#include "io/backend.hpp"
#include "io/stream.hpp"
#include "par/exec.hpp"

namespace repro::baseline {

struct DirectOptions {
  double error_bound = 1e-6;
  io::BackendKind backend = io::BackendKind::kUring;
  bool backend_fallback = true;
  io::BackendOptions backend_options;
  io::StreamOptions stream;
  par::Exec exec = par::Exec::parallel();
  bool collect_diffs = false;
  std::size_t max_diffs = 1024;
  bool evict_cache = false;
};

/// Stream-compare the full data sections of two checkpoints. Returns a
/// CompareReport with the stage-1 fields zeroed (there is no metadata) and
/// every byte charged to compare_direct/read.
repro::Result<cmp::CompareReport> direct_compare(
    const std::filesystem::path& checkpoint_a,
    const std::filesystem::path& checkpoint_b, const DirectOptions& options);

}  // namespace repro::baseline
