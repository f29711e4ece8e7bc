#include "ckpt/history.hpp"

#include <algorithm>
#include <charconv>

#include "common/fs.hpp"

namespace repro::ckpt {

namespace {

/// Parse "<prefix><number>" -> number.
bool parse_tagged(std::string_view text, std::string_view prefix,
                  std::uint64_t* out) {
  if (text.size() <= prefix.size() || !text.starts_with(prefix)) return false;
  const auto* begin = text.data() + prefix.size();
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end;
}

/// Whether a listed entry is a directory (symlinks followed), from the type
/// the scan cached where it can. A dangling symlink is not one; any other
/// failed probe (a symlink loop, a target it may not search) is an error
/// that names the entry.
repro::Result<bool> entry_is_directory(
    const std::filesystem::directory_entry& entry) {
  std::error_code ec;
  const bool directory = entry.is_directory(ec);
  if (ec && ec != std::errc::no_such_file_or_directory &&
      ec != std::errc::not_a_directory) {
    return repro::io_error("probing " + entry.path().string() + ": " +
                           ec.message());
  }
  return directory;
}

/// A checkpoint's (iteration, rank) slot, the order every list is kept in.
std::pair<std::uint64_t, std::uint32_t> slot(const CheckpointRef& ref) {
  return {ref.iteration, ref.rank};
}

}  // namespace

CheckpointRef HistoryCatalog::ref(const std::string& run_id,
                                  std::uint64_t iteration,
                                  std::uint32_t rank) const {
  CheckpointRef out;
  out.run_id = run_id;
  out.iteration = iteration;
  out.rank = rank;
  const auto dir = root_ / run_id / ("iter" + std::to_string(iteration));
  out.checkpoint_path = dir / ("rank" + std::to_string(rank) + ".ckpt");
  out.metadata_path = dir / ("rank" + std::to_string(rank) + ".rmrk");
  return out;
}

repro::Result<CheckpointRef> HistoryCatalog::make_ref(
    const std::string& run_id, std::uint64_t iteration,
    std::uint32_t rank) const {
  CheckpointRef out = ref(run_id, iteration, rank);
  std::error_code ec;
  std::filesystem::create_directories(out.checkpoint_path.parent_path(), ec);
  if (ec) {
    return repro::io_error("mkdir " +
                           out.checkpoint_path.parent_path().string() + ": " +
                           ec.message());
  }
  return out;
}

repro::Result<std::vector<std::string>> HistoryCatalog::runs() const {
  std::vector<std::string> out;
  REPRO_RETURN_IF_ERROR(repro::for_each_entry(
      root_, [&](const std::filesystem::directory_entry& entry) {
        REPRO_ASSIGN_OR_RETURN(const bool directory,
                               entry_is_directory(entry));
        if (directory) out.push_back(entry.path().filename().string());
        return repro::Status::ok();
      }));
  std::sort(out.begin(), out.end());
  return out;
}

repro::Result<std::vector<CheckpointRef>> HistoryCatalog::checkpoints(
    const std::string& run_id) const {
  std::vector<CheckpointRef> out;
  const auto add_iteration = [&](const std::filesystem::directory_entry&
                                     iter_entry) -> repro::Status {
    std::uint64_t iteration = 0;
    if (!parse_tagged(iter_entry.path().filename().string(), "iter",
                      &iteration)) {
      return repro::Status::ok();
    }
    REPRO_ASSIGN_OR_RETURN(const bool directory,
                           entry_is_directory(iter_entry));
    if (!directory) return repro::Status::ok();
    const repro::Status listed = repro::for_each_entry(
        iter_entry.path(), [&](const std::filesystem::directory_entry& entry) {
          const auto filename = entry.path().filename().string();
          std::uint64_t rank = 0;
          if (filename.ends_with(".ckpt") &&
              parse_tagged(filename.substr(0, filename.size() - 5), "rank",
                           &rank)) {
            out.push_back(
                ref(run_id, iteration, static_cast<std::uint32_t>(rank)));
          }
          return repro::Status::ok();
        });
    // An iteration directory gone by the time it is listed holds nothing,
    // like a dangling link; only the run directory's absence is NOT_FOUND.
    return listed.code() == repro::StatusCode::kNotFound ? repro::Status::ok()
                                                         : listed;
  };
  const auto run_dir = root_ / run_id;
  const repro::Status scanned = repro::for_each_entry(run_dir, add_iteration);
  if (scanned.code() == repro::StatusCode::kNotFound) {
    return repro::not_found("no run directory: " + run_dir.string());
  }
  REPRO_RETURN_IF_ERROR(scanned);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return slot(a) < slot(b);
  });
  return out;
}

repro::Result<std::vector<CheckpointPair>> HistoryCatalog::pair_runs(
    const std::string& run_a, const std::string& run_b) const {
  REPRO_ASSIGN_OR_RETURN(PairingReport pairing,
                         pair_runs_lenient(run_a, run_b));
  if (!pairing.ragged()) return std::move(pairing.pairs);
  // Name the first one-sided checkpoint in (iteration, rank) order.
  const auto& only_a = pairing.only_in_a;
  const auto& only_b = pairing.only_in_b;
  const CheckpointRef& first =
      only_b.empty() || (!only_a.empty() && slot(only_a[0]) < slot(only_b[0]))
          ? only_a[0]
          : only_b[0];
  return repro::failed_precondition(
      "histories are not aligned: iter" + std::to_string(first.iteration) +
      "/rank" + std::to_string(first.rank) + " exists only in run " +
      first.run_id + " (one-sided checkpoints: " +
      std::to_string(only_a.size() + only_b.size()) + ")");
}

repro::Result<PairingReport> HistoryCatalog::pair_runs_lenient(
    const std::string& run_a, const std::string& run_b) const {
  REPRO_ASSIGN_OR_RETURN(const std::vector<CheckpointRef> list_a,
                         checkpoints(run_a));
  REPRO_ASSIGN_OR_RETURN(const std::vector<CheckpointRef> list_b,
                         checkpoints(run_b));

  // Both lists are sorted by (iteration, rank): a single merge pass splits
  // them into matched pairs and one-sided leftovers.
  PairingReport report;
  report.pairs.reserve(std::min(list_a.size(), list_b.size()));
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < list_a.size() && ib < list_b.size()) {
    if (slot(list_a[ia]) == slot(list_b[ib])) {
      report.pairs.push_back({list_a[ia], list_b[ib]});
      ++ia;
      ++ib;
    } else if (slot(list_a[ia]) < slot(list_b[ib])) {
      report.only_in_a.push_back(list_a[ia++]);
    } else {
      report.only_in_b.push_back(list_b[ib++]);
    }
  }
  for (; ia < list_a.size(); ++ia) report.only_in_a.push_back(list_a[ia]);
  for (; ib < list_b.size(); ++ib) report.only_in_b.push_back(list_b[ib]);
  return report;
}

}  // namespace repro::ckpt
