#include "cluster/scaling.hpp"

#include <atomic>
#include <mutex>
#include <thread>

#include "common/timer.hpp"

namespace repro::cluster {

repro::Result<ScalingResult> run_scaling(
    std::span<const ckpt::CheckpointPair> pairs,
    const ScalingOptions& options) {
  const unsigned workers = std::max(1U, options.num_processes);

  ScalingResult result;
  std::atomic<std::size_t> next_pair{0};
  std::mutex mu;
  repro::Status first_error;

  Stopwatch wall;
  std::vector<std::thread> processes;
  processes.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    processes.emplace_back([&] {
      // Per-process accumulation, merged under the lock at the end.
      ScalingResult local;
      repro::Status status;
      for (;;) {
        const std::size_t index =
            next_pair.fetch_add(1, std::memory_order_relaxed);
        if (index >= pairs.size()) break;
        const ckpt::CheckpointPair& pair = pairs[index];

        repro::Result<cmp::CompareReport> report =
            repro::internal_error("unreached");
        if (options.method == Method::kOurs) {
          cmp::CompareOptions ours = options.ours;
          ours.exec = par::Exec::serial();
          report = cmp::compare_pair(pair, ours);
        } else {
          baseline::DirectOptions direct = options.direct;
          direct.exec = par::Exec::serial();
          report = baseline::direct_compare(pair.run_a.checkpoint_path,
                                            pair.run_b.checkpoint_path,
                                            direct);
        }
        if (!report.is_ok()) {
          status = report.status();
          break;
        }
        const cmp::CompareReport& r = report.value();
        local.pairs_compared += 1;
        local.total_bytes += r.data_bytes;
        local.values_compared += r.values_compared;
        local.values_exceeding += r.values_exceeding;
        local.bytes_read_per_file += r.bytes_read_per_file;
      }
      std::lock_guard<std::mutex> lock(mu);
      result.pairs_compared += local.pairs_compared;
      result.total_bytes += local.total_bytes;
      result.values_compared += local.values_compared;
      result.values_exceeding += local.values_exceeding;
      result.bytes_read_per_file += local.bytes_read_per_file;
      if (first_error.is_ok() && !status.is_ok()) {
        first_error = std::move(status);
      }
    });
  }
  for (auto& process : processes) process.join();
  result.wall_seconds = wall.seconds();

  if (!first_error.is_ok()) return first_error;
  return result;
}

}  // namespace repro::cluster
