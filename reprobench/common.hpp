// Shared pieces of the end-to-end benchmark: run configuration, clocks,
// /proc readers, statistics, the metric sink, the correctness tally and the
// input generator every phase draws its data from.
//
// Ground truth comes from the generator alone: it knows which values it
// moved and by how much, and counts exceedances with sim::count_exceeding
// on the arrays it generated. No verdict is checked against another code
// path of the program under test.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace repro::ckpt {
class CheckpointWriter;
class HistoryCatalog;
}  // namespace repro::ckpt
namespace repro::merkle {
struct TreeParams;
}  // namespace repro::merkle

namespace reprobench {

/// Error bound every phase captures and compares with.
inline constexpr double kEps = 1e-6;

/// How run B departs from run A. Both workloads share everything else.
enum class Shape {
  kClustered,  ///< early divergence in contiguous regions, growing to ~half
  kSparse,     ///< late divergence in a few isolated values
};

struct Config {
  std::string workload;
  Shape shape = Shape::kClustered;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir;   ///< scratch inputs, removed at exit
  std::filesystem::path cli;        ///< repro-cli binary (the daemon)
  std::filesystem::path trace_dir;  ///< where a traced run writes spans
};

// ---- clocks and process accounting ----------------------------------------

double now_s();          ///< steady clock, seconds
double thread_cpu_s();   ///< CPU time of the calling thread
double process_cpu_s();  ///< CPU time of this process, all threads
/// utime + stime of `pid` from /proc/<pid>/stat, in seconds.
double pid_cpu_s(pid_t pid);
/// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB.
double peak_rss_mb(pid_t pid);
/// Share of this virtual machine's CPU time its host stole (the steal
/// column of /proc/stat) since construction.
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double share() const;

 private:
  double steal0_;
  double wall0_;
};

/// A steal share below which a host counts as quiet.
inline constexpr double kQuietSteal = 0.02;

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Samples kept per measurement cycle, so a run can report from the cycles
/// the host did not disturb.
class CycleSamples {
 public:
  void add(int cycle, double value);
  /// Every sample of the given cycles.
  [[nodiscard]] std::vector<double> of(const std::vector<int>& cycles) const;
  /// Sum of the samples of the given cycles.
  [[nodiscard]] double sum(const std::vector<int>& cycles) const;
  /// Median over the given cycles of each cycle's q-quantile.
  [[nodiscard]] double median_of_quantiles(const std::vector<int>& cycles,
                                           double q) const;

 private:
  std::vector<std::vector<double>> by_cycle_;
};

// ---- results --------------------------------------------------------------

/// Named metrics with units, printed as the run's result.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  all() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Operations attempted and failed. A failure is an error from the program
/// or an output that disagrees with the generator's ground truth.
class Tally {
 public:
  /// Counts one operation; logs the first few failures to stderr.
  void check(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- input generation -----------------------------------------------------

/// Deterministic 64-bit mix of (seed, a, b): every generated value is a pure
/// function of the run seed and its coordinates.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b);
/// Uniform double in [0, 1) from mix().
double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// O(1) base values (so an absolute ε of 1e-6 bites as on HACC fields).
void fill_base(std::span<float> values, std::uint64_t seed);
/// The application's own evolution between iterations: every value moves by
/// a signed amount in [1e-5, 1e-3], i.e. well beyond ε, so every chunk of
/// consecutive checkpoints differs.
void drift(std::span<float> values, std::uint64_t seed,
           std::uint64_t iteration);
/// Hash false positives: every 64th value of the chosen chunks moves by
/// 0.4ε. That never exceeds ε but sometimes crosses a quantization cell, so
/// the chunk's digest differs while it holds no real difference.
void near_boundary(std::span<float> values, std::uint64_t chunk_values,
                   std::span<const std::uint64_t> chunks);
/// Real divergence: in each chosen chunk, one value in `stride` moves by a
/// signed amount in [1e-5, 1e-4] (at least 10ε).
void diverge(std::span<float> values, std::uint64_t chunk_values,
             std::span<const std::uint64_t> chunks, std::uint64_t stride,
             std::uint64_t seed);

/// `count` distinct chunk indices below `num_chunks`, sorted: either in
/// contiguous runs of `run_length` (clustered) or scattered.
std::vector<std::uint64_t> pick_chunks(std::uint64_t num_chunks,
                                       std::uint64_t count,
                                       std::uint64_t run_length,
                                       std::uint64_t seed);

/// Per-chunk ground truth between two equally sized arrays: the number of
/// values beyond ε in each chunk, counted with sim::count_exceeding.
std::vector<std::uint64_t> exceeding_per_chunk(std::span<const float> a,
                                               std::span<const float> b,
                                               std::uint64_t chunk_values);

/// 64-bit checksum of a byte range, for checking published bytes.
std::uint64_t checksum(std::span<const std::uint8_t> bytes);

/// Writes a setup input into `catalog` as a capture would publish it: the
/// checkpoint file and its flat sidecar, built with the program's own
/// encoders, but without the per-file fsync of a durable publish, so set-up
/// time does not depend on the disk's flush latency.
bool write_checkpoint(const repro::ckpt::HistoryCatalog& catalog,
                      const repro::ckpt::CheckpointWriter& writer,
                      const repro::merkle::TreeParams& params);

/// Reads a whole file; empty on error.
std::vector<std::uint8_t> read_file(const std::filesystem::path& path);

}  // namespace reprobench
