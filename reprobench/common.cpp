#include "common.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ckpt/format.hpp"
#include "ckpt/history.hpp"
#include "common/rng.hpp"
#include "merkle/flat.hpp"
#include "sim/workload.hpp"

namespace reprobench {

double now_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string proc_file(pid_t pid, const char* name) {
  const std::string path = pid == 0 ? std::string("/proc/self/") + name
                                    : "/proc/" + std::to_string(pid) + "/" + name;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}
}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double pid_cpu_s(pid_t pid) {
  const std::string stat = proc_file(pid, "stat");
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(stat.substr(close + 1));
  std::string token;
  double ticks = 0;
  for (int field = 3; field <= 15 && fields >> token; ++field) {
    if (field >= 14) ticks += std::strtod(token.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  const std::string status = proc_file(pid, "status");
  const auto at = status.find("VmHWM:");
  if (at == std::string::npos) return 0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

namespace {
double steal_s() {
  std::ifstream in("/proc/stat");
  std::string label;
  double ticks[8] = {};
  in >> label;
  for (double& t : ticks) in >> t;
  return label == "cpu" ? ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK))
                        : 0.0;
}
}  // namespace

StealMeter::StealMeter() : steal0_(steal_s()), wall0_(now_s()) {}

double StealMeter::share() const {
  const double wall = now_s() - wall0_;
  const double cpus = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  return wall > 0 ? (steal_s() - steal0_) / (wall * cpus) : 0.0;
}

void CycleSamples::add(int cycle, double value) {
  const auto index = static_cast<std::size_t>(cycle);
  if (by_cycle_.size() <= index) by_cycle_.resize(index + 1);
  by_cycle_[index].push_back(value);
}

std::vector<double> CycleSamples::of(const std::vector<int>& cycles) const {
  std::vector<double> out;
  for (const int cycle : cycles) {
    const auto index = static_cast<std::size_t>(cycle);
    if (index >= by_cycle_.size()) continue;
    out.insert(out.end(), by_cycle_[index].begin(), by_cycle_[index].end());
  }
  return out;
}

double CycleSamples::sum(const std::vector<int>& cycles) const {
  double total = 0;
  for (const double v : of(cycles)) total += v;
  return total;
}

double CycleSamples::median_of_quantiles(const std::vector<int>& cycles,
                                         double q) const {
  std::vector<double> per_cycle;
  for (const int cycle : cycles) {
    const auto index = static_cast<std::size_t>(cycle);
    if (index < by_cycle_.size() && !by_cycle_[index].empty()) {
      per_cycle.push_back(quantile(by_cycle_[index], q));
    }
  }
  return median(per_cycle);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

double Metrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

bool Metrics::has(const std::string& name) const {
  return values_.count(name) != 0;
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "reprobench: FAILED %s\n", what.c_str());
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  repro::SplitMix64 state(seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                          (b * 0xC2B2AE3D27D4EB4FULL));
  return state.next();
}

double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(mix(seed, a, b) >> 11) * 0x1.0p-53;
}

void fill_base(std::span<float> values, std::uint64_t seed) {
  repro::Xoshiro256 rng(seed);
  for (float& v : values) v = 0.5f + rng.next_float();
}

void drift(std::span<float> values, std::uint64_t seed,
           std::uint64_t iteration) {
  repro::Xoshiro256 rng(mix(seed, iteration, 0x5EED));
  for (float& v : values) {
    const std::uint64_t r = rng.next();
    const float step =
        1e-5f + static_cast<float>(r >> 40) * 0x1.0p-24f * (1e-3f - 1e-5f);
    v += (r & 1) != 0 ? step : -step;
  }
}

void near_boundary(std::span<float> values, std::uint64_t chunk_values,
                   std::span<const std::uint64_t> chunks) {
  const auto nudge = static_cast<float>(0.4 * kEps);
  for (const std::uint64_t chunk : chunks) {
    const std::uint64_t end =
        std::min<std::uint64_t>((chunk + 1) * chunk_values, values.size());
    for (std::uint64_t i = chunk * chunk_values; i < end; i += 64) {
      values[i] += nudge;
    }
  }
}

void diverge(std::span<float> values, std::uint64_t chunk_values,
             std::span<const std::uint64_t> chunks, std::uint64_t stride,
             std::uint64_t seed) {
  for (const std::uint64_t chunk : chunks) {
    const std::uint64_t end =
        std::min<std::uint64_t>((chunk + 1) * chunk_values, values.size());
    const std::uint64_t offset = mix(seed, chunk, 1) % stride;
    for (std::uint64_t i = chunk * chunk_values + offset; i < end;
         i += stride) {
      const double u = unit(seed, chunk, i);
      const auto amount = static_cast<float>(1e-5 + u * 9e-5);
      values[i] += (mix(seed, i, 2) & 1) != 0 ? amount : -amount;
    }
  }
}

std::vector<std::uint64_t> pick_chunks(std::uint64_t num_chunks,
                                       std::uint64_t count,
                                       std::uint64_t run_length,
                                       std::uint64_t seed) {
  run_length = std::max<std::uint64_t>(1, run_length);
  const std::uint64_t slots = num_chunks / run_length;
  const std::uint64_t wanted =
      std::min(slots, (count + run_length - 1) / run_length);
  std::vector<std::uint64_t> order(slots);
  for (std::uint64_t i = 0; i < slots; ++i) order[i] = i;
  for (std::uint64_t i = 0; i < wanted; ++i) {
    const std::uint64_t j = i + mix(seed, i, 3) % (slots - i);
    std::swap(order[i], order[j]);
  }
  std::vector<std::uint64_t> chunks;
  for (std::uint64_t i = 0; i < wanted; ++i) {
    for (std::uint64_t k = 0; k < run_length; ++k) {
      chunks.push_back(order[i] * run_length + k);
    }
  }
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

std::vector<std::uint64_t> exceeding_per_chunk(std::span<const float> a,
                                               std::span<const float> b,
                                               std::uint64_t chunk_values) {
  std::vector<std::uint64_t> counts;
  for (std::uint64_t begin = 0; begin < a.size(); begin += chunk_values) {
    const std::uint64_t len =
        std::min<std::uint64_t>(chunk_values, a.size() - begin);
    counts.push_back(repro::sim::count_exceeding(a.subspan(begin, len),
                                                 b.subspan(begin, len), kEps));
  }
  return counts;
}

std::uint64_t checksum(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) h = (h ^ bytes[i]) * 0x100000001B3ULL;
  return h;
}

namespace {
bool write_bytes(const std::filesystem::path& path,
                 std::span<const std::uint8_t> head,
                 std::span<const std::uint8_t> body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(out);
}
}  // namespace

bool write_checkpoint(const repro::ckpt::HistoryCatalog& catalog,
                      const repro::ckpt::CheckpointWriter& writer,
                      const repro::merkle::TreeParams& params) {
  const repro::ckpt::CheckpointInfo& info = writer.info();
  auto ref = catalog.make_ref(info.run_id, info.iteration, info.rank);
  auto header = repro::ckpt::encode_header(info);
  auto tree = repro::merkle::TreeBuilder(params, repro::par::Exec::parallel())
                  .build(writer.data_section());
  if (!ref.is_ok() || !header.is_ok() || !tree.is_ok()) return false;
  const std::vector<std::uint8_t> sidecar =
      repro::merkle::flat_serialize(tree.value());
  return write_bytes(ref.value().checkpoint_path, header.value(),
                     writer.data_section()) &&
         write_bytes(ref.value().metadata_path, sidecar, {});
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  const std::streamsize size = in.tellg();
  if (size <= 0) return {};
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(bytes.data()), size)) return {};
  return bytes;
}

}  // namespace reprobench
