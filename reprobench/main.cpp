// reprobench: the end-to-end benchmark harness of reprokit.
//
//   reprobench --workload clustered|sparse --seed N --seconds S --trace 0|1
//              --work-dir DIR --cli PATH/repro-cli --trace-dir DIR
//
// Every run sets up all inputs (kSetupReps times; setup_s is the median),
// then interleaves the service, history and capture phases over kCycles
// cycles of S seconds in all, reports from the cycles the host disturbed
// least, and prints one JSON result line: end-to-end
// metrics when untraced, and when traced the per-layer metrics of a traced
// pass that follows an untraced pass of the same seed, with the tracing
// overhead between them. run.py builds this binary and is the intended
// entry point.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "hash/kernels.hpp"
#include "phases.hpp"
#include "trace.hpp"

namespace reprobench {
namespace {

constexpr int kSetupReps = 3;
constexpr int kCycles = 12;
constexpr int kMaxCycles = 15;
constexpr std::size_t kKeptCycles = 6;
// Shares of a cycle; the rate search of a traced pass runs after the
// cycles, for kSearchShare of --seconds.
constexpr double kCaptureShare = 0.3;
constexpr double kHistoryShare = 0.3;
constexpr double kServiceShare = 0.4;
constexpr double kSearchShare = 0.2;

const std::set<std::string> kHigherIsBetter = {"capture_gbps",
                                               "history_gbps"};
const std::set<std::string> kNotTimes = {"setup_s", "peak_rss_mb",
                                         "svc_peak_rss_mb"};

int usage() {
  std::fprintf(stderr,
               "usage: reprobench --workload clustered|sparse --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --cli REPRO_CLI "
               "--trace-dir DIR\n");
  return 2;
}

struct Inputs {
  CaptureInputs capture;
  HistoryInputs history;
  std::unique_ptr<ServiceInputs> service;
};

/// Flushes earlier writes so their writeback does not stall what follows.
void sync_work_dir(const Config& config) {
  const int dir = ::open(config.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir >= 0) {
    ::syncfs(dir);
    ::close(dir);
  }
}

/// Interleaves the phases over at least kCycles cycles and reports from the
/// kKeptCycles cycles in which the host stole the least CPU time from this
/// virtual machine: on a shared host, steal comes in bursts of milliseconds
/// that stretch every wall-clock timing of the cycle they hit. While fewer
/// than kKeptCycles cycles ran below kQuietSteal, up to kMaxCycles cycles
/// run. Each cycle starts on a quiet disk and with the latency-sensitive
/// service phase; capture, the phase that writes most, runs last.
void run_phases(const Config& config, Inputs& inputs, Metrics& e2e,
                Metrics& layer, Tally& tally) {
  CapturePhase capture(config, inputs.capture, tally);
  HistoryPhase history(inputs.history, tally);
  ServicePhase service(config, *inputs.service, tally);
  const double slice = config.seconds / kCycles;
  std::vector<std::pair<double, int>> steal;  // (share of CPU time, cycle)
  std::size_t quiet = 0;
  for (int cycle = 0;
       cycle < kCycles || (quiet < kKeptCycles && cycle < kMaxCycles); ++cycle) {
    sync_work_dir(config);
    const StealMeter meter;
    service.run(kServiceShare * slice, cycle);
    history.run(kHistoryShare * slice, cycle);
    capture.run(kCaptureShare * slice, cycle);
    steal.emplace_back(meter.share(), cycle);
    if (steal.back().first <= kQuietSteal) ++quiet;
  }
  std::stable_sort(steal.begin(), steal.end());
  std::vector<int> kept;
  std::string log = "reprobench: steal per cycle";
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (i < kKeptCycles) kept.push_back(steal[i].second);
    char entry[48];
    std::snprintf(entry, sizeof(entry), " %d:%.1f%%%s", steal[i].second,
                  steal[i].first * 100, i < kKeptCycles ? "" : " (dropped)");
    log += entry;
  }
  std::fprintf(stderr, "%s\n", log.c_str());
  // The rate search feeds a per-layer metric: its outcome turns on a few
  // probes near the knee and swings with the host's load, too much for an
  // end-to-end bound.
  if (Tracer::get().enabled()) service.search(kSearchShare * config.seconds);
  service.report(kept, e2e, layer);
  history.report(kept, e2e, layer);
  capture.report(kept, e2e, layer);
}

std::string format_metrics(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics.all()) {
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value.first,
                  value.second.c_str());
    out += entry;
    first = false;
  }
  return out + "}";
}

int run(const Config& config) {
  std::fprintf(stderr,
               "reprobench: workload %s seed %llu, %s build, %s kernels, %ld "
               "cores\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               REPROBENCH_BUILD_TYPE,
               std::string(repro::hash::active_kernel_name()).c_str(),
               ::sysconf(_SC_NPROCESSORS_ONLN));
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);

  Inputs inputs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (inputs.service != nullptr) stop_service(*inputs.service);
    const double t0 = now_s();
    inputs.capture = setup_capture(config);
    inputs.history = setup_history(config);
    inputs.service = setup_service(config);
    setup_s.push_back(now_s() - t0);
    if (inputs.service == nullptr) return 1;
  }

  Tally tally;
  Metrics e2e;
  Metrics layer;
  run_phases(config, inputs, e2e, layer, tally);
  e2e.set("setup_s", median(setup_s), "s");

  Metrics result = e2e;
  if (config.trace) {
    Metrics traced;
    Tracer::get().set_enabled(true);
    run_phases(config, inputs, traced, layer, tally);
    Tracer::get().set_enabled(false);

    // Tracing overhead: traced over untraced, oriented so > 1 is slower.
    std::vector<double> ratios;
    std::vector<std::string> preamble = {
        "reprobench traced run: workload " + config.workload + ", seed " +
            std::to_string(config.seed) + ", " + REPROBENCH_BUILD_TYPE +
            " build",
        "",
        "end-to-end metric           untraced       traced   traced/untraced"};
    for (const auto& [name, value] : traced.all()) {
      if (!e2e.has(name) || kNotTimes.count(name) != 0) continue;
      const double untraced = e2e.get(name);
      if (untraced <= 0 || value.first <= 0) continue;
      const double ratio = kHigherIsBetter.count(name) != 0
                               ? untraced / value.first
                               : value.first / untraced;
      ratios.push_back(ratio);
      char line[160];
      std::snprintf(line, sizeof(line), "%-24s %12.4g %12.4g %12.3f", name.c_str(),
                    untraced, value.first, ratio);
      preamble.emplace_back(line);
    }
    const double overhead = median(ratios);
    layer.set("trace.overhead_ratio", overhead, "ratio");
    char line[96];
    std::snprintf(line, sizeof(line), "median slowdown from tracing: %.4f",
                  overhead);
    preamble.emplace_back(line);
    const std::string stem =
        config.workload + "-seed" + std::to_string(config.seed);
    Tracer::get().write(config.trace_dir / (stem + ".spans.jsonl"),
                        config.trace_dir / (stem + ".summary.txt"), preamble);
    std::fprintf(stderr, "reprobench: spans and self times in %s\n",
                 (config.trace_dir / (stem + ".summary.txt")).c_str());
    result = layer;
  } else {
    result.set("peak_rss_mb", peak_rss_mb(0), "MiB");
  }

  stop_service(*inputs.service);
  std::filesystem::remove_all(config.work_dir, ec);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()),
              format_metrics(result).c_str());
  return 0;
}

}  // namespace
}  // namespace reprobench

int main(int argc, char** argv) {
  using reprobench::Config;
  Config config;
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--cli") {
      config.cli = value;
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      return reprobench::usage();
    }
  }
  if (config.workload == "clustered") {
    config.shape = reprobench::Shape::kClustered;
  } else if (config.workload == "sparse") {
    config.shape = reprobench::Shape::kSparse;
  } else {
    return reprobench::usage();
  }
  if ((trace != "0" && trace != "1") || config.seconds <= 0 ||
      config.work_dir.empty() || config.cli.empty() || config.trace_dir.empty()) {
    return reprobench::usage();
  }
  config.trace = trace == "1";
  return reprobench::run(config);
}
