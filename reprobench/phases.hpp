// The three phases every benchmark run executes:
//
//   capture  one rank captures a haccette-shaped checkpoint per iteration
//            through ckpt::CaptureEngine (hash, merkle, ckpt layers)
//   history  cmp::compare_histories over two pre-captured runs, whole and
//            with early exit (ckpt, merkle, io, compare layers)
//   service  an open-loop request mix against a `repro-cli serve` daemon
//            running as its own process (svc layer)
//
// Setup builds every phase's inputs (generate them, write the runs the
// history and service phases compare, start the daemon); it is timed as setup_s and repeated, the last copy is used. A
// run then interleaves the phases in several cycles, so each phase's
// samples span the whole run and slow drift of a shared machine averages
// out; each phase object keeps its samples across cycles and reports once.
// End-to-end metrics go to `e2e`, per-layer metrics (traced pass only) to
// `layer`, and every checked operation to the shared Tally.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "svc/monitor.hpp"

namespace reprobench {

// ---- capture ---------------------------------------------------------------

struct CaptureInputs {
  std::vector<std::vector<float>> fields;  ///< X Y Z VX VY VZ PHI at iter 0
};

CaptureInputs setup_capture(const Config& config);

class CapturePhase {
 public:
  CapturePhase(const Config& config, const CaptureInputs& inputs, Tally& tally);
  ~CapturePhase();
  CapturePhase(const CapturePhase&) = delete;
  CapturePhase& operator=(const CapturePhase&) = delete;

  /// Captures rounds until `budget_s` has passed (at least one round).
  void run(double budget_s, int cycle);
  /// End-to-end metrics from the samples of `cycles`.
  void report(const std::vector<int>& cycles, Metrics& e2e,
              Metrics& layer) const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// ---- history ---------------------------------------------------------------

struct HistoryInputs {
  std::filesystem::path root;  ///< catalog holding runs "A" and "B"
  std::uint32_t ranks = 0;
  std::uint64_t iterations = 0;
  std::uint64_t data_bytes = 0;  ///< per checkpoint
  /// Ground truth per (iteration, rank), index iteration * ranks + rank:
  /// values beyond ε in each chunk.
  std::vector<std::vector<std::uint64_t>> exceeding;
  std::uint64_t first_iteration = 0;  ///< first divergent (iteration, rank)
  std::uint32_t first_rank = 0;

  [[nodiscard]] std::uint64_t total_exceeding(std::uint64_t iteration,
                                              std::uint32_t rank) const;
};

HistoryInputs setup_history(const Config& config);

class HistoryPhase {
 public:
  HistoryPhase(const HistoryInputs& inputs, Tally& tally);
  ~HistoryPhase();
  HistoryPhase(const HistoryPhase&) = delete;
  HistoryPhase& operator=(const HistoryPhase&) = delete;

  void run(double budget_s, int cycle);
  void report(const std::vector<int>& cycles, Metrics& e2e,
              Metrics& layer) const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// ---- service ---------------------------------------------------------------

/// One precomputed WATCH session: the digests a producer would stream for
/// a watched run against reference run `reference`.
struct WatchSession {
  std::string reference;
  std::vector<repro::svc::WatchPushFrame> frames;  ///< iterations 0..n-1
  std::vector<std::uint64_t> diverged_chunks;      ///< per frame; 0 = clean
  std::vector<std::uint64_t> payload_bytes;        ///< encoded push size
};

struct ServiceInputs {
  std::filesystem::path root;    ///< catalog of runs a00..a63, b00..b63
  std::filesystem::path socket;  ///< daemon endpoint
  std::filesystem::path log;     ///< daemon stdout/stderr
  pid_t daemon = -1;
  std::uint32_t pairs = 0;
  std::uint64_t iterations = 0;
  std::uint64_t data_bytes = 0;
  std::vector<bool> divergent_pair;
  /// Ground truth: values beyond ε per (pair, iteration), index
  /// pair * iterations + iteration.
  std::vector<std::uint64_t> exceeding;
  std::vector<std::int64_t> first_divergent;  ///< per pair; -1 = none
  std::vector<WatchSession> watch;
  std::uint64_t sidecar_bytes = 0;
};

/// Generates and writes the service runs, then starts the daemon.
std::unique_ptr<ServiceInputs> setup_service(const Config& config);
/// Drains the daemon (SHUTDOWN, then signals) and reaps it.
void stop_service(ServiceInputs& inputs);

class ServicePhase {
 public:
  ServicePhase(const Config& config, const ServiceInputs& inputs, Tally& tally);
  ~ServicePhase();
  ServicePhase(const ServicePhase&) = delete;
  ServicePhase& operator=(const ServicePhase&) = delete;

  /// One slice of the mix at its fixed offered rate.
  void run(double budget_s, int cycle);
  /// The search for the highest rate that meets the latency limit.
  void search(double budget_s);
  void report(const std::vector<int>& cycles, Metrics& e2e,
              Metrics& layer) const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace reprobench
