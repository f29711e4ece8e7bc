#include "par/exec.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace repro::par {
namespace {

telemetry::Counter& regions_counter() {
  static telemetry::Counter& counter =
      telemetry::MetricsRegistry::global().counter("par.exec.regions");
  return counter;
}

}  // namespace

void Exec::run(
    std::uint64_t begin, std::uint64_t end, std::uint64_t min_grain,
    const std::function<void(std::uint64_t, std::uint64_t)>& block) const {
  if (end <= begin) return;
  const std::uint64_t count = end - begin;
  // 8 claims per worker: fine enough to absorb 8x cost skew between blocks,
  // coarse enough that the atomic RMW per claim is noise. The kernel's floor
  // keeps every claim worth a pool wake-up.
  const std::uint64_t grain =
      std::max<std::uint64_t>({1, min_grain, count / (8 * ways_)});
  if (is_serial() || count <= grain) {
    block(begin, end);
    return;
  }

  regions_counter().increment();
  telemetry::TraceSpan region_span("exec.region");
  region_span.arg("count", count).arg("grain", grain);

  std::atomic<std::uint64_t> next{begin};
  auto drain = [&] {
    telemetry::TraceSpan span("exec.block");
    for (;;) {
      const std::uint64_t lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      block(lo, std::min(lo + grain, end));
    }
  };

  // At least two claims, so at least one helper.
  const std::uint64_t claims = (count + grain - 1) / grain;
  const std::size_t helpers =
      static_cast<std::size_t>(std::min<std::uint64_t>(ways_, claims)) - 1;
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t pending = helpers;
  for (std::size_t w = 0; w < helpers; ++w) {
    pool_->submit([&] {
      drain();
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) done_cv.notify_one();
    });
  }
  drain();
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return pending == 0; });
}

}  // namespace repro::par
