// Kokkos-substitute bulk-parallel execution engine.
//
// The paper expresses its kernels (chunk hashing, per-level Merkle build,
// level-synchronous BFS, element-wise verification) as data-parallel loops
// over index ranges via Kokkos, targeting GPUs. We express the same kernels
// against this Exec abstraction with two backends:
//   * Exec::serial()   — reference, single-thread (the paper's "CPU" arm)
//   * Exec::parallel() — thread-pool backend (stands in for the GPU arm)
// Swapping the Exec swaps the backend without touching kernel code, which is
// the property the paper gets from Kokkos.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "par/thread_pool.hpp"

namespace repro::par {

class Exec {
 public:
  /// Single-threaded reference backend.
  static Exec serial() { return Exec{nullptr, 1}; }

  /// Pool backend with the default process-wide pool.
  static Exec parallel() {
    return Exec{&default_pool(), default_pool().size()};
  }

  [[nodiscard]] bool is_serial() const noexcept { return pool_ == nullptr; }
  [[nodiscard]] std::size_t ways() const noexcept { return ways_; }

  /// The one parallel loop: body(lo, hi) over blocks that tile [begin, end)
  /// exactly once. Up to ways() workers, the calling thread among them,
  /// claim blocks from a shared counter, so skewed per-index cost does not
  /// convoy them behind the slowest block. `min_grain` is the kernel's
  /// floor: the fewest indices whose work pays for waking a pool thread and
  /// joining it. A claim holds at least that many, and more for a range
  /// that would give each worker more than 8 claims. A serial Exec, or a
  /// range that fits in one claim, runs body(begin, end) on the calling
  /// thread without touching the pool (docs/PERF.md §4).
  template <typename BlockBody>
  void for_blocks(std::uint64_t begin, std::uint64_t end,
                  std::uint64_t min_grain, BlockBody&& body) const {
    run(begin, end, min_grain, std::ref(body));
  }

  /// for_blocks with body(i) per index.
  template <typename Body>
  void for_each(std::uint64_t begin, std::uint64_t end,
                std::uint64_t min_grain, Body&& body) const {
    run(begin, end, min_grain, [&body](std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t i = lo; i < hi; ++i) body(i);
    });
  }

 private:
  Exec(ThreadPool* pool, std::size_t ways) : pool_(pool), ways_(ways) {}

  void run(std::uint64_t begin, std::uint64_t end, std::uint64_t min_grain,
           const std::function<void(std::uint64_t, std::uint64_t)>& block)
      const;

  ThreadPool* pool_;  // nullptr => serial
  std::size_t ways_;
};

}  // namespace repro::par
