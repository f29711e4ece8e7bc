#include "par/exec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"

namespace repro::par {
namespace {

std::uint64_t regions() {
  return telemetry::MetricsRegistry::global()
      .counter("par.exec.regions")
      .value();
}

class ExecBackends : public ::testing::TestWithParam<bool> {
 protected:
  Exec make_exec() const {
    return GetParam() ? Exec::parallel() : Exec::serial();
  }
};

TEST_P(ExecBackends, ForEachVisitsEveryIndexExactlyOnce) {
  const Exec exec = make_exec();
  for (const std::uint64_t count : {0ULL, 1ULL, 2ULL, 7ULL, 64ULL, 1000ULL}) {
    std::vector<std::atomic<int>> visits(count);
    exec.for_each(0, count, 1, [&](std::uint64_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " count " << count;
    }
  }
}

TEST_P(ExecBackends, ForEachRespectsNonZeroBegin) {
  const Exec exec = make_exec();
  std::vector<std::atomic<int>> visits(100);
  exec.for_each(40, 60, 1, [&](std::uint64_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(visits[i].load(), (i >= 40 && i < 60) ? 1 : 0);
  }
}

TEST_P(ExecBackends, EmptyRangeIsNoop) {
  const Exec exec = make_exec();
  bool called = false;
  exec.for_each(10, 10, 1, [&](std::uint64_t) { called = true; });
  exec.for_each(10, 5, 1, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, ExecBackends,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Parallel" : "Serial";
                         });

TEST(Exec, SerialReportsSerial) {
  EXPECT_TRUE(Exec::serial().is_serial());
  EXPECT_EQ(Exec::serial().ways(), 1U);
  EXPECT_FALSE(Exec::parallel().is_serial());
  EXPECT_GE(Exec::parallel().ways(), 2U);
}

TEST_P(ExecBackends, ForBlocksDynamicTilesRange) {
  const Exec exec = make_exec();
  for (const std::uint64_t count : {1ULL, 5ULL, 17ULL, 256ULL, 1001ULL}) {
    for (const std::uint64_t min_grain : {0ULL, 1ULL, 13ULL, 5000ULL}) {
      std::mutex mu;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
      exec.for_blocks(
          0, count, min_grain, [&](std::uint64_t lo, std::uint64_t hi) {
            std::lock_guard<std::mutex> lock(mu);
            blocks.emplace_back(lo, hi);
          });
      std::sort(blocks.begin(), blocks.end());
      // Claims tile [0, count) exactly once; every claim but the last holds
      // at least min_grain indices.
      std::uint64_t cursor = 0;
      for (const auto& [lo, hi] : blocks) {
        EXPECT_EQ(lo, cursor) << "count " << count << " grain " << min_grain;
        EXPECT_GT(hi, lo);
        if (hi != count) {
          EXPECT_GE(hi - lo, min_grain);
        }
        cursor = hi;
      }
      EXPECT_EQ(cursor, count) << "count " << count << " grain " << min_grain;
    }
  }
}

TEST(Exec, OneClaimRunsOnTheCallingThread) {
  const Exec exec = Exec::parallel();
  const std::uint64_t before = regions();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
  std::vector<std::thread::id> threads;
  exec.for_blocks(10, 1010, 1000, [&](std::uint64_t lo, std::uint64_t hi) {
    blocks.emplace_back(lo, hi);
    threads.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(blocks.size(), 1U);
  EXPECT_EQ(blocks[0].first, 10U);
  EXPECT_EQ(blocks[0].second, 1010U);
  EXPECT_EQ(threads[0], std::this_thread::get_id());
  EXPECT_EQ(regions(), before);  // no fan-out

  // One index more is two claims: a fan-out.
  exec.for_blocks(10, 1011, 1000, [](std::uint64_t, std::uint64_t) {});
  EXPECT_EQ(regions(), before + 1);
}

// Empty and inverted ranges are no-ops: no block runs, and no claim count
// is computed from a zero or wrapped-around range.
TEST(Exec, StaticEntryPointsHandleEmptyAndInvertedRanges) {
  const Exec exec = Exec::parallel();
  bool called = false;
  auto block = [&](std::uint64_t, std::uint64_t) { called = true; };
  exec.for_blocks(7, 7, 1, block);
  exec.for_blocks(7, 3, 1, block);
  exec.for_each(9, 4, 1, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Exec, LargeRangeStress) {
  const Exec exec = Exec::parallel();
  std::atomic<std::uint64_t> sum{0};
  exec.for_each(0, 1 << 20, 1, [&](std::uint64_t i) {
    if ((i & 0xFFF) == 0) sum.fetch_add(i, std::memory_order_relaxed);
  });
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < (1 << 20); i += 0x1000) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace repro::par
