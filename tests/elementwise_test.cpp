#include "compare/elementwise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "telemetry/metrics.hpp"

namespace repro::cmp {
namespace {

/// Values in the inputs that must take the multi-claim schedule: more than
/// two claims, so the Parallel instantiation runs the concurrent merge and
/// prune on the pool instead of one claim on the calling thread.
constexpr std::size_t kManyValues = 2 * kMinValuesPerClaim + 1000;

std::uint64_t exec_regions() {
  return telemetry::MetricsRegistry::global()
      .counter("par.exec.regions")
      .value();
}

std::span<const std::uint8_t> as_bytes(const std::vector<float>& values) {
  return {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size() * sizeof(float)};
}

std::span<const std::uint8_t> as_bytes(const std::vector<double>& values) {
  return {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size() * sizeof(double)};
}

class ElementwiseBackends : public ::testing::TestWithParam<bool> {
 protected:
  ElementwiseOptions options() const {
    ElementwiseOptions opts;
    opts.exec = GetParam() ? par::Exec::parallel() : par::Exec::serial();
    return opts;
  }

  /// Parallel must have fanned out onto the pool since `regions_before`;
  /// Serial never touches it.
  void expect_fan_out(std::uint64_t regions_before) const {
    if (GetParam()) {
      EXPECT_GT(exec_regions(), regions_before);
    } else {
      EXPECT_EQ(exec_regions(), regions_before);
    }
  }
};

TEST_P(ElementwiseBackends, CountsMatchScalarReference) {
  repro::Xoshiro256 rng(1);
  std::vector<float> run_a(kManyValues);
  std::vector<float> run_b(kManyValues);
  for (std::size_t i = 0; i < run_a.size(); ++i) {
    run_a[i] = rng.next_float();
    run_b[i] = run_a[i] + (rng.next_float() - 0.5f) * 1e-3f;
  }
  const double eps = 1e-4;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < run_a.size(); ++i) {
    if (std::abs(static_cast<double>(run_a[i]) -
                 static_cast<double>(run_b[i])) > eps) {
      ++expected;
    }
  }
  const std::uint64_t regions = exec_regions();
  const auto result =
      compare_region(as_bytes(run_a), as_bytes(run_b),
                     merkle::ValueKind::kF32, eps, 0, options(), nullptr);
  EXPECT_EQ(result.values_compared, kManyValues);
  EXPECT_EQ(result.values_exceeding, expected);
  EXPECT_GT(expected, 0U);  // the workload actually had differences
  expect_fan_out(regions);
}

TEST_P(ElementwiseBackends, IdenticalBuffersNoDiffs) {
  const std::vector<float> values(1000, 3.14f);
  const auto result =
      compare_region(as_bytes(values), as_bytes(values),
                     merkle::ValueKind::kF32, 1e-7, 0, options(), nullptr);
  EXPECT_EQ(result.values_exceeding, 0U);
}

TEST_P(ElementwiseBackends, CollectsDiffIndicesWithBase) {
  // One diff in the first claim, one in the last.
  const std::size_t late = kManyValues - 42;
  std::vector<float> run_a(kManyValues, 1.0f);
  std::vector<float> run_b(kManyValues, 1.0f);
  run_b[7] = 2.0f;
  run_b[late] = 0.5f;
  ElementwiseOptions opts = options();
  opts.collect_diffs = true;
  std::vector<ElementDiff> diffs;
  const std::uint64_t regions = exec_regions();
  const auto result =
      compare_region(as_bytes(run_a), as_bytes(run_b),
                     merkle::ValueKind::kF32, 1e-3, 5000, opts, &diffs);
  EXPECT_EQ(result.values_exceeding, 2U);
  ASSERT_EQ(diffs.size(), 2U);
  std::sort(diffs.begin(), diffs.end(),
            [](const auto& a, const auto& b) {
              return a.value_index < b.value_index;
            });
  EXPECT_EQ(diffs[0].value_index, 5007U);
  EXPECT_FLOAT_EQ(static_cast<float>(diffs[0].value_b), 2.0f);
  EXPECT_EQ(diffs[1].value_index, 5000U + late);
  expect_fan_out(regions);
}

TEST_P(ElementwiseBackends, DiffCollectionRespectsCap) {
  std::vector<float> run_a(kManyValues, 0.0f);
  std::vector<float> run_b(kManyValues, 1.0f);
  ElementwiseOptions opts = options();
  opts.collect_diffs = true;
  opts.max_diffs = 10;
  std::vector<ElementDiff> diffs;
  const std::uint64_t regions = exec_regions();
  const auto result =
      compare_region(as_bytes(run_a), as_bytes(run_b),
                     merkle::ValueKind::kF32, 1e-3, 0, opts, &diffs);
  EXPECT_EQ(result.values_exceeding, kManyValues);  // count is exact
  EXPECT_EQ(diffs.size(), 10U);                     // records are capped
  expect_fan_out(regions);
}

TEST_P(ElementwiseBackends, NanSemanticsMatchQuantizer) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> run_a{1.0f, nan, nan, 5.0f};
  std::vector<float> run_b{1.0f, nan, 3.0f, nan};
  const auto result =
      compare_region(as_bytes(run_a), as_bytes(run_b),
                     merkle::ValueKind::kF32, 1e-3, 0, options(), nullptr);
  // NaN==NaN reproducible; NaN vs finite differs (two of those).
  EXPECT_EQ(result.values_exceeding, 2U);
}

TEST_P(ElementwiseBackends, BoundaryIsStrictlyGreater) {
  std::vector<float> run_a{0.0f};
  std::vector<float> run_b{0.5f};
  // |a-b| == eps exactly: NOT a difference (strict >).
  const auto at_bound =
      compare_region(as_bytes(run_a), as_bytes(run_b),
                     merkle::ValueKind::kF32, 0.5, 0, options(), nullptr);
  EXPECT_EQ(at_bound.values_exceeding, 0U);
  const auto below_bound =
      compare_region(as_bytes(run_a), as_bytes(run_b),
                     merkle::ValueKind::kF32, 0.499, 0, options(), nullptr);
  EXPECT_EQ(below_bound.values_exceeding, 1U);
}

TEST_P(ElementwiseBackends, F64Comparison) {
  std::vector<double> run_a{1.0, 2.0, 3.0};
  std::vector<double> run_b{1.0 + 1e-10, 2.0 + 1e-6, 3.0};
  const auto result =
      compare_region(as_bytes(run_a), as_bytes(run_b),
                     merkle::ValueKind::kF64, 1e-8, 0, options(), nullptr);
  EXPECT_EQ(result.values_compared, 3U);
  EXPECT_EQ(result.values_exceeding, 1U);
}

TEST_P(ElementwiseBackends, BytesKindIsBitwise) {
  std::vector<std::uint8_t> run_a{1, 2, 3, 4};
  std::vector<std::uint8_t> run_b{1, 9, 3, 9};
  const auto result =
      compare_region(run_a, run_b, merkle::ValueKind::kBytes,
                     /*eps ignored=*/100.0, 0, options(), nullptr);
  EXPECT_EQ(result.values_compared, 4U);
  EXPECT_EQ(result.values_exceeding, 2U);
}

// A 4 KiB byte region is one claim: it runs on the calling thread on
// either backend, as a 4 KiB float region does.
TEST_P(ElementwiseBackends, SmallBytesRegionNeverWakesThePool) {
  std::vector<std::uint8_t> run_a(4096, 7);
  std::vector<std::uint8_t> run_b = run_a;
  run_b[0] = 8;
  run_b[4095] = 9;
  const std::uint64_t regions = exec_regions();
  const auto result = compare_region(run_a, run_b, merkle::ValueKind::kBytes,
                                     0.0, 0, options(), nullptr);
  EXPECT_EQ(result.values_exceeding, 2U);
  EXPECT_EQ(exec_regions(), regions);
}

TEST_P(ElementwiseBackends, LargeBytesRegionCountsEveryByte) {
  std::vector<std::uint8_t> run_a(2 * kMinBytesPerClaim + 1000, 7);
  std::vector<std::uint8_t> run_b = run_a;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < run_b.size(); i += 999) {
    run_b[i] = 1;
    ++expected;
  }
  const std::uint64_t regions = exec_regions();
  const auto result = compare_region(run_a, run_b, merkle::ValueKind::kBytes,
                                     0.0, 0, options(), nullptr);
  EXPECT_EQ(result.values_compared, run_a.size());
  EXPECT_EQ(result.values_exceeding, expected);
  expect_fan_out(regions);
}

TEST_P(ElementwiseBackends, EmptyRegion) {
  const auto result =
      compare_region({}, {}, merkle::ValueKind::kF32, 1e-6, 0, options(),
                     nullptr);
  EXPECT_EQ(result.values_compared, 0U);
  EXPECT_EQ(result.values_exceeding, 0U);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, ElementwiseBackends,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Parallel" : "Serial";
                         });

}  // namespace
}  // namespace repro::cmp
