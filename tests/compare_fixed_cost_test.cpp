// Pins compare_pair's fixed cost with counts the program itself keeps:
// pool fan-outs (par.exec.regions), stage-2 backend opens (io_fallbacks
// under a forced io_uring setup failure) and io_uring rings created
// (io.uring.ring_setups). A small pair must not wake the pool, a clean pair
// must open no stage-2 backend, and sequential compares must reuse rings;
// large chunks and wide BFS levels must still fan out.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <vector>

#include "common/fs.hpp"
#include "compare/comparator.hpp"
#include "io/uring_backend.hpp"
#include "merkle/compare.hpp"
#include "merkle/flat.hpp"
#include "sim/workload.hpp"
#include "telemetry/metrics.hpp"

namespace repro::cmp {
namespace {

std::uint64_t counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name).value();
}

/// Restores the io_uring setup hook even when an assertion returns early.
struct UringSetupFailure {
  UringSetupFailure() { io::set_uring_setup_failure_for_testing(true); }
  ~UringSetupFailure() { io::set_uring_setup_failure_for_testing(false); }
};

class CompareFixedCostTest : public ::testing::Test {
 protected:
  CompareFixedCostTest() : dir_{"fixed-cost-test"} {}

  /// Writes a.ckpt (the reference), clean.ckpt (identical to it) and
  /// flagged.ckpt (a few diverged regions of X), each with a sidecar of
  /// `chunk_bytes` chunks. X and PHI hold `values` floats each.
  void write_pairs(std::uint64_t values, std::uint64_t chunk_bytes) {
    params_.chunk_bytes = chunk_bytes;
    params_.hash.error_bound = kEps;
    const auto x = sim::generate_field(values, 1);
    const auto phi = sim::generate_field(values, 2);
    auto x_flagged = x;
    sim::apply_divergence(x_flagged, {.region_fraction = 0.05,
                                      .region_values = 256,
                                      .magnitude = 1e-3,
                                      .seed = 3});
    write("a.ckpt", x, phi);
    write("clean.ckpt", x, phi);
    write("flagged.ckpt", x_flagged, phi);
  }

  void write(const char* name, const std::vector<float>& x,
             const std::vector<float>& phi) {
    ckpt::CheckpointWriter writer("test", "run", 1, 0);
    ASSERT_TRUE(writer.add_field_f32("X", x).is_ok());
    ASSERT_TRUE(writer.add_field_f32("PHI", phi).is_ok());
    const auto path = dir_.file(name);
    ASSERT_TRUE(writer.write(path).is_ok());
    const auto tree = merkle::TreeBuilder(params_, par::Exec::serial())
                          .build(writer.data_section());
    ASSERT_TRUE(tree.is_ok());
    ASSERT_TRUE(
        merkle::save_flat(tree.value(), path.string() + ".rmrk").is_ok());
  }

  CompareOptions options() const {
    CompareOptions opts;
    opts.error_bound = kEps;
    opts.tree = params_;
    opts.build_metadata_if_missing = false;
    return opts;
  }

  repro::Result<CompareReport> compare(const char* other,
                                       const CompareOptions& opts) {
    return compare_files(dir_.file("a.ckpt"), dir_.file(other), opts);
  }

  static constexpr double kEps = 1e-5;
  repro::TempDir dir_;
  merkle::TreeParams params_;
};

TEST_F(CompareFixedCostTest, SmallChunkPairsNeverWakeThePool) {
  write_pairs(32 * 1024, 4096);  // 256 KiB data section, 64 chunks
  const std::uint64_t before = counter("par.exec.regions");
  for (int i = 0; i < 20; ++i) {
    const auto clean = compare("clean.ckpt", options());
    ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
    EXPECT_EQ(clean.value().chunks_flagged, 0U);
    const auto flagged = compare("flagged.ckpt", options());
    ASSERT_TRUE(flagged.is_ok()) << flagged.status().to_string();
    EXPECT_GT(flagged.value().chunks_flagged, 0U);
    EXPECT_GT(flagged.value().values_exceeding, 0U);
  }
  EXPECT_EQ(counter("par.exec.regions"), before);
}

TEST_F(CompareFixedCostTest, LargeChunksStillFanOut) {
  write_pairs(512 * 1024, 1 << 20);  // 4 MiB data section, 1 MiB chunks
  const std::uint64_t before = counter("par.exec.regions");
  const auto flagged = compare("flagged.ckpt", options());
  ASSERT_TRUE(flagged.is_ok()) << flagged.status().to_string();
  EXPECT_GT(flagged.value().values_exceeding, 0U);
  EXPECT_GT(counter("par.exec.regions"), before);
}

TEST_F(CompareFixedCostTest, WideBfsLevelsStillFanOut) {
  constexpr std::uint64_t kLeaves = 16 * 1024;
  merkle::TreeParams params;
  params.chunk_bytes = 64;
  params.hash.error_bound = kEps;
  const merkle::TreeBuilder builder(params, par::Exec::serial());
  const auto values_a = sim::generate_field(kLeaves * 16, 1);
  auto values_b = values_a;
  for (auto& value : values_b) value += 1.0f;  // every chunk differs
  auto bytes = [](const std::vector<float>& values) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(values.data()),
        values.size() * sizeof(float));
  };
  const auto tree_a = builder.build(bytes(values_a));
  const auto tree_b = builder.build(bytes(values_b));
  ASSERT_TRUE(tree_a.is_ok() && tree_b.is_ok());

  const std::uint64_t before = counter("par.exec.regions");
  const auto diff = merkle::compare_trees(tree_a.value(), tree_b.value());
  ASSERT_TRUE(diff.is_ok()) << diff.status().to_string();
  EXPECT_EQ(diff.value().size(), kLeaves);
  EXPECT_GT(counter("par.exec.regions"), before);
}

TEST_F(CompareFixedCostTest, CleanPairOpensNoStageTwoBackend) {
  write_pairs(32 * 1024, 4096);
  const UringSetupFailure refuse_uring;
  CompareOptions opts = options();
  opts.backend = io::BackendKind::kUring;

  const auto clean = compare("clean.ckpt", opts);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  EXPECT_EQ(clean.value().io_fallbacks, 0U);
  const auto flagged = compare("flagged.ckpt", opts);
  ASSERT_TRUE(flagged.is_ok()) << flagged.status().to_string();
  EXPECT_EQ(flagged.value().io_fallbacks, 2U);

  opts.backend_fallback = false;
  EXPECT_TRUE(compare("clean.ckpt", opts).is_ok());
  const auto refused = compare("flagged.ckpt", opts);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnsupported);
}

TEST_F(CompareFixedCostTest, SequentialComparesReuseRings) {
  if (!io::uring_available()) GTEST_SKIP() << "io_uring unavailable";
  write_pairs(32 * 1024, 4096);
  CompareOptions opts = options();
  opts.backend = io::BackendKind::kUring;
  opts.backend_fallback = false;

  const std::uint64_t before = counter("io.uring.ring_setups");
  for (int i = 0; i < 50; ++i) {
    const auto flagged = compare("flagged.ckpt", opts);
    ASSERT_TRUE(flagged.is_ok()) << flagged.status().to_string();
    ASSERT_GT(flagged.value().bytes_read_per_file, 0U);
  }
  EXPECT_LE(counter("io.uring.ring_setups") - before, 2U);
  EXPECT_GE(counter("io.uring.ring_setups"), 1U);  // the counter is live
}

}  // namespace
}  // namespace repro::cmp
