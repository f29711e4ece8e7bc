#include "merkle/tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/fs.hpp"
#include "common/rng.hpp"
#include "hash/murmur3.hpp"
#include "merkle/flat.hpp"
#include "telemetry/metrics.hpp"

namespace repro::merkle {
namespace {

std::vector<std::uint8_t> random_f32_bytes(std::size_t count,
                                           std::uint64_t seed) {
  repro::Xoshiro256 rng(seed);
  std::vector<float> values(count);
  for (auto& v : values) {
    v = static_cast<float>((rng.next_double() * 2 - 1) * 10.0);
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
  return {bytes, bytes + values.size() * sizeof(float)};
}

std::uint64_t exec_regions() {
  return telemetry::MetricsRegistry::global()
      .counter("par.exec.regions")
      .value();
}

TreeParams small_params(std::uint64_t chunk_bytes = 1024) {
  TreeParams params;
  params.chunk_bytes = chunk_bytes;
  params.hash.error_bound = 1e-5;
  return params;
}

TEST(ValidateTreeParams, Defaults) {
  EXPECT_TRUE(validate(TreeParams{}).is_ok());
}

TEST(ValidateTreeParams, RejectsZeroChunk) {
  TreeParams params;
  params.chunk_bytes = 0;
  EXPECT_FALSE(validate(params).is_ok());
}

TEST(ValidateTreeParams, RejectsUnalignedChunk) {
  TreeParams params;
  params.chunk_bytes = 6;  // not a multiple of sizeof(float)
  EXPECT_FALSE(validate(params).is_ok());
  params.value_kind = ValueKind::kBytes;  // any size fine for bytes
  EXPECT_TRUE(validate(params).is_ok());
}

TEST(ValueKindHelpers, SizesAndNames) {
  EXPECT_EQ(value_size(ValueKind::kF32), 4U);
  EXPECT_EQ(value_size(ValueKind::kF64), 8U);
  EXPECT_EQ(value_size(ValueKind::kBytes), 1U);
  EXPECT_EQ(value_kind_name(ValueKind::kF32), "f32");
  EXPECT_EQ(value_kind_name(ValueKind::kF64), "f64");
  EXPECT_EQ(value_kind_name(ValueKind::kBytes), "bytes");
}

TEST(TreeBuilder, DeterministicAcrossBackends) {
  // 10 leaves; then 9000 leaves of 64 B, whose widest internal level (8 Ki
  // nodes) is more than one claim and fans out.
  const std::vector<std::pair<std::size_t, std::uint64_t>> inputs = {
      {10000, 1024}, {9000 * 16, 64}};
  for (const auto& [values, chunk_bytes] : inputs) {
    const auto data = random_f32_bytes(values, 1);
    const TreeBuilder serial(small_params(chunk_bytes), par::Exec::serial());
    const TreeBuilder parallel(small_params(chunk_bytes),
                               par::Exec::parallel());
    const auto tree_serial = serial.build(data);
    const std::uint64_t regions_before = exec_regions();
    const auto tree_parallel = parallel.build(data);
    ASSERT_TRUE(tree_serial.is_ok());
    ASSERT_TRUE(tree_parallel.is_ok());
    if (tree_parallel.value().layout().padded_leaves / 2 > kMinNodesPerClaim) {
      // The leaf pass and at least one internal level fanned out.
      EXPECT_GE(exec_regions() - regions_before, 2U);
    }
    ASSERT_EQ(tree_serial.value().nodes().size(),
              tree_parallel.value().nodes().size());
    for (std::size_t i = 0; i < tree_serial.value().nodes().size(); ++i) {
      EXPECT_EQ(tree_serial.value().node(i), tree_parallel.value().node(i))
          << "node " << i << " chunk_bytes " << chunk_bytes;
    }
  }
}

// A capture-sized tree (448 leaves; its internal levels hold at most 256
// nodes) fans out for its leaf pass only: every internal level is one claim
// and runs on the calling thread.
TEST(TreeBuilder, CaptureSizedBuildFansOutOnce) {
  const auto data = random_f32_bytes(448 * 256, 5);  // 448 chunks of 1 KiB
  const TreeBuilder builder(small_params(), par::Exec::parallel());
  const std::uint64_t regions_before = exec_regions();
  const auto tree = builder.build(data);
  ASSERT_TRUE(tree.is_ok());
  EXPECT_EQ(tree.value().num_chunks(), 448U);
  EXPECT_LE(exec_regions() - regions_before, 1U);
}

TEST(TreeBuilder, ChunkCountMatchesCeilDiv) {
  const auto data = random_f32_bytes(1000, 2);  // 4000 bytes
  const auto tree =
      TreeBuilder(small_params(1024), par::Exec::serial()).build(data);
  ASSERT_TRUE(tree.is_ok());
  EXPECT_EQ(tree.value().num_chunks(), 4U);  // ceil(4000/1024)
  EXPECT_EQ(tree.value().data_bytes(), 4000U);
}

TEST(TreeBuilder, EmptyDataProducesPaddingOnlyTree) {
  const auto tree = TreeBuilder(small_params(), par::Exec::serial())
                        .build(std::span<const std::uint8_t>{});
  ASSERT_TRUE(tree.is_ok());
  EXPECT_EQ(tree.value().num_chunks(), 0U);
  EXPECT_EQ(tree.value().root(), padding_digest());
}

TEST(TreeBuilder, IdenticalDataIdenticalRoot) {
  const auto data = random_f32_bytes(5000, 3);
  const TreeBuilder builder(small_params(), par::Exec::serial());
  EXPECT_EQ(builder.build(data).value().root(),
            builder.build(data).value().root());
}

TEST(TreeBuilder, SingleValuePerturbationChangesOnlyItsLeafPath) {
  auto data = random_f32_bytes(4096, 4);  // 16 KiB -> 16 chunks of 1 KiB
  const TreeBuilder builder(small_params(1024), par::Exec::serial());
  const MerkleTree base = builder.build(data).value();

  // Perturb one float in chunk 5 by much more than the bound.
  auto* values = reinterpret_cast<float*>(data.data());
  values[5 * 256 + 17] += 1.0f;
  const MerkleTree changed = builder.build(data).value();

  EXPECT_NE(base.root(), changed.root());
  for (std::uint64_t chunk = 0; chunk < base.num_chunks(); ++chunk) {
    if (chunk == 5) {
      EXPECT_NE(base.leaf(chunk), changed.leaf(chunk));
    } else {
      EXPECT_EQ(base.leaf(chunk), changed.leaf(chunk));
    }
  }
}

TEST(TreeBuilder, PerturbationWithinBoundKeepsRoot) {
  auto data = random_f32_bytes(4096, 5);
  const TreeBuilder builder(small_params(1024), par::Exec::serial());
  const MerkleTree base = builder.build(data).value();
  // Snap every value onto its grid center first so a tiny nudge cannot
  // cross a cell boundary, then nudge.
  auto* values = reinterpret_cast<float*>(data.data());
  const double eps = small_params().hash.error_bound;
  for (std::size_t i = 0; i < 4096; ++i) {
    values[i] = static_cast<float>(
        std::llround(static_cast<double>(values[i]) / eps) * eps);
  }
  const MerkleTree snapped = builder.build(data).value();
  for (std::size_t i = 0; i < 4096; ++i) {
    values[i] = static_cast<float>(static_cast<double>(values[i]) +
                                   0.2 * eps);
  }
  const MerkleTree nudged = builder.build(data).value();
  EXPECT_EQ(snapped.root(), nudged.root());
}

TEST(TreeBuilder, InternalNodesHashChildren) {
  const auto data = random_f32_bytes(2048, 6);  // 8 chunks
  const MerkleTree tree =
      TreeBuilder(small_params(1024), par::Exec::serial()).build(data).value();
  const TreeLayout& layout = tree.layout();
  for (std::uint64_t node = 0; node < layout.padded_leaves - 1; ++node) {
    hash::Digest128 pair[2] = {tree.node(TreeLayout::left_child(node)),
                               tree.node(TreeLayout::right_child(node))};
    const hash::Digest128 expected = hash::murmur3f(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(pair), sizeof pair));
    EXPECT_EQ(tree.node(node), expected);
  }
}

TEST(TreeBuilder, PaddingLeavesCarrySentinel) {
  const auto data = random_f32_bytes(1280, 7);  // 5120 B -> 5 chunks, pad to 8
  const MerkleTree tree =
      TreeBuilder(small_params(1024), par::Exec::serial()).build(data).value();
  EXPECT_EQ(tree.num_chunks(), 5U);
  EXPECT_EQ(tree.layout().padded_leaves, 8U);
  for (std::uint64_t leaf = 5; leaf < 8; ++leaf) {
    EXPECT_EQ(tree.node(tree.layout().leaf_node(leaf)), padding_digest());
  }
}

TEST(TreeBuilder, ChunkRangeClampsTail) {
  const auto data = random_f32_bytes(300, 8);  // 1200 bytes, chunk 1024
  const MerkleTree tree =
      TreeBuilder(small_params(1024), par::Exec::serial()).build(data).value();
  EXPECT_EQ(tree.num_chunks(), 2U);
  EXPECT_EQ(tree.chunk_range(0), (std::pair<std::uint64_t, std::uint64_t>{
                                     0, 1024}));
  EXPECT_EQ(tree.chunk_range(1), (std::pair<std::uint64_t, std::uint64_t>{
                                     1024, 1200}));
}

TEST(MerkleTree, MetadataSizeFormula) {
  // Paper: metadata ~ 2 * D * (N / C); padding and the header add slack but
  // the order of magnitude must hold.
  const auto data = random_f32_bytes(256 * 1024, 9);  // 1 MiB
  const MerkleTree tree =
      TreeBuilder(small_params(4096), par::Exec::serial()).build(data).value();
  const std::uint64_t chunks = tree.num_chunks();
  EXPECT_EQ(chunks, 256U);
  const std::uint64_t expected = 2 * 16 * chunks;
  EXPECT_NEAR(static_cast<double>(tree.metadata_bytes()),
              static_cast<double>(expected), 0.1 * expected + 128);
}

TEST(MerkleSerialization, RoundTrip) {
  const auto data = random_f32_bytes(3000, 10);
  const MerkleTree tree =
      TreeBuilder(small_params(512), par::Exec::serial()).build(data).value();
  const auto bytes = flat_serialize(tree);
  // metadata_bytes() is what `repro-cli tree` reports as written.
  EXPECT_EQ(bytes.size(), tree.metadata_bytes());
  const auto sidecar = MappedBundle::from_bytes(bytes);
  ASSERT_TRUE(sidecar.is_ok()) << sidecar.status().to_string();
  const auto loaded = sidecar.value().sole_tree().value().materialize();
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().params(), tree.params());
  EXPECT_EQ(loaded.value().data_bytes(), tree.data_bytes());
  EXPECT_EQ(loaded.value().num_chunks(), tree.num_chunks());
  ASSERT_EQ(loaded.value().nodes().size(), tree.nodes().size());
  for (std::size_t i = 0; i < tree.nodes().size(); ++i) {
    EXPECT_EQ(loaded.value().node(i), tree.node(i));
  }
}

TEST(MerkleSerialization, SaveLoadFile) {
  repro::TempDir dir{"merkle-test"};
  const auto data = random_f32_bytes(2000, 11);
  const MerkleTree tree =
      TreeBuilder(small_params(), par::Exec::serial()).build(data).value();
  const auto path = dir.file("tree.rmrk");
  ASSERT_TRUE(save_flat(tree, path).is_ok());
  const auto sidecar = MappedBundle::open(path);
  ASSERT_TRUE(sidecar.is_ok()) << sidecar.status().to_string();
  const auto loaded = sidecar.value().sole_tree();
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().root(), tree.root());
}

TEST(MerkleSerialization, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes(64, 0);
  EXPECT_EQ(MappedBundle::from_bytes(bytes).status().code(),
            repro::StatusCode::kCorruptData);
}

TEST(MerkleSerialization, RejectsTruncated) {
  const auto data = random_f32_bytes(2000, 12);
  const MerkleTree tree =
      TreeBuilder(small_params(), par::Exec::serial()).build(data).value();
  auto bytes = flat_serialize(tree);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(MappedBundle::from_bytes(bytes).is_ok());
}

TEST(MerkleSerialization, RejectsUnknownVersion) {
  const auto data = random_f32_bytes(100, 13);
  const MerkleTree tree =
      TreeBuilder(small_params(), par::Exec::serial()).build(data).value();
  auto bytes = flat_serialize(tree);
  bytes[4] = 0xFF;  // version field
  EXPECT_EQ(MappedBundle::from_bytes(bytes).status().code(),
            repro::StatusCode::kUnsupported);
}

TEST(TreeBuilder, BytesKindHashesBitwise) {
  std::vector<std::uint8_t> data(4096, 0xAB);
  TreeParams params = small_params(512);
  params.value_kind = ValueKind::kBytes;
  const TreeBuilder builder(params, par::Exec::serial());
  const MerkleTree base = builder.build(data).value();
  data[1000] ^= 1;  // a single-bit flip must flip chunk 1's digest
  const MerkleTree changed = builder.build(data).value();
  EXPECT_NE(base.leaf(1), changed.leaf(1));
  EXPECT_EQ(base.leaf(0), changed.leaf(0));
}

TEST(TreeBuilder, RejectsInvalidParams) {
  TreeParams params;
  params.chunk_bytes = 0;
  EXPECT_FALSE(TreeBuilder(params, par::Exec::serial())
                   .build(std::span<const std::uint8_t>{})
                   .is_ok());
}

TEST(TreeUpdate, EquivalentToFullRebuild) {
  auto data = random_f32_bytes(40000, 20);  // 157 chunks of 1 KiB
  const TreeBuilder builder(small_params(1024), par::Exec::serial());
  MerkleTree tree = builder.build(data).value();

  // Perturb a scattered set of chunks beyond the bound.
  auto* values = reinterpret_cast<float*>(data.data());
  const std::vector<std::uint64_t> changed{0, 3, 4, 64, 65, 156};
  for (const std::uint64_t chunk : changed) {
    values[chunk * 256] += 1.0f;
  }
  ASSERT_TRUE(builder.update_leaves(tree, data, changed).is_ok());

  const MerkleTree rebuilt = builder.build(data).value();
  ASSERT_EQ(tree.nodes().size(), rebuilt.nodes().size());
  for (std::size_t i = 0; i < tree.nodes().size(); ++i) {
    EXPECT_EQ(tree.node(i), rebuilt.node(i)) << "node " << i;
  }
}

TEST(TreeUpdate, EmptyChangeSetIsNoop) {
  const auto data = random_f32_bytes(5000, 21);
  const TreeBuilder builder(small_params(), par::Exec::serial());
  MerkleTree tree = builder.build(data).value();
  const hash::Digest128 root = tree.root();
  ASSERT_TRUE(builder.update_leaves(tree, data, {}).is_ok());
  EXPECT_EQ(tree.root(), root);
}

TEST(TreeUpdate, SiblingPairsCollapseToOneParentUpdate) {
  // Adjacent chunks share a parent; updating both must still produce the
  // rebuild-identical tree (the parent is recomputed once, not twice).
  auto data = random_f32_bytes(8192, 22);  // 32 chunks
  const TreeBuilder builder(small_params(1024), par::Exec::parallel());
  MerkleTree tree = builder.build(data).value();
  auto* values = reinterpret_cast<float*>(data.data());
  values[6 * 256] += 1.0f;
  values[7 * 256] += 1.0f;  // 6 and 7 are siblings
  ASSERT_TRUE(
      builder.update_leaves(tree, data, std::vector<std::uint64_t>{6, 7})
          .is_ok());
  EXPECT_EQ(tree.root(), builder.build(data).value().root());
}

TEST(TreeUpdate, Rejections) {
  const auto data = random_f32_bytes(5000, 23);
  const TreeBuilder builder(small_params(), par::Exec::serial());
  MerkleTree tree = builder.build(data).value();

  // Out-of-range chunk.
  EXPECT_FALSE(builder
                   .update_leaves(tree, data,
                                  std::vector<std::uint64_t>{9999})
                   .is_ok());
  // Size change.
  const auto bigger = random_f32_bytes(6000, 23);
  EXPECT_FALSE(builder
                   .update_leaves(tree, bigger, std::vector<std::uint64_t>{0})
                   .is_ok());
  // Parameter mismatch.
  const TreeBuilder other(small_params(2048), par::Exec::serial());
  EXPECT_FALSE(other.update_leaves(tree, data, std::vector<std::uint64_t>{0})
                   .is_ok());
}

TEST(TreeUpdate, StaleListedChunksAreAlsoRefreshed) {
  // Listing an unchanged chunk is harmless: its digest recomputes to the
  // same value and the tree still equals a rebuild.
  auto data = random_f32_bytes(10000, 24);
  const TreeBuilder builder(small_params(1024), par::Exec::serial());
  MerkleTree tree = builder.build(data).value();
  auto* values = reinterpret_cast<float*>(data.data());
  values[3 * 256] += 1.0f;
  ASSERT_TRUE(builder
                  .update_leaves(tree, data,
                                 std::vector<std::uint64_t>{1, 2, 3, 4})
                  .is_ok());
  EXPECT_EQ(tree.root(), builder.build(data).value().root());
}

}  // namespace
}  // namespace repro::merkle
