#include "merkle/nodestore.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "merkle/flat.hpp"
#include "merkle/tree.hpp"
#include "par/exec.hpp"

namespace repro::merkle {
namespace {

TreeParams bytes_params(std::uint64_t chunk_bytes = 1024) {
  TreeParams params;
  params.chunk_bytes = chunk_bytes;
  params.value_kind = ValueKind::kBytes;
  return params;
}

std::vector<std::uint8_t> random_bytes(std::size_t count,
                                       std::uint64_t seed) {
  repro::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(count);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  return bytes;
}

MerkleTree build_tree(std::span<const std::uint8_t> data) {
  auto tree = TreeBuilder(bytes_params(), par::Exec::serial()).build(data);
  EXPECT_TRUE(tree.is_ok()) << tree.status().to_string();
  return std::move(tree).value();
}

TEST(NodeStore, ComputeAndApplyDeltaRoundTrip) {
  std::vector<std::uint8_t> data = random_bytes(16384, 6);
  const MerkleTree base = build_tree(data);
  data[3000] ^= 0xFF;   // chunk 2
  data[10000] ^= 0xFF;  // chunk 9
  const MerkleTree next = build_tree(data);

  auto delta = compute_tree_delta(base, next, 0, 1);
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  EXPECT_EQ(delta.value().changed_chunks(),
            (std::vector<std::uint64_t>{2, 9}));
  // Two distinct root paths in a 16-leaf tree share at most the root.
  EXPECT_GE(delta.value().nodes.size(), 2U);

  auto rebuilt = apply_tree_delta(base, delta.value());
  ASSERT_TRUE(rebuilt.is_ok());
  EXPECT_TRUE(rebuilt.value().root() == next.root());
  EXPECT_TRUE(std::equal(rebuilt.value().nodes().begin(),
                         rebuilt.value().nodes().end(),
                         next.nodes().begin(), next.nodes().end()));
}

TEST(NodeStore, DeltaRejectsMismatchedBase) {
  const std::vector<std::uint8_t> small = random_bytes(4096, 8);
  const std::vector<std::uint8_t> large = random_bytes(16384, 8);
  const MerkleTree small_tree = build_tree(small);
  const MerkleTree large_tree = build_tree(large);
  EXPECT_FALSE(compute_tree_delta(small_tree, large_tree, 0, 1).is_ok());
  EXPECT_FALSE(compute_tree_delta(small_tree, small_tree, 1, 1).is_ok());

  auto delta = compute_tree_delta(large_tree, large_tree, 0, 1);
  ASSERT_TRUE(delta.is_ok());
  EXPECT_TRUE(delta.value().nodes.empty());
  EXPECT_FALSE(apply_tree_delta(small_tree, delta.value()).is_ok());
}

TEST(NodeStore, DeltaOnlySidecarParsesForOldReaders) {
  // A delta-only file is still a valid RMF2 bundle with zero trees — a
  // reader without RMFD support sees an empty tree table, not an error.
  TreeDelta delta;
  delta.iteration = 1;
  delta.base_iteration = 0;
  delta.params = bytes_params();
  delta.data_bytes = 4096;
  delta.num_leaves = 4;
  delta.nodes = {{0, {7, 8}}};
  const std::vector<std::uint8_t> bytes = flat_serialize_delta(delta);
  auto view = BundleView::parse(bytes);
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  EXPECT_EQ(view.value().size(), 0U);
  ASSERT_TRUE(view.value().has_delta());
  auto decoded = view.value().delta();
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().iteration, 1U);
  EXPECT_EQ(decoded.value().nodes, delta.nodes);
  // And sole_tree names the differential situation explicitly.
  auto bundle = MappedBundle::from_bytes(bytes);
  ASSERT_TRUE(bundle.is_ok());
  EXPECT_FALSE(bundle.value().sole_tree().is_ok());
}

TEST(NodeStore, AnchorSidecarCarriesTreeAndDelta) {
  std::vector<std::uint8_t> data = random_bytes(8192, 11);
  const MerkleTree base = build_tree(data);
  data[0] ^= 0xFF;
  const MerkleTree next = build_tree(data);
  auto delta = compute_tree_delta(base, next, 0, 1);
  ASSERT_TRUE(delta.is_ok());
  FlatBuilder builder;
  ASSERT_TRUE(builder.add("", next).is_ok());
  builder.set_delta(delta.value());
  const std::vector<std::uint8_t> bytes = builder.finish();
  auto view = BundleView::parse(bytes);
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  EXPECT_EQ(view.value().size(), 1U);
  EXPECT_TRUE(view.value().has_delta());
  EXPECT_TRUE(view.value().tree(0).root() == next.root());
  auto decoded = view.value().delta();
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().base_iteration, 0U);
}

}  // namespace
}  // namespace repro::merkle
