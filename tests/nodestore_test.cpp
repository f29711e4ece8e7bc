#include "merkle/nodestore.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/fs.hpp"
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

TEST(NodeStore, RefcountsAndDedup) {
  NodeStore store;
  const hash::Digest128 a{1, 2};
  const hash::Digest128 b{3, 4};
  EXPECT_TRUE(store.insert(a));   // new
  EXPECT_FALSE(store.insert(a));  // dedup hit
  EXPECT_TRUE(store.insert(b));
  EXPECT_EQ(store.size(), 2U);
  EXPECT_EQ(store.stats().unique_nodes, 2U);
  EXPECT_EQ(store.stats().total_refs, 3U);
  EXPECT_EQ(store.stats().inserts, 3U);
  EXPECT_EQ(store.stats().deduped, 1U);
  EXPECT_EQ(store.stats().unique_bytes(), 2 * hash::kDigestBytes);
}

TEST(NodeStore, InsertAllCountsFreshDigests) {
  NodeStore store;
  const std::vector<std::uint8_t> data = random_bytes(8192, 5);
  const MerkleTree tree = build_tree(data);
  const std::uint64_t fresh = store.insert_all(tree.nodes());
  EXPECT_EQ(fresh, tree.nodes().size());
  // Re-inserting the same tree dedups every node.
  EXPECT_EQ(store.insert_all(tree.nodes()), 0U);
  EXPECT_EQ(store.stats().total_refs, 2 * tree.nodes().size());
  EXPECT_EQ(store.stats().unique_nodes, tree.nodes().size());
  EXPECT_GT(store.stats().dedup_ratio(), 1.9);
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

TEST(NodeStore, DirtyNodeIndicesCoverLeafToRoot) {
  const TreeLayout layout = TreeLayout::for_leaves(8);
  const std::vector<std::uint64_t> changed = {0};
  const std::vector<std::uint64_t> dirty =
      dirty_node_indices(layout, changed);
  // Leaf 0 of an 8-leaf tree is node 7; path = 7 -> 3 -> 1 -> 0.
  EXPECT_EQ(dirty, (std::vector<std::uint64_t>{0, 1, 3, 7}));
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

TEST(NodeStore, ResolveDeltaChainWalksToAnchor) {
  TempDir dir{"nodestore-chain"};
  std::vector<std::uint8_t> data = random_bytes(16384, 9);
  MerkleTree current = build_tree(data);
  // iter0: full anchor sidecar. iter1..3: RMFD-only differential files.
  ASSERT_TRUE(
      save_flat(current, dir.file("iter0.rmrk")).is_ok());
  for (std::uint64_t iteration = 1; iteration <= 3; ++iteration) {
    data[iteration * 2048] ^= 0xFF;
    const MerkleTree next = build_tree(data);
    auto delta = compute_tree_delta(current, next, iteration - 1, iteration);
    ASSERT_TRUE(delta.is_ok());
    ASSERT_TRUE(save_flat_delta(
                    delta.value(),
                    dir.file("iter" + std::to_string(iteration) + ".rmrk"))
                    .is_ok());
    current = next;
  }
  auto resolved = resolve_delta_chain(dir.file("iter3.rmrk"));
  ASSERT_TRUE(resolved.is_ok()) << resolved.status().to_string();
  EXPECT_TRUE(resolved.value().root() == current.root());

  // A full sidecar resolves with no chain.
  auto direct = resolve_delta_chain(dir.file("iter0.rmrk"));
  ASSERT_TRUE(direct.is_ok());
}

TEST(NodeStore, ResolveDeltaChainErrorsOnMissingAnchor) {
  TempDir dir{"nodestore-chain"};
  std::vector<std::uint8_t> data = random_bytes(8192, 10);
  const MerkleTree base = build_tree(data);
  data[0] ^= 0xFF;
  const MerkleTree next = build_tree(data);
  auto delta = compute_tree_delta(base, next, 4, 5);
  ASSERT_TRUE(delta.is_ok());
  ASSERT_TRUE(
      save_flat_delta(delta.value(), dir.file("iter5.rmrk")).is_ok());
  // iter4.rmrk does not exist: clean error, not a crash or a hang.
  EXPECT_FALSE(resolve_delta_chain(dir.file("iter5.rmrk")).is_ok());
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
