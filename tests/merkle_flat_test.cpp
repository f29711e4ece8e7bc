#include "merkle/flat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/fs.hpp"
#include "common/rng.hpp"
#include "io/mmap.hpp"
#include "merkle/tree.hpp"
#include "par/exec.hpp"

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

TreeParams small_params(std::uint64_t chunk_bytes = 1024) {
  TreeParams params;
  params.chunk_bytes = chunk_bytes;
  params.hash.error_bound = 1e-5;
  return params;
}

MerkleTree make_tree(std::size_t values, std::uint64_t seed = 1) {
  auto tree = TreeBuilder(small_params(), par::Exec::serial())
                  .build(random_f32_bytes(values, seed));
  EXPECT_TRUE(tree.is_ok()) << tree.status().to_string();
  return std::move(tree).value();
}

/// Every node, every accessor: the view must agree with the source tree.
void expect_same_tree(const TreeView& view, const MerkleTree& tree) {
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view.data_bytes(), tree.data_bytes());
  EXPECT_EQ(view.num_chunks(), tree.num_chunks());
  EXPECT_EQ(view.params().chunk_bytes, tree.params().chunk_bytes);
  EXPECT_EQ(view.params().hash.error_bound, tree.params().hash.error_bound);
  EXPECT_EQ(view.layout().num_nodes(), tree.layout().num_nodes());
  EXPECT_TRUE(view.root() == tree.root());
  for (std::uint64_t i = 0; i < tree.layout().num_nodes(); ++i) {
    EXPECT_TRUE(view.node(i) == tree.nodes()[i]) << "node " << i;
  }
  EXPECT_EQ(view.chunk_range(0), tree.chunk_range(0));
}

/// The first bytes of a retired v1 sidecar: magic, version 1, then enough
/// zeroed header that only the magic can decide the outcome.
std::vector<std::uint8_t> legacy_header(const char magic[4]) {
  std::vector<std::uint8_t> bytes(64, 0);
  std::memcpy(bytes.data(), magic, 4);
  bytes[4] = 1;
  return bytes;
}

TEST(FlatFormat, DetectsAllMagics) {
  EXPECT_TRUE(
      MappedBundle::from_bytes(flat_serialize(make_tree(1024))).is_ok());

  // Retired v1 encodings get a named, actionable kUnsupported error.
  for (const char* magic : {"RMRK", "RMRB"}) {
    const auto legacy = MappedBundle::from_bytes(legacy_header(magic));
    ASSERT_FALSE(legacy.is_ok()) << magic;
    EXPECT_EQ(legacy.status().code(), repro::StatusCode::kUnsupported);
    const std::string message = legacy.status().to_string();
    EXPECT_NE(message.find(std::string("legacy v1 sidecar (") + magic + ")"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("rebuild"), std::string::npos) << message;
  }
  // The legacy check needs only the magic, so a bare one is still named.
  const std::vector<std::uint8_t> bare = {'R', 'M', 'R', 'K'};
  EXPECT_EQ(BundleView::parse(bare).status().code(),
            repro::StatusCode::kUnsupported);

  EXPECT_EQ(MappedBundle::from_bytes({}).status().code(),
            repro::StatusCode::kCorruptData);
  const std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5};
  EXPECT_EQ(MappedBundle::from_bytes(junk).status().code(),
            repro::StatusCode::kCorruptData);
}

TEST(FlatFormat, TreeRoundTripMatchesSource) {
  const MerkleTree tree = make_tree(4096);
  const std::vector<std::uint8_t> flat = flat_serialize(tree);
  auto view = BundleView::parse(flat);
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  ASSERT_EQ(view.value().size(), 1U);
  EXPECT_EQ(view.value().name(0), "");
  expect_same_tree(view.value().tree(0), tree);

  // materialize() is the exact inverse of flat_serialize.
  auto owned = view.value().tree(0).materialize();
  ASSERT_TRUE(owned.is_ok());
  EXPECT_TRUE(owned.value().root() == tree.root());
  EXPECT_TRUE(std::equal(owned.value().nodes().begin(),
                         owned.value().nodes().end(), tree.nodes().begin(),
                         tree.nodes().end()));
}

TEST(FlatFormat, BundleRoundTripPreservesNamesAndOrder) {
  // One tree per field, each under its own parameters (the per-field
  // `.rmrb` layout): names, order and per-entry params all survive.
  TreeParams loose = small_params(2048);
  loose.hash.error_bound = 1e-2;
  const MerkleTree position = make_tree(2048, 1);
  const MerkleTree velocity = make_tree(1024, 2);
  const MerkleTree phi = TreeBuilder(loose, par::Exec::serial())
                             .build(random_f32_bytes(512, 3))
                             .value();
  FlatBuilder builder;
  ASSERT_TRUE(builder.add("POSITION", position).is_ok());
  ASSERT_TRUE(builder.add("VELOCITY", velocity).is_ok());
  ASSERT_TRUE(builder.add("PHI", phi).is_ok());

  const std::vector<std::uint8_t> flat = builder.finish();
  auto view = BundleView::parse(flat);
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  ASSERT_EQ(view.value().size(), 3U);
  EXPECT_EQ(view.value().name(0), "POSITION");
  EXPECT_EQ(view.value().name(1), "VELOCITY");
  EXPECT_EQ(view.value().name(2), "PHI");
  expect_same_tree(view.value().tree(0), position);
  expect_same_tree(view.value().tree(1), velocity);
  expect_same_tree(view.value().tree(2), phi);
  ASSERT_NE(view.value().find("PHI"), nullptr);
  EXPECT_EQ(view.value().find("PHI")->params(), loose);
  EXPECT_TRUE(view.value().find("VELOCITY")->root() == velocity.root());
  EXPECT_EQ(view.value().find("MISSING"), nullptr);
}

TEST(FlatFormat, BuilderReportsExactOutputSize) {
  // The builder borrows its trees, so they must outlive finish().
  const MerkleTree a = make_tree(1024, 1);
  const MerkleTree bb = make_tree(512, 2);
  FlatBuilder builder;
  ASSERT_TRUE(builder.add("a", a).is_ok());
  ASSERT_TRUE(builder.add("bb", bb).is_ok());
  EXPECT_EQ(builder.finish().size(), builder.output_bytes());
  const MerkleTree duplicate = make_tree(256, 3);
  EXPECT_EQ(builder.add("a", duplicate).code(),
            repro::StatusCode::kAlreadyExists)
      << "duplicate names must be rejected";
}

TEST(FlatFormat, ViewAliasesInMemoryTree) {
  const MerkleTree tree = make_tree(4096, 5);
  expect_same_tree(TreeView(tree), tree);
  EXPECT_FALSE(TreeView().valid());
}

// --- hostile-input coverage -------------------------------------------------

TEST(FlatFormat, RejectsBadMagicAndUnknownVersion) {
  const MerkleTree tree = make_tree(1024);
  std::vector<std::uint8_t> flat = flat_serialize(tree);

  std::vector<std::uint8_t> bad_magic = flat;
  bad_magic[0] = 'X';
  EXPECT_FALSE(BundleView::parse(bad_magic).is_ok());

  // Future version: the error names the version found and the one read.
  std::vector<std::uint8_t> future = flat;
  const std::uint32_t v99 = 99;
  std::memcpy(future.data() + 4, &v99, sizeof v99);
  const auto parsed = BundleView::parse(future);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.status().code(), repro::StatusCode::kUnsupported);
  EXPECT_NE(parsed.status().to_string().find("version 99"), std::string::npos)
      << parsed.status().to_string();
  EXPECT_EQ(parsed.status().to_string().find("migrate"), std::string::npos)
      << "the migrate tool no longer exists";
}

TEST(FlatFormat, RejectsCorruptSectionViaChecksum) {
  const MerkleTree tree = make_tree(2048);
  const std::vector<std::uint8_t> flat = flat_serialize(tree);
  // Flip one byte in the nodes payload (well past header + table).
  std::vector<std::uint8_t> corrupt = flat;
  corrupt[corrupt.size() - 5] ^= 0xFF;
  const auto parsed = BundleView::parse(corrupt);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().to_string().find("checksum"), std::string::npos)
      << parsed.status().to_string();
  // The same bytes pass when checksum verification is off: the structural
  // validation alone cannot see a payload bit-flip.
  EXPECT_TRUE(BundleView::parse(corrupt, /*verify_checksums=*/false).is_ok());
}

TEST(FlatFormat, EveryTruncationFailsCleanly) {
  // ASan builds make this a memory-safety proof: no truncation length may
  // read out of bounds or crash; each must return a clean error.
  const MerkleTree tree = make_tree(1024);
  const std::vector<std::uint8_t> flat = flat_serialize(tree);
  for (std::size_t len = 0; len < flat.size(); ++len) {
    const std::span<const std::uint8_t> prefix(flat.data(), len);
    EXPECT_FALSE(BundleView::parse(prefix).is_ok()) << "length " << len;
  }
  // Trailing garbage is also rejected: total_bytes must match exactly.
  std::vector<std::uint8_t> padded = flat;
  padded.push_back(0);
  EXPECT_FALSE(BundleView::parse(padded).is_ok());
}

TEST(FlatFormat, FuzzedHeaderFieldsFailCleanly) {
  // Random byte-flips across header + section table: never a crash, and a
  // changed blob must not validate against its stale checksums (except
  // flips that only touch reserved padding).
  const MerkleTree tree = make_tree(2048, 7);
  const std::vector<std::uint8_t> flat = flat_serialize(tree);
  repro::Xoshiro256 rng(99);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> mutated = flat;
    const std::size_t pos = rng.next() % std::min<std::size_t>(
                                                 mutated.size(), 160);
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next() % 255);
    (void)BundleView::parse(mutated);  // must not crash under ASan
  }
}

// --- MappedBundle -----------------------------------------------------------

TEST(MappedBundleTest, OpensV2FilesMapped) {
  TempDir dir{"flat-mapped"};
  const MerkleTree tree = make_tree(4096, 13);
  const auto path = dir.file("tree.rmrk");
  ASSERT_TRUE(save_flat(tree, path).is_ok());

  auto bundle = MappedBundle::open(path);
  ASSERT_TRUE(bundle.is_ok()) << bundle.status().to_string();
  EXPECT_TRUE(bundle.value().mapped());
  EXPECT_GT(bundle.value().resident_bytes(), 0U);
  auto view = bundle.value().sole_tree();
  ASSERT_TRUE(view.is_ok());
  expect_same_tree(view.value(), tree);
}

TEST(MappedBundleTest, MmapFailureFallsBackToHeapRead) {
  TempDir dir{"flat-fallback"};
  const MerkleTree tree = make_tree(1024, 19);
  const auto path = dir.file("tree.rmrk");
  ASSERT_TRUE(save_flat(tree, path).is_ok());

  io::set_fail_next_mmaps_for_testing(1, "flat-fallback");
  auto bundle = MappedBundle::open(path);
  ASSERT_TRUE(bundle.is_ok()) << bundle.status().to_string();
  EXPECT_FALSE(bundle.value().mapped());
  auto view = bundle.value().sole_tree();
  ASSERT_TRUE(view.is_ok());
  expect_same_tree(view.value(), tree);
  // The injection is consumed: the next open maps again.
  auto remapped = MappedBundle::open(path);
  ASSERT_TRUE(remapped.is_ok());
  EXPECT_TRUE(remapped.value().mapped());
}

TEST(MappedBundleTest, MissingFileIsNotFound) {
  const auto bundle = MappedBundle::open("/nonexistent/tree.rmrk");
  ASSERT_FALSE(bundle.is_ok());
  EXPECT_EQ(bundle.status().code(), repro::StatusCode::kNotFound);
}

TEST(MappedBundleTest, SoleTreeRejectsMultiTreeBundles) {
  const MerkleTree a = make_tree(512, 1);
  const MerkleTree b = make_tree(512, 2);
  FlatBuilder builder;
  ASSERT_TRUE(builder.add("A", a).is_ok());
  ASSERT_TRUE(builder.add("B", b).is_ok());
  auto mapped = MappedBundle::from_bytes(builder.finish());
  ASSERT_TRUE(mapped.is_ok());
  EXPECT_FALSE(mapped.value().sole_tree().is_ok());
  EXPECT_EQ(mapped.value().view().size(), 2U);
}

TEST(MappedBundleTest, FromBytesRejectsGarbage) {
  const std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4};
  EXPECT_FALSE(MappedBundle::from_bytes(junk).is_ok());
  EXPECT_FALSE(MappedBundle::from_bytes({}).is_ok());
}

}  // namespace
}  // namespace repro::merkle
