// Named-tree bundles: one tree per field, each under its own parameters,
// written by FlatBuilder and read back through MappedBundle (the per-field
// `.rmrb` sidecar).
#include "merkle/flat.hpp"

#include <gtest/gtest.h>

#include "merkle/tree.hpp"
#include "par/exec.hpp"
#include "sim/workload.hpp"

namespace repro::merkle {
namespace {

MerkleTree tree_of(const std::vector<float>& values, double eps,
                   std::uint64_t chunk_bytes = 1024) {
  TreeParams params;
  params.chunk_bytes = chunk_bytes;
  params.hash.error_bound = eps;
  return TreeBuilder(params, par::Exec::serial())
      .build({reinterpret_cast<const std::uint8_t*>(values.data()),
              values.size() * sizeof(float)})
      .value();
}

TEST(TreeBundle, AddAndFind) {
  const MerkleTree x = tree_of(sim::generate_field(1000, 1), 1e-5);
  const MerkleTree phi = tree_of(sim::generate_field(1000, 2), 1e-3);
  FlatBuilder builder;
  EXPECT_TRUE(builder.add("X", x).is_ok());
  EXPECT_TRUE(builder.add("PHI", phi).is_ok());
  EXPECT_EQ(builder.size(), 2U);

  const auto bundle = MappedBundle::from_bytes(builder.finish());
  ASSERT_TRUE(bundle.is_ok()) << bundle.status().to_string();
  const BundleView& view = bundle.value().view();
  EXPECT_EQ(view.size(), 2U);
  ASSERT_NE(view.find("X"), nullptr);
  ASSERT_NE(view.find("PHI"), nullptr);
  EXPECT_EQ(view.find("MISSING"), nullptr);
  EXPECT_DOUBLE_EQ(view.find("PHI")->params().hash.error_bound, 1e-3);
}

TEST(TreeBundle, DuplicateNameRejected) {
  const MerkleTree first = tree_of(sim::generate_field(100, 3), 1e-5);
  const MerkleTree second = tree_of(sim::generate_field(100, 4), 1e-5);
  FlatBuilder builder;
  ASSERT_TRUE(builder.add("X", first).is_ok());
  EXPECT_EQ(builder.add("X", second).code(),
            repro::StatusCode::kAlreadyExists);
  EXPECT_EQ(builder.size(), 1U);
}

TEST(TreeBundle, SerializationRoundTrip) {
  const MerkleTree x = tree_of(sim::generate_field(5000, 5), 1e-6, 512);
  const MerkleTree phi = tree_of(sim::generate_field(3000, 6), 1e-2, 2048);
  FlatBuilder builder;
  ASSERT_TRUE(builder.add("X", x).is_ok());
  ASSERT_TRUE(builder.add("PHI", phi).is_ok());

  std::vector<std::uint8_t> bytes = builder.finish();
  EXPECT_EQ(bytes.size(), builder.output_bytes());
  const auto restored = MappedBundle::from_bytes(std::move(bytes));
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  const BundleView& view = restored.value().view();
  EXPECT_EQ(view.size(), 2U);
  ASSERT_NE(view.find("X"), nullptr);
  ASSERT_NE(view.find("PHI"), nullptr);
  EXPECT_TRUE(view.find("X")->root() == x.root());
  EXPECT_EQ(view.find("PHI")->params().chunk_bytes, 2048U);
  // Per-entry params survive independently.
  EXPECT_DOUBLE_EQ(view.find("X")->params().hash.error_bound, 1e-6);
}

}  // namespace
}  // namespace repro::merkle
