// Corruption suite for the delta-store on-disk formats, mirroring
// merkle_flat_test: every truncation and a battery of hostile field
// mutations of .rdlt data files and RMFD differential sidecars must produce
// a clean error — never a crash or out-of-bounds access. Runs under the
// sanitize label so ASan proves the "never writes OOB" half.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "ckpt/delta_store.hpp"
#include "common/bytes.hpp"
#include "common/fs.hpp"
#include "common/rng.hpp"
#include "merkle/compare.hpp"
#include "merkle/flat.hpp"
#include "merkle/nodestore.hpp"
#include "sim/workload.hpp"

namespace repro::ckpt {
namespace {

DeltaStoreOptions options_bytes(std::uint64_t anchor_interval = 16) {
  DeltaStoreOptions options;
  options.tree.chunk_bytes = 1024;
  options.tree.value_kind = merkle::ValueKind::kBytes;
  options.exec = par::Exec::serial();
  options.anchor_interval = anchor_interval;
  return options;
}

std::span<const std::uint8_t> as_bytes(const std::vector<float>& values) {
  return {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size() * sizeof(float)};
}

/// Overwrite a published file directly (no atomic-publish machinery — the
/// point is to corrupt, not to be crash-safe).
void write_raw(const std::filesystem::path& path,
               std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::vector<std::uint8_t> read_raw(const std::filesystem::path& path) {
  auto bytes = repro::read_file(path);
  EXPECT_TRUE(bytes.is_ok());
  return std::move(bytes).value();
}

/// A two-iteration store: base + one delta, with known drift.
struct SmallStore {
  TempDir dir{"delta-corrupt"};
  std::filesystem::path rank_dir;
  std::vector<float> values;

  SmallStore() {
    auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
    EXPECT_TRUE(store.is_ok());
    values = sim::generate_field(8000, 21);
    EXPECT_TRUE(store.value().append(0, as_bytes(values)).is_ok());
    values[0] += 1.0f;
    values[700] += 1.0f;
    EXPECT_TRUE(store.value().append(1, as_bytes(values)).is_ok());
    rank_dir = dir.path() / "run" / "rank0";
  }

  [[nodiscard]] std::filesystem::path base_path() const {
    return rank_dir / "base.iter0.rdlt";
  }
  [[nodiscard]] std::filesystem::path delta_path() const {
    return rank_dir / "delta.iter1.rdlt";
  }

  /// Reload + reconstruct both iterations. Every outcome is acceptable
  /// except a crash: either load truncates the history or reconstruct
  /// reports the corruption.
  void expect_no_crash() const {
    auto loaded = DeltaStore::load(dir.path(), "run", 0, options_bytes());
    if (!loaded.is_ok()) return;
    for (const std::uint64_t iteration : loaded.value().iterations()) {
      (void)loaded.value().reconstruct(iteration);
      (void)loaded.value().tree(iteration);
    }
  }
};

TEST(DeltaCorruption, EveryDataTruncationFailsCleanly) {
  const SmallStore store;
  const std::vector<std::uint8_t> base = read_raw(store.base_path());
  const std::vector<std::uint8_t> delta = read_raw(store.delta_path());
  // Sweep the (small) delta file byte-by-byte and the (large) base file at
  // a stride plus its header region exhaustively.
  for (std::size_t cut = 0; cut < delta.size(); ++cut) {
    write_raw(store.delta_path(),
              std::span<const std::uint8_t>(delta.data(), cut));
    store.expect_no_crash();
  }
  write_raw(store.delta_path(), delta);
  for (std::size_t cut = 0; cut < base.size();
       cut += (cut < 64 ? 1 : 997)) {
    write_raw(store.base_path(),
              std::span<const std::uint8_t>(base.data(), cut));
    store.expect_no_crash();
  }
}

/// Patch a little-endian u64 at a byte offset of a file.
void patch_u64(const std::filesystem::path& path, std::size_t offset,
               std::uint64_t value) {
  std::vector<std::uint8_t> bytes;
  {
    auto read = repro::read_file(path);
    ASSERT_TRUE(read.is_ok());
    bytes = std::move(read).value();
  }
  ASSERT_LE(offset + 8, bytes.size());
  std::memcpy(bytes.data() + offset, &value, 8);
  write_raw(path, bytes);
}

// .rdlt layout: magic u32 @0, version u32 @4, is_base u8 @8, iteration u64
// @9, data_bytes u64 @17, chunk_bytes u64 @25, chunk_count u64 @33, then
// records of {chunk u64, length u64, payload}.
constexpr std::size_t kDataBytesOff = 17;
constexpr std::size_t kChunkBytesOff = 25;
constexpr std::size_t kChunkCountOff = 33;
constexpr std::size_t kFirstChunkOff = 41;
constexpr std::size_t kFirstLengthOff = 49;

TEST(DeltaCorruption, HostileChunkIndexNeverWritesOutOfBounds) {
  // chunk * chunk_bytes wraps uint64_t for a huge index: the old bounds
  // check `begin + length > data.size()` passed and wrote wild. Must error.
  for (const std::uint64_t hostile :
       {std::uint64_t{1} << 63, (std::uint64_t{1} << 63) / 1024,
        std::uint64_t{0xFFFFFFFFFFFFFFFF}, std::uint64_t{1000000}}) {
    const SmallStore store;
    patch_u64(store.delta_path(), kFirstChunkOff, hostile);
    store.expect_no_crash();
    auto loaded = DeltaStore::load(store.dir.path(), "run", 0,
                                   options_bytes());
    ASSERT_TRUE(loaded.is_ok());
    if (loaded.value().iterations().size() == 2) {
      const auto restored = loaded.value().reconstruct(1);
      EXPECT_FALSE(restored.is_ok());
    }
  }
}

TEST(DeltaCorruption, HostileLengthRejected) {
  for (const std::uint64_t hostile :
       {std::uint64_t{1} << 63, std::uint64_t{0xFFFFFFFFFFFFFFFF},
        std::uint64_t{4096}, std::uint64_t{0}}) {
    const SmallStore store;
    patch_u64(store.delta_path(), kFirstLengthOff, hostile);
    store.expect_no_crash();
  }
}

TEST(DeltaCorruption, HostileChunkBytesRejected) {
  for (const std::uint64_t hostile :
       {std::uint64_t{0}, std::uint64_t{1} << 63,
        std::uint64_t{0xFFFFFFFFFFFFFFFF}}) {
    const SmallStore store;
    patch_u64(store.delta_path(), kChunkBytesOff, hostile);
    store.expect_no_crash();
  }
}

TEST(DeltaCorruption, HostileBaseDataBytesDoesNotOverAllocate) {
  // data.assign(data_bytes, 0) on a hostile base header would try to
  // allocate petabytes; the file-size bound must reject it first.
  const SmallStore store;
  patch_u64(store.base_path(), kDataBytesOff, std::uint64_t{1} << 60);
  store.expect_no_crash();
}

TEST(DeltaCorruption, HostileChunkCountRejected) {
  const SmallStore store;
  patch_u64(store.delta_path(), kChunkCountOff, std::uint64_t{1} << 40);
  store.expect_no_crash();
}

TEST(DeltaCorruption, MismatchedHeaderIterationTruncatesOnLoad) {
  const SmallStore store;
  // The file says iteration 5 but the name says 1: load must not trust it.
  patch_u64(store.delta_path(), 9, 5);
  auto loaded = DeltaStore::load(store.dir.path(), "run", 0,
                                 options_bytes());
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().iterations(),
            (std::vector<std::uint64_t>{0}));
}

TEST(DeltaCorruption, EverySidecarTruncationFailsCleanly) {
  // iter1.rmrk is a differential (RMFD-only) sidecar; every truncated
  // prefix must fail to replay, so load trims the history back to the base
  // and iteration 1 is no longer listed.
  const SmallStore store;
  const std::filesystem::path sidecar = store.rank_dir / "iter1.rmrk";
  const std::vector<std::uint8_t> bytes = read_raw(sidecar);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_raw(sidecar, std::span<const std::uint8_t>(bytes.data(), cut));
    const auto loaded =
        DeltaStore::load(store.dir.path(), "run", 0, options_bytes());
    ASSERT_TRUE(loaded.is_ok()) << "cut=" << cut << ": "
                                << loaded.status().to_string();
    EXPECT_EQ(loaded.value().iterations(), (std::vector<std::uint64_t>{0}))
        << "cut=" << cut;
    EXPECT_EQ(loaded.value().tree(1).status().code(),
              repro::StatusCode::kNotFound)
        << "cut=" << cut;
  }
}

TEST(DeltaCorruption, FuzzedSidecarNeverCrashes) {
  const SmallStore store;
  const std::filesystem::path sidecar = store.rank_dir / "iter1.rmrk";
  const std::vector<std::uint8_t> pristine = read_raw(sidecar);
  repro::Xoshiro256 rng(99);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> mutated = pristine;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    write_raw(sidecar, mutated);
    // Either outcome is fine; crashing or reading OOB (ASan) is not.
    store.expect_no_crash();
  }
}

TEST(DeltaCorruption, MissingAnchorSidecarLoadsCleanly) {
  // Without iter0.rmrk nothing anchors iteration 1's differential sidecar:
  // load keeps no iteration whose chain needs the missing file, and asking
  // for the tree is a clean error, not a crash or a hang.
  const SmallStore store;
  ASSERT_TRUE(std::filesystem::remove(store.rank_dir / "iter0.rmrk"));
  const auto loaded =
      DeltaStore::load(store.dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_TRUE(loaded.value().iterations().empty());
  EXPECT_FALSE(loaded.value().tree(1).is_ok());
}

TEST(DeltaCorruption, SidecarNamingAnotherBaseTruncatesOnLoad) {
  // Two stores get the same appends: iteration 1 changes chunk 3, and
  // iteration 2 reverts it exactly and changes chunk 10. Store a's
  // iter2.rmrk is then replaced by a valid delta of iteration 2 from 0,
  // which skips its listed predecessor. Replayed onto iteration 1's tree it
  // would keep chunk 3's change, so load must stop listing iteration 2, and
  // the timeline must agree with full tree compares where both stores list
  // an iteration.
  TempDir dir{"delta-foreign-base"};
  const std::vector<float> field = sim::generate_field(8000, 41);
  const std::span<const std::uint8_t> field_bytes = as_bytes(field);
  for (const char* run : {"a", "b"}) {
    auto store = DeltaStore::open(dir.path(), run, 0, options_bytes());
    ASSERT_TRUE(store.is_ok());
    std::vector<std::uint8_t> bytes(field_bytes.begin(), field_bytes.end());
    ASSERT_TRUE(store.value().append(0, bytes).is_ok());
    bytes[3 * 1024] ^= 0xFF;
    ASSERT_TRUE(store.value().append(1, bytes).is_ok());
    bytes[3 * 1024] ^= 0xFF;
    bytes[10 * 1024] ^= 0xFF;
    ASSERT_TRUE(store.value().append(2, bytes).is_ok());
  }
  {
    auto written = DeltaStore::load(dir.path(), "a", 0, options_bytes());
    ASSERT_TRUE(written.is_ok());
    const auto tree0 = written.value().tree(0);
    const auto tree2 = written.value().tree(2);
    ASSERT_TRUE(tree0.is_ok());
    ASSERT_TRUE(tree2.is_ok());
    const auto skip =
        merkle::compute_tree_delta(tree0.value(), tree2.value(), 0, 2);
    ASSERT_TRUE(skip.is_ok());
    write_raw(dir.path() / "a" / "rank0" / "iter2.rmrk",
              merkle::flat_serialize_delta(skip.value()));
  }

  const auto a = DeltaStore::load(dir.path(), "a", 0, options_bytes());
  const auto b = DeltaStore::load(dir.path(), "b", 0, options_bytes());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().iterations(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(b.value().iterations(), (std::vector<std::uint64_t>{0, 1, 2}));
  const auto timeline = incremental_timeline(a.value(), b.value());
  ASSERT_TRUE(timeline.is_ok()) << timeline.status().to_string();
  for (const TimelineEntry& entry : timeline.value()) {
    const auto tree_a = a.value().tree(entry.iteration);
    const auto tree_b = b.value().tree(entry.iteration);
    ASSERT_TRUE(tree_a.is_ok()) << tree_a.status().to_string();
    ASSERT_TRUE(tree_b.is_ok()) << tree_b.status().to_string();
    const auto diff = merkle::compare_trees(tree_a.value(), tree_b.value());
    ASSERT_TRUE(diff.is_ok());
    EXPECT_EQ(entry.diverged_chunks, diff.value().size())
        << "iteration " << entry.iteration;
  }
}

TEST(DeltaCorruption, CraftedDeltaEntriesRejectedByDecoder) {
  // flat_serialize_delta happily encodes hostile entries (and checksums
  // them), so these reach the RMFD decoder itself rather than dying on the
  // section checksum.
  merkle::TreeDelta delta;
  delta.iteration = 2;
  delta.base_iteration = 1;
  delta.params.chunk_bytes = 1024;
  delta.params.value_kind = merkle::ValueKind::kBytes;
  delta.data_bytes = 8192;
  delta.num_leaves = 8;

  const auto decode_of = [](const merkle::TreeDelta& hostile)
      -> repro::Result<merkle::TreeDelta> {
    const std::vector<std::uint8_t> bytes =
        merkle::flat_serialize_delta(hostile);
    auto view = merkle::BundleView::parse(bytes);
    if (!view.is_ok()) return view.status();
    return view.value().delta();
  };

  // Sane delta decodes.
  delta.nodes = {{0, {1, 2}}, {7, {3, 4}}};
  EXPECT_TRUE(decode_of(delta).is_ok());
  // Node index beyond the layout's node count (8 leaves -> 15 nodes).
  delta.nodes = {{15, {1, 2}}};
  EXPECT_FALSE(decode_of(delta).is_ok());
  // Unsorted / duplicate indices.
  delta.nodes = {{7, {1, 2}}, {3, {3, 4}}};
  EXPECT_FALSE(decode_of(delta).is_ok());
  delta.nodes = {{3, {1, 2}}, {3, {3, 4}}};
  EXPECT_FALSE(decode_of(delta).is_ok());
  // base_iteration >= iteration (cycle bait for chain resolution).
  delta.nodes = {{0, {1, 2}}};
  delta.base_iteration = 2;
  EXPECT_FALSE(decode_of(delta).is_ok());
}

TEST(DeltaCorruption, CrashOrphanedSidecarSkippedOnLoad) {
  TempDir dir{"delta-crash"};
  auto values = sim::generate_field(8000, 31);
  {
    auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().append(0, as_bytes(values)).is_ok());
    values[0] += 1.0f;
    // Crash between the data publish and the sidecar publish: the .rdlt
    // lands, the .rmrk does not (an orphaned temp file is left behind).
    set_fail_next_publishes_for_testing(1, ".rmrk");
    EXPECT_FALSE(store.value().append(1, as_bytes(values)).is_ok());
    set_fail_next_publishes_for_testing(0);
  }
  auto loaded = DeltaStore::load(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  // Iteration 1's data file is an orphan: not trusted, not fatal.
  EXPECT_EQ(loaded.value().iterations(), (std::vector<std::uint64_t>{0}));
  // The stray temp publish was cleaned up.
  for (const auto& entry : std::filesystem::directory_iterator(
           dir.path() / "run" / "rank0")) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp-"),
              std::string::npos)
        << entry.path();
  }
  // The orphaned iteration can be re-appended after reload.
  EXPECT_TRUE(loaded.value().append(1, as_bytes(values)).is_ok());
  const auto restored = loaded.value().reconstruct(1);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(0, std::memcmp(restored.value().data(), values.data(),
                           restored.value().size()));
}

TEST(DeltaCorruption, CrashBeforeDataPublishLeavesStoreConsistent) {
  TempDir dir{"delta-crash"};
  auto values = sim::generate_field(8000, 32);
  {
    auto store = DeltaStore::open(dir.path(), "run", 0, options_bytes());
    ASSERT_TRUE(store.is_ok());
    ASSERT_TRUE(store.value().append(0, as_bytes(values)).is_ok());
    values[0] += 1.0f;
    // Crash during the data publish itself: neither file lands.
    set_fail_next_publishes_for_testing(1, ".rdlt");
    EXPECT_FALSE(store.value().append(1, as_bytes(values)).is_ok());
    set_fail_next_publishes_for_testing(0);
  }
  auto loaded = DeltaStore::load(dir.path(), "run", 0, options_bytes());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().iterations(), (std::vector<std::uint64_t>{0}));
  const auto restored = loaded.value().reconstruct(0);
  ASSERT_TRUE(restored.is_ok());
}

}  // namespace
}  // namespace repro::ckpt
