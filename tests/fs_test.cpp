#include "common/fs.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

namespace repro {
namespace {

TEST(TempDir, CreatesAndCleansUp) {
  std::filesystem::path kept;
  {
    TempDir dir{"fs-test"};
    kept = dir.path();
    EXPECT_TRUE(std::filesystem::is_directory(kept));
    ASSERT_TRUE(write_file(dir.file("inner.bin"),
                           std::vector<std::uint8_t>{1, 2, 3})
                    .is_ok());
  }
  EXPECT_FALSE(std::filesystem::exists(kept));
}

TEST(TempDir, UniquePaths) {
  TempDir a{"fs-test"};
  TempDir b{"fs-test"};
  EXPECT_NE(a.path(), b.path());
}

TEST(Files, WriteReadRoundTrip) {
  TempDir dir{"fs-test"};
  std::vector<std::uint8_t> payload(100000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto path = dir.file("round.bin");
  ASSERT_TRUE(write_file(path, payload).is_ok());
  const auto read = read_file(path);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), payload);
}

TEST(Files, WriteEmptyFile) {
  TempDir dir{"fs-test"};
  const auto path = dir.file("empty.bin");
  ASSERT_TRUE(write_file(path, {}).is_ok());
  EXPECT_EQ(repro::file_size(path).value(), 0U);
  EXPECT_TRUE(read_file(path).value().empty());
}

TEST(Files, OverwriteTruncates) {
  TempDir dir{"fs-test"};
  const auto path = dir.file("trunc.bin");
  ASSERT_TRUE(write_file(path, std::vector<std::uint8_t>(1000, 7)).is_ok());
  ASSERT_TRUE(write_file(path, std::vector<std::uint8_t>(10, 9)).is_ok());
  EXPECT_EQ(repro::file_size(path).value(), 10U);
}

TEST(Files, ReadMissingFileFails) {
  TempDir dir{"fs-test"};
  const auto result = read_file(dir.file("missing.bin"));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(Files, FileSizeMissingFails) {
  TempDir dir{"fs-test"};
  EXPECT_FALSE(repro::file_size(dir.file("missing.bin")).is_ok());
}

TEST(Files, EvictPageCacheSucceedsOnRealFile) {
  TempDir dir{"fs-test"};
  const auto path = dir.file("evict.bin");
  ASSERT_TRUE(
      write_file(path, std::vector<std::uint8_t>(1 << 20, 42)).is_ok());
  EXPECT_TRUE(evict_page_cache(path).is_ok());
  // File must still read back intact after eviction.
  EXPECT_EQ(read_file(path).value().size(), 1U << 20);
}

TEST(Files, IdentityChangesWhenAPublishReplacesTheFile) {
  TempDir dir{"fs-test"};
  const auto path = dir.file("id.bin");
  EXPECT_EQ(file_identity(path).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(write_file(path, std::vector<std::uint8_t>(64, 1)).is_ok());
  const auto first = file_identity(path);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().size, 64U);
  EXPECT_EQ(file_identity(path).value(), first.value());
  // Same size, same bytes: the temp + rename still gives a new inode (the
  // old one is held open, so it cannot be reused).
  const int hold = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(hold, 0);
  ASSERT_TRUE(write_file(path, std::vector<std::uint8_t>(64, 1)).is_ok());
  EXPECT_NE(file_identity(path).value(), first.value());
  ::close(hold);
}

TEST(Files, EvictPageCacheMissingFileFails) {
  TempDir dir{"fs-test"};
  EXPECT_FALSE(evict_page_cache(dir.file("missing.bin")).is_ok());
}

// --- Crash-consistent publish ----------------------------------------------

std::size_t count_entries(const std::filesystem::path& dir) {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++count;
  }
  return count;
}

TEST(AtomicWrite, CrashBeforeRenameLeavesTargetAbsent) {
  // Simulated crash between temp-write and rename: the target path must not
  // exist at all — a new file appears complete or not at all.
  TempDir dir{"fs-test"};
  const auto path = dir.file("published.bin");
  set_fail_next_publishes_for_testing(1);
  const Status status =
      write_file(path, std::vector<std::uint8_t>(4096, 0x7F));
  set_fail_next_publishes_for_testing(0);
  EXPECT_FALSE(status.is_ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  // The orphaned temp file (what a real crash leaves) is a sibling with a
  // ".tmp-" infix — invisible to suffix-matching catalog scans.
  bool found_orphan = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    found_orphan |= entry.path().filename().string().find(".tmp-") !=
                    std::string::npos;
  }
  EXPECT_TRUE(found_orphan);
}

TEST(AtomicWrite, CrashDuringOverwriteKeepsOldContent) {
  // Overwriting an existing file must never expose a torn state: after a
  // crash mid-publish the old bytes are still fully there.
  TempDir dir{"fs-test"};
  const auto path = dir.file("stable.bin");
  const std::vector<std::uint8_t> old_content(1000, 0xAA);
  ASSERT_TRUE(write_file(path, old_content).is_ok());

  set_fail_next_publishes_for_testing(1);
  EXPECT_FALSE(
      write_file(path, std::vector<std::uint8_t>(5000, 0xBB)).is_ok());
  set_fail_next_publishes_for_testing(0);

  EXPECT_EQ(read_file(path).value(), old_content);
}

TEST(AtomicWrite, SuccessLeavesNoTempFiles) {
  TempDir dir{"fs-test"};
  ASSERT_TRUE(
      write_file(dir.file("a.bin"), std::vector<std::uint8_t>(100, 1))
          .is_ok());
  ASSERT_TRUE(
      write_file(dir.file("a.bin"), std::vector<std::uint8_t>(200, 2))
          .is_ok());
  EXPECT_EQ(count_entries(dir.path()), 1U);
}

TEST(AtomicCopy, RoundTripAndCrashConsistency) {
  TempDir dir{"fs-test"};
  std::vector<std::uint8_t> payload(3 << 20);  // > one copy buffer
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  const auto src = dir.file("src.bin");
  const auto dst = dir.file("dst.bin");
  ASSERT_TRUE(write_file(src, payload).is_ok());

  // Crash mid-copy: destination absent, source untouched.
  set_fail_next_publishes_for_testing(1);
  EXPECT_FALSE(copy_file_atomic(src, dst).is_ok());
  set_fail_next_publishes_for_testing(0);
  EXPECT_FALSE(std::filesystem::exists(dst));

  // Clean copy: byte-identical.
  ASSERT_TRUE(copy_file_atomic(src, dst).is_ok());
  EXPECT_EQ(read_file(dst).value(), payload);
}

// --- Multi-span writes and writeback slices ------------------------------

bool has_orphan(const std::filesystem::path& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp-") != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::vector<std::uint8_t> pattern(std::size_t size, std::uint8_t salt) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 131 + salt) ^ (i >> 12));
  }
  return bytes;
}

TEST(AtomicWrite, MultiSpanWriteIsTheConcatenation) {
  TempDir dir{"fs-test"};
  const std::vector<std::uint8_t> head = pattern(4096, 1);
  const std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> tail = pattern(70001, 2);
  const auto path = dir.file("parts.bin");
  ASSERT_TRUE(write_file(path, {head, empty, tail}).is_ok());

  std::vector<std::uint8_t> expected = head;
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(read_file(path).value(), expected);
  EXPECT_EQ(count_entries(dir.path()), 1U);
}

TEST(AtomicWrite, PayloadAcrossWritebackSlicesRoundTrips) {
  // 13 MiB crosses three writeback-slice boundaries and ends mid-slice, in
  // both publish paths; the first part is not slice-aligned, so every later
  // write starts at an offset the slices do not.
  static_assert((std::size_t{13} << 20) > 3 * kWritebackSliceBytes);
  TempDir dir{"fs-test"};
  const std::vector<std::uint8_t> head = pattern(4096 + 7, 3);
  const std::vector<std::uint8_t> body = pattern((13U << 20) - head.size(), 4);
  const auto written = dir.file("written.bin");
  ASSERT_TRUE(write_file(written, {head, body}).is_ok());

  std::vector<std::uint8_t> expected = head;
  expected.insert(expected.end(), body.begin(), body.end());
  EXPECT_EQ(read_file(written).value(), expected);

  const auto copied = dir.file("copied.bin");
  ASSERT_TRUE(copy_file_atomic(written, copied).is_ok());
  EXPECT_EQ(read_file(copied).value(), expected);
  EXPECT_EQ(count_entries(dir.path()), 2U);
}

TEST(AtomicWrite, CrashBeforeRenameAfterSlicesLeavesOnlyAnOrphan) {
  // The writeback hints are not a publish: a failure after several slices
  // went to the device still leaves the final path absent.
  TempDir dir{"fs-test"};
  const std::vector<std::uint8_t> big = pattern(9U << 20, 5);
  const auto path = dir.file("sliced.bin");
  set_fail_next_publishes_for_testing(1);
  EXPECT_FALSE(write_file(path, {big, big}).is_ok());
  set_fail_next_publishes_for_testing(0);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(has_orphan(dir.path()));

  TempDir copies{"fs-test"};
  ASSERT_TRUE(write_file(copies.file("src.bin"), big).is_ok());
  set_fail_next_publishes_for_testing(1);
  EXPECT_FALSE(
      copy_file_atomic(copies.file("src.bin"), copies.file("dst.bin")).is_ok());
  set_fail_next_publishes_for_testing(0);
  EXPECT_FALSE(std::filesystem::exists(copies.file("dst.bin")));
  EXPECT_TRUE(has_orphan(copies.path()));
}

TEST(AtomicCopy, StaleSiblingGoesOnlyWithTheRename) {
  // The sibling is unlinked only once the copy is fsync'd and about to be
  // renamed in: a publish that fails first keeps it, one that lands drops
  // it, and a sibling that is already gone is no error.
  TempDir dir{"fs-test"};
  const auto src = dir.file("src.bin");
  const auto dst = dir.file("dst.bin");
  const auto stale = dir.file("dst.side");
  const std::vector<std::uint8_t> payload = pattern(5U << 20, 6);
  const std::vector<std::uint8_t> side = pattern(64, 7);
  ASSERT_TRUE(write_file(src, payload).is_ok());
  ASSERT_TRUE(write_file(stale, side).is_ok());

  set_fail_next_publishes_for_testing(1, dst.string());
  EXPECT_FALSE(copy_file_atomic(src, dst, stale).is_ok());
  set_fail_next_publishes_for_testing(0);
  EXPECT_FALSE(std::filesystem::exists(dst));
  EXPECT_EQ(read_file(stale).value(), side);

  ASSERT_TRUE(copy_file_atomic(src, dst, stale).is_ok());
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_EQ(read_file(dst).value(), payload);

  ASSERT_TRUE(copy_file_atomic(src, dst, stale).is_ok());
  EXPECT_EQ(read_file(dst).value(), payload);
}

TEST(AtomicCopy, MissingSourceFails) {
  TempDir dir{"fs-test"};
  EXPECT_FALSE(
      copy_file_atomic(dir.file("missing.bin"), dir.file("out.bin")).is_ok());
  EXPECT_FALSE(std::filesystem::exists(dir.file("out.bin")));
}

}  // namespace
}  // namespace repro
