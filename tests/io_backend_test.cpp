#include "io/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <vector>

#include "common/fs.hpp"
#include "common/rng.hpp"
#include "io/uring_backend.hpp"

namespace repro::io {
namespace {

std::vector<std::uint8_t> patterned_bytes(std::size_t size) {
  std::vector<std::uint8_t> data(size);
  repro::Xoshiro256 rng(size);
  for (auto& byte : data) {
    byte = static_cast<std::uint8_t>(rng.next());
  }
  return data;
}

class BackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kUring && !uring_available()) {
      GTEST_SKIP() << "io_uring unavailable in this environment";
    }
    dir_ = std::make_unique<repro::TempDir>("io-test");
    content_ = patterned_bytes(256 * 1024 + 123);  // odd size on purpose
    path_ = dir_->file("data.bin");
    ASSERT_TRUE(repro::write_file(path_, content_).is_ok());
  }

  std::unique_ptr<IoBackend> open() {
    auto result = open_backend(path_, GetParam());
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return std::move(result).value();
  }

  std::unique_ptr<repro::TempDir> dir_;
  std::vector<std::uint8_t> content_;
  std::filesystem::path path_;
};

TEST_P(BackendTest, ReportsSizeAndName) {
  const auto backend = open();
  EXPECT_EQ(backend->size(), content_.size());
  EXPECT_FALSE(backend->name().empty());
}

TEST_P(BackendTest, ReadAtMatchesContent) {
  const auto backend = open();
  for (const std::uint64_t offset : {0ULL, 1ULL, 4096ULL, 100000ULL}) {
    std::vector<std::uint8_t> buffer(1000);
    ASSERT_TRUE(backend->read_at(offset, buffer).is_ok());
    EXPECT_EQ(0, std::memcmp(buffer.data(), content_.data() + offset,
                             buffer.size()))
        << "offset " << offset;
  }
}

TEST_P(BackendTest, ReadWholeFile) {
  const auto backend = open();
  std::vector<std::uint8_t> buffer(content_.size());
  ASSERT_TRUE(backend->read_at(0, buffer).is_ok());
  EXPECT_EQ(buffer, content_);
}

TEST_P(BackendTest, ReadTail) {
  const auto backend = open();
  std::vector<std::uint8_t> buffer(123);
  ASSERT_TRUE(backend->read_at(content_.size() - 123, buffer).is_ok());
  EXPECT_EQ(0, std::memcmp(buffer.data(),
                           content_.data() + content_.size() - 123, 123));
}

TEST_P(BackendTest, ReadPastEofRejected) {
  const auto backend = open();
  std::vector<std::uint8_t> buffer(10);
  EXPECT_FALSE(backend->read_at(content_.size() - 5, buffer).is_ok());
  EXPECT_FALSE(backend->read_at(content_.size() + 100, buffer).is_ok());
}

TEST_P(BackendTest, HugeOffsetOverflowRejected) {
  // Regression: `offset + len > size` wraps for offsets near UINT64_MAX and
  // once passed the bounds check, turning into a pread at a garbage offset.
  const auto backend = open();
  std::vector<std::uint8_t> buffer(16);
  for (const std::uint64_t offset :
       {std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::numeric_limits<std::uint64_t>::max() - buffer.size()}) {
    const Status status = backend->read_at(offset, buffer);
    ASSERT_FALSE(status.is_ok()) << "offset " << offset;
    EXPECT_EQ(status.code(), repro::StatusCode::kOutOfRange);
  }
  // Same check on the batch path (uring validates before building SQEs).
  std::vector<ReadRequest> requests{
      {std::numeric_limits<std::uint64_t>::max() - 1, buffer}};
  EXPECT_FALSE(backend->read_batch(requests).is_ok());
}

TEST_P(BackendTest, ZeroLengthReadSucceeds) {
  const auto backend = open();
  EXPECT_TRUE(backend->read_at(0, {}).is_ok());
  EXPECT_TRUE(backend->read_at(content_.size(), {}).is_ok());
}

TEST_P(BackendTest, ScatteredBatchMatchesContent) {
  const auto backend = open();
  repro::Xoshiro256 rng(42);
  // 200 scattered reads of 16..4096 bytes, shuffled offsets.
  std::vector<std::vector<std::uint8_t>> buffers(200);
  std::vector<ReadRequest> requests;
  std::vector<std::uint64_t> offsets;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const std::uint64_t length = 16 + rng.next_below(4080);
    const std::uint64_t offset =
        rng.next_below(content_.size() - length);
    buffers[i].resize(length);
    requests.push_back({offset, buffers[i]});
    offsets.push_back(offset);
  }
  ASSERT_TRUE(backend->read_batch(requests).is_ok());
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(buffers[i].data(), content_.data() + offsets[i],
                             buffers[i].size()))
        << "request " << i;
  }
}

TEST_P(BackendTest, LargeBatchExceedingQueueDepth) {
  // More requests than the ring/queue depth forces multi-round submission.
  BackendOptions options;
  options.queue_depth = 8;
  options.io_threads = 2;
  auto result = open_backend(path_, GetParam(), options);
  ASSERT_TRUE(result.is_ok());
  const auto backend = std::move(result).value();

  std::vector<std::vector<std::uint8_t>> buffers(100);
  std::vector<ReadRequest> requests;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    buffers[i].resize(512);
    requests.push_back({i * 512, buffers[i]});
  }
  ASSERT_TRUE(backend->read_batch(requests).is_ok());
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(buffers[i].data(), content_.data() + i * 512,
                             512));
  }
}

TEST_P(BackendTest, BatchWithBadRequestFails) {
  const auto backend = open();
  std::vector<std::uint8_t> good(64);
  std::vector<std::uint8_t> bad(64);
  std::vector<ReadRequest> requests{{0, good},
                                    {content_.size() - 1, bad}};  // past EOF
  EXPECT_FALSE(backend->read_batch(requests).is_ok());
}

TEST_P(BackendTest, EmptyBatchSucceeds) {
  const auto backend = open();
  EXPECT_TRUE(backend->read_batch({}).is_ok());
}

TEST_P(BackendTest, OpenMissingFileFails) {
  const auto result = open_backend(dir_->file("missing.bin"), GetParam());
  EXPECT_FALSE(result.is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendTest,
    ::testing::Values(BackendKind::kPread, BackendKind::kMmap,
                      BackendKind::kUring, BackendKind::kThreadAsync),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      std::string name{backend_name(info.param)};
      name.erase(std::remove(name.begin(), name.end(), '_'), name.end());
      return name;
    });

TEST(BackendNames, ParseRoundTrip) {
  EXPECT_EQ(parse_backend("pread").value(), BackendKind::kPread);
  EXPECT_EQ(parse_backend("mmap").value(), BackendKind::kMmap);
  EXPECT_EQ(parse_backend("uring").value(), BackendKind::kUring);
  EXPECT_EQ(parse_backend("io_uring").value(), BackendKind::kUring);
  EXPECT_EQ(parse_backend("threads").value(), BackendKind::kThreadAsync);
  EXPECT_EQ(parse_backend("async").value(), BackendKind::kThreadAsync);
  EXPECT_FALSE(parse_backend("floppy").is_ok());
}

TEST(OpenBest, ReturnsAWorkingBackend) {
  repro::TempDir dir{"io-test"};
  const auto content = patterned_bytes(8192);
  const auto path = dir.file("best.bin");
  ASSERT_TRUE(repro::write_file(path, content).is_ok());
  auto result = open_best(path);
  ASSERT_TRUE(result.is_ok());
  std::vector<std::uint8_t> buffer(8192);
  ASSERT_TRUE(result.value()->read_at(0, buffer).is_ok());
  EXPECT_EQ(buffer, content);
}

TEST(UringLen, ClampSplitsOversizedReads) {
  // push_read once truncated >4GiB lengths through a uint32_t cast; reads
  // are now clamped to kMaxUringReadBytes and continue via the short-read
  // path.
  EXPECT_EQ(clamp_uring_read_len(0), 0U);
  EXPECT_EQ(clamp_uring_read_len(1), 1U);
  EXPECT_EQ(clamp_uring_read_len(kMaxUringReadBytes - 1),
            static_cast<std::uint32_t>(kMaxUringReadBytes - 1));
  EXPECT_EQ(clamp_uring_read_len(kMaxUringReadBytes),
            static_cast<std::uint32_t>(kMaxUringReadBytes));
  EXPECT_EQ(clamp_uring_read_len(kMaxUringReadBytes + 1),
            static_cast<std::uint32_t>(kMaxUringReadBytes));
  EXPECT_EQ(clamp_uring_read_len((1ULL << 32) + 5),
            static_cast<std::uint32_t>(kMaxUringReadBytes));
  EXPECT_EQ(clamp_uring_read_len(std::numeric_limits<std::uint64_t>::max()),
            static_cast<std::uint32_t>(kMaxUringReadBytes));
}

TEST(UringFallback, SetupFailureDegradesOpenBest) {
  if (!uring_available()) GTEST_SKIP() << "io_uring unavailable";
  repro::TempDir dir{"io-test"};
  const auto content = patterned_bytes(8192);
  const auto path = dir.file("fallback.bin");
  ASSERT_TRUE(repro::write_file(path, content).is_ok());

  set_uring_setup_failure_for_testing(true);
  auto result = open_best(path);
  set_uring_setup_failure_for_testing(false);

  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value()->name(), "threads");
  std::vector<std::uint8_t> buffer(8192);
  ASSERT_TRUE(result.value()->read_at(0, buffer).is_ok());
  EXPECT_EQ(buffer, content);
}

TEST(UringFallback, MidBatchSubmitFailureDegradesToThreads) {
  if (!uring_available()) GTEST_SKIP() << "io_uring unavailable";
  repro::TempDir dir{"io-test"};
  const auto content = patterned_bytes(64 * 1024);
  const auto path = dir.file("midbatch.bin");
  ASSERT_TRUE(repro::write_file(path, content).is_ok());

  auto result = open_backend(path, BackendKind::kUring);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto backend = std::move(result).value();

  std::vector<std::vector<std::uint8_t>> buffers(32);
  std::vector<ReadRequest> requests;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    buffers[i].resize(2048);
    requests.push_back({i * 2048, buffers[i]});
  }

  set_uring_submit_failures_for_testing(1);
  const Status status = backend->read_batch(requests);
  set_uring_submit_failures_for_testing(0);

  // The batch must still succeed — served by the threads backend after the
  // forced submit failure — with correct bytes and a counted fallback.
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(buffers[i].data(), content.data() + i * 2048,
                             2048))
        << "request " << i;
  }
  EXPECT_GE(backend->stats().fallbacks, 1U);

  // Later batches keep flowing through the fallback backend.
  std::vector<std::uint8_t> again(4096);
  std::vector<ReadRequest> more{{0, again}};
  ASSERT_TRUE(backend->read_batch(more).is_ok());
  EXPECT_EQ(0, std::memcmp(again.data(), content.data(), again.size()));
}

// A batch that fails part-way must reap its other reads before returning:
// otherwise they land in buffers the caller has freed, and their stale
// completions mark the wrong requests done for the ring's next owner.
TEST(UringFallback, FailedBatchReapsReadsBeforeTheRingIsReused) {
  if (!uring_available()) GTEST_SKIP() << "io_uring unavailable";
  repro::TempDir dir{"io-test"};
  const auto shrinking = dir.file("shrinking.bin");
  const auto original = patterned_bytes(256 * 1024);
  ASSERT_TRUE(repro::write_file(shrinking, original).is_ok());
  {
    auto result = open_backend(shrinking, BackendKind::kUring);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const auto backend = std::move(result).value();
    // The backend sized the file at open; its second half is now gone, so
    // those reads hit EOF in the kernel while the first half's succeed.
    std::filesystem::resize_file(shrinking, 128 * 1024);
    std::vector<std::vector<std::uint8_t>> buffers(64);
    std::vector<ReadRequest> requests;
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      buffers[i].resize(4096);
      requests.push_back({i * 4096, buffers[i]});
    }
    EXPECT_FALSE(backend->read_batch(requests).is_ok());

    // The same ring's next batch sees none of the failed batch's
    // completions: the surviving half reads back intact.
    const std::size_t surviving = buffers.size() / 2;
    for (std::size_t i = 0; i < surviving; ++i) {
      std::fill(buffers[i].begin(), buffers[i].end(), 0);
    }
    std::span<ReadRequest> first_half(requests.data(), surviving);
    ASSERT_TRUE(backend->read_batch(first_half).is_ok());
    for (std::size_t i = 0; i < surviving; ++i) {
      EXPECT_EQ(0, std::memcmp(buffers[i].data(),
                               original.data() + i * 4096, 4096))
          << "request " << i;
    }
  }

  const auto content = patterned_bytes(256 * 1024 + 77);
  const auto intact = dir.file("intact.bin");
  ASSERT_TRUE(repro::write_file(intact, content).is_ok());
  for (int round = 0; round < 20; ++round) {
    auto result = open_backend(intact, BackendKind::kUring);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    std::vector<std::uint8_t> buffer(content.size());
    std::vector<ReadRequest> requests;
    for (std::size_t offset = 0; offset < buffer.size(); offset += 4096) {
      const std::size_t len =
          std::min<std::size_t>(4096, buffer.size() - offset);
      requests.push_back({offset, {buffer.data() + offset, len}});
    }
    ASSERT_TRUE(result.value()->read_batch(requests).is_ok()) << round;
    ASSERT_EQ(buffer, content) << "round " << round;
  }
}

TEST(Mmap, EmptyFileWorks) {
  repro::TempDir dir{"io-test"};
  const auto path = dir.file("empty.bin");
  ASSERT_TRUE(repro::write_file(path, {}).is_ok());
  auto result = open_backend(path, BackendKind::kMmap);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value()->size(), 0U);
  EXPECT_TRUE(result.value()->read_at(0, {}).is_ok());
}

}  // namespace
}  // namespace repro::io
