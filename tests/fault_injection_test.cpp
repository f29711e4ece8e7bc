// Failure-injection tests: corrupt metadata, corrupt/truncated checkpoint
// files, and I/O backends that fail mid-batch. The invariant under test is
// uniform: every fault surfaces as a clean error Status — never a crash,
// hang, or silently wrong comparison result.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/fs.hpp"
#include "common/rng.hpp"
#include "compare/comparator.hpp"
#include "io/fault.hpp"
#include "io/stream.hpp"
#include "merkle/flat.hpp"
#include "sim/workload.hpp"

namespace repro {
namespace {

merkle::TreeParams tree_params() {
  merkle::TreeParams params;
  params.chunk_bytes = 4096;
  params.hash.error_bound = 1e-5;
  return params;
}

void write_pair(const TempDir& dir, const std::vector<float>& values) {
  for (const char* name : {"a", "b"}) {
    ckpt::CheckpointWriter writer("test", name, 1, 0);
    ASSERT_TRUE(writer.add_field_f32("X", values).is_ok());
    const auto path = dir.file(std::string(name) + ".ckpt");
    ASSERT_TRUE(writer.write(path).is_ok());
    const auto tree = merkle::TreeBuilder(tree_params(), par::Exec::serial())
                          .build(writer.data_section());
    ASSERT_TRUE(tree.is_ok());
    ASSERT_TRUE(
        merkle::save_flat(tree.value(), path.string() + ".rmrk").is_ok());
  }
}

/// Read a sidecar blob the way every reader does: adopt it, then take its
/// single tree.
Status open_sole_tree(std::vector<std::uint8_t> bytes) {
  REPRO_ASSIGN_OR_RETURN(const merkle::MappedBundle sidecar,
                         merkle::MappedBundle::from_bytes(std::move(bytes)));
  return sidecar.sole_tree().status();
}

cmp::CompareOptions compare_options() {
  cmp::CompareOptions options;
  options.error_bound = 1e-5;
  options.tree = tree_params();
  options.backend = io::BackendKind::kPread;
  options.build_metadata_if_missing = false;
  return options;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : dir_{"fault-test"} {
    values_ = sim::generate_field(20000, 1);
    write_pair(dir_, values_);
  }

  void corrupt_file(const std::filesystem::path& path, std::size_t offset,
                    std::size_t length, std::uint8_t fill) {
    auto bytes = read_file(path).value();
    ASSERT_LE(offset + length, bytes.size());
    std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(offset), length,
                fill);
    ASSERT_TRUE(write_file(path, bytes).is_ok());
  }

  void truncate_file(const std::filesystem::path& path, std::size_t size) {
    auto bytes = read_file(path).value();
    bytes.resize(std::min(bytes.size(), size));
    ASSERT_TRUE(write_file(path, bytes).is_ok());
  }

  TempDir dir_;
  std::vector<float> values_;
};

TEST_F(FaultInjectionTest, CorruptMetadataMagicIsCleanError) {
  corrupt_file(dir_.file("a.ckpt.rmrk"), 0, 4, 0xFF);
  const auto report =
      cmp::compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                         compare_options());
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruptData);
}

TEST_F(FaultInjectionTest, TruncatedMetadataIsCleanError) {
  truncate_file(dir_.file("b.ckpt.rmrk"), 100);
  const auto report =
      cmp::compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                         compare_options());
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruptData);
}

TEST_F(FaultInjectionTest, FlippedDigestBitsNeverHideDifferences) {
  // Corrupting digest bytes may cause spurious *flags* (false positives are
  // harmless — stage 2 verifies), but the verified diff count must not
  // change: the comparison still reports ground truth. A raw byte flip is
  // caught by the sidecar's section checksum, so the wrong digests are
  // written through save_flat to reach the comparator.
  const auto path = dir_.file("a.ckpt.rmrk");
  const auto pristine =
      merkle::MappedBundle::open(path).value().sole_tree().value()
          .materialize().value();
  std::vector<hash::Digest128> nodes(pristine.nodes().begin(),
                                     pristine.nodes().end());
  nodes[9] = nodes[10] = {0xA5A5A5A5A5A5A5A5ULL, 0xA5A5A5A5A5A5A5A5ULL};
  const auto corrupted = merkle::MerkleTree::from_parts(
      pristine.params(), pristine.data_bytes(), pristine.num_chunks(),
      std::move(nodes));
  ASSERT_TRUE(corrupted.is_ok());
  ASSERT_TRUE(merkle::save_flat(corrupted.value(), path).is_ok());
  const auto report =
      cmp::compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                         compare_options());
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().values_exceeding, 0U);  // files are identical
}

TEST_F(FaultInjectionTest, TruncatedCheckpointIsCleanError) {
  truncate_file(dir_.file("a.ckpt"), ckpt::kHeaderBytes + 1000);
  const auto report =
      cmp::compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                         compare_options());
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruptData);
}

TEST_F(FaultInjectionTest, GarbageCheckpointHeaderIsCleanError) {
  corrupt_file(dir_.file("b.ckpt"), 0, 64, 0x00);
  const auto report =
      cmp::compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                         compare_options());
  ASSERT_FALSE(report.is_ok());
}

TEST_F(FaultInjectionTest, RandomMetadataMutationNeverCrashes) {
  // Deterministic fuzz: mutate random bytes of the sidecar and open it.
  // Every outcome must be a tree or a clean error.
  const auto pristine = read_file(dir_.file("a.ckpt.rmrk")).value();
  Xoshiro256 rng(99);
  int ok_count = 0;
  int error_count = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = pristine;
    const int mutations = 1 + static_cast<int>(rng.next_below(8));
    for (int m = 0; m < mutations; ++m) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<std::uint8_t>(rng.next());
    }
    const Status opened = open_sole_tree(std::move(mutated));
    if (opened.is_ok()) {
      ++ok_count;  // mutation hit unchecksummed padding: still valid
    } else {
      ++error_count;
      EXPECT_FALSE(opened.message().empty());
    }
  }
  EXPECT_EQ(ok_count + error_count, 500);
}

TEST_F(FaultInjectionTest, RandomTruncationNeverCrashes) {
  const auto pristine = read_file(dir_.file("a.ckpt.rmrk")).value();
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cut = rng.next_below(pristine.size());
    EXPECT_FALSE(open_sole_tree({pristine.begin(), pristine.begin() + cut})
                     .is_ok());  // any strict prefix is invalid
  }
}

TEST_F(FaultInjectionTest, StreamerSurvivesBackendFailureMidStream) {
  // Ask the streamer for chunks beyond EOF: the producer thread must record
  // the error, stop, and next() must terminate (no hang, no crash).
  auto backend_a = io::open_backend(dir_.file("a.ckpt"),
                                    io::BackendKind::kPread);
  auto backend_b = io::open_backend(dir_.file("b.ckpt"),
                                    io::BackendKind::kPread);
  ASSERT_TRUE(backend_a.is_ok());
  ASSERT_TRUE(backend_b.is_ok());
  std::vector<std::uint64_t> chunks{0, 1, 1000000};  // last is way past EOF
  io::StreamOptions options;
  options.slice_bytes = 4096;  // one chunk per slice: first two succeed
  io::PairedChunkStreamer streamer(*backend_a.value(), *backend_b.value(),
                                   4096, (1ULL << 40), chunks, options);
  int slices = 0;
  while (streamer.next() != nullptr) ++slices;
  EXPECT_FALSE(streamer.status().is_ok());
  EXPECT_LE(slices, 2);
}

TEST_F(FaultInjectionTest, DeltaOfCorruptFileIsCleanError) {
  // Checkpoint data region corrupted after metadata capture: stage 2 reads
  // the corrupted bytes and reports them as differences — detection, not
  // failure (the bytes are readable, just wrong).
  corrupt_file(dir_.file("b.ckpt"), ckpt::kHeaderBytes + 8192, 4096, 0x42);
  const auto report =
      cmp::compare_files(dir_.file("a.ckpt"), dir_.file("b.ckpt"),
                         compare_options());
  ASSERT_TRUE(report.is_ok());
  // Stale metadata says "identical", so the corruption is NOT found by the
  // hash stage — the documented contract is that metadata must be captured
  // from the data it describes. This test pins that contract.
  EXPECT_EQ(report.value().chunks_flagged, 0U);
}

// --- Backend x fault matrix ------------------------------------------------
//
// Every IoBackend, wrapped in the FaultInjectingBackend, must stream byte-
// identical results under every recoverable fault kind, and surface a clean
// kIoError (no crash, no hang, no silent corruption) on non-retryable ones.

enum class FaultMode {
  kShortRead,
  kInterruptStorm,
  kTransientEio,
  kBitflip,
  kHardError,
};

const char* fault_mode_name(FaultMode mode) {
  switch (mode) {
    case FaultMode::kShortRead: return "ShortRead";
    case FaultMode::kInterruptStorm: return "InterruptStorm";
    case FaultMode::kTransientEio: return "TransientEio";
    case FaultMode::kBitflip: return "Bitflip";
    case FaultMode::kHardError: return "HardError";
  }
  return "?";
}

io::FaultPlan plan_for(FaultMode mode) {
  io::FaultPlan plan;
  plan.seed = 42;
  switch (mode) {
    case FaultMode::kShortRead: plan.short_read_prob = 1.0; break;
    case FaultMode::kInterruptStorm: plan.interrupt_prob = 1.0; break;
    case FaultMode::kTransientEio: plan.transient_eio_prob = 1.0; break;
    case FaultMode::kBitflip: plan.bitflip_prob = 1.0; break;
    case FaultMode::kHardError: plan.hard_error_prob = 1.0; break;
  }
  return plan;
}

class BackendFaultMatrixTest
    : public ::testing::TestWithParam<std::tuple<io::BackendKind, FaultMode>> {
 protected:
  static constexpr std::uint64_t kChunkBytes = 4096;
  static constexpr std::uint64_t kChunks = 16;
  static constexpr std::uint64_t kDataBytes = kChunks * kChunkBytes;

  BackendFaultMatrixTest() : dir_{"fault-matrix"} {
    data_.resize(kDataBytes);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    EXPECT_TRUE(write_file(path(), data_).is_ok());
  }

  [[nodiscard]] std::filesystem::path path() const {
    return dir_.file("data.bin");
  }

  /// Stream every chunk of run A through the streamer's retry loop and
  /// reassemble the delivered bytes. One chunk per slice so each batch holds
  /// one request and the whole-batch retry advances one fault schedule at a
  /// time.
  std::pair<Status, std::vector<std::uint8_t>> stream_all(io::IoBackend& a,
                                                          io::IoBackend& b) {
    std::vector<std::uint64_t> chunks(kChunks);
    std::iota(chunks.begin(), chunks.end(), 0);
    io::StreamOptions options;
    options.slice_bytes = kChunkBytes;
    options.retry.max_attempts = 16;
    options.retry.backoff_initial_us = 1;
    options.retry.backoff_max_us = 50;
    io::PairedChunkStreamer streamer(a, b, kChunkBytes, kDataBytes, chunks,
                                     options);
    std::vector<std::uint8_t> out(kDataBytes, 0);
    while (io::ChunkSlice* slice = streamer.next()) {
      for (const auto& placement : slice->placements) {
        std::memcpy(out.data() + placement.chunk * kChunkBytes,
                    slice->data_a.data() + placement.buffer_offset,
                    placement.length);
      }
    }
    return {streamer.status(), std::move(out)};
  }

  TempDir dir_;
  std::vector<std::uint8_t> data_;
};

TEST_P(BackendFaultMatrixTest, RecoversOrFailsCleanly) {
  const auto [kind, mode] = GetParam();
  if (kind == io::BackendKind::kUring && !io::uring_available()) {
    GTEST_SKIP() << "io_uring unavailable in this environment";
  }

  auto inner = io::open_backend(path(), kind);
  ASSERT_TRUE(inner.is_ok()) << inner.status().to_string();
  io::FaultInjectingBackend faulty(std::move(inner).value(), plan_for(mode));
  auto clean = io::open_backend(path(), io::BackendKind::kPread);
  ASSERT_TRUE(clean.is_ok());

  auto [status, bytes] = stream_all(faulty, *clean.value());

  switch (mode) {
    case FaultMode::kShortRead:
    case FaultMode::kInterruptStorm:
    case FaultMode::kTransientEio:
      // Recoverable: the retry loop must converge on byte-identical output.
      ASSERT_TRUE(status.is_ok()) << status.to_string();
      EXPECT_EQ(bytes, data_);
      EXPECT_GT(faulty.injected().total(), 0U);
      break;
    case FaultMode::kBitflip:
      // Silent corruption: I/O succeeds but the payload differs — only the
      // element-wise comparison downstream can catch this.
      ASSERT_TRUE(status.is_ok()) << status.to_string();
      EXPECT_NE(bytes, data_);
      EXPECT_GT(faulty.injected().bitflips, 0U);
      break;
    case FaultMode::kHardError:
      // Non-retryable: a clean error Status, not a hang or a crash.
      ASSERT_FALSE(status.is_ok());
      EXPECT_EQ(status.code(), StatusCode::kIoError);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BackendFaultMatrixTest,
    ::testing::Combine(::testing::Values(io::BackendKind::kPread,
                                         io::BackendKind::kMmap,
                                         io::BackendKind::kUring,
                                         io::BackendKind::kThreadAsync),
                       ::testing::Values(FaultMode::kShortRead,
                                         FaultMode::kInterruptStorm,
                                         FaultMode::kTransientEio,
                                         FaultMode::kBitflip,
                                         FaultMode::kHardError)),
    [](const ::testing::TestParamInfo<BackendFaultMatrixTest::ParamType>&
           info) {
      return std::string{io::backend_name(std::get<0>(info.param))} + "_" +
             fault_mode_name(std::get<1>(info.param));
    });

TEST(FaultBackendTest, InjectionIsDeterministicAcrossInstances) {
  TempDir dir{"fault-determinism"};
  std::vector<std::uint8_t> data(8192, 0x5A);
  ASSERT_TRUE(write_file(dir.file("d.bin"), data).is_ok());

  io::FaultPlan plan;
  plan.seed = 7;
  plan.bitflip_prob = 0.5;

  auto run_once = [&] {
    auto inner = io::open_backend(dir.file("d.bin"), io::BackendKind::kPread);
    EXPECT_TRUE(inner.is_ok());
    io::FaultInjectingBackend faulty(std::move(inner).value(), plan);
    std::vector<std::uint8_t> out(data.size());
    for (std::uint64_t offset = 0; offset < data.size(); offset += 1024) {
      EXPECT_TRUE(
          faulty
              .read_at(offset, std::span<std::uint8_t>(out.data() + offset,
                                                       1024))
              .is_ok());
    }
    return out;
  };

  EXPECT_EQ(run_once(), run_once());  // same seed, same flipped bits
}

TEST(FaultBackendTest, RetriesExhaustedSurfacesAsIoError) {
  // A storm longer than the retry budget must end in a clean kIoError that
  // mentions the exhaustion, not spin forever.
  TempDir dir{"fault-exhaust"};
  std::vector<std::uint8_t> data(4096, 1);
  ASSERT_TRUE(write_file(dir.file("d.bin"), data).is_ok());

  io::FaultPlan plan;
  plan.interrupt_prob = 1.0;
  plan.storm_length = 1000;  // never ends within the budget

  auto inner_a = io::open_backend(dir.file("d.bin"), io::BackendKind::kPread);
  auto inner_b = io::open_backend(dir.file("d.bin"), io::BackendKind::kPread);
  ASSERT_TRUE(inner_a.is_ok());
  ASSERT_TRUE(inner_b.is_ok());
  io::FaultInjectingBackend faulty(std::move(inner_a).value(), plan);

  std::vector<std::uint64_t> chunks{0};
  io::StreamOptions options;
  options.retry.max_attempts = 3;
  options.retry.backoff_initial_us = 1;
  options.retry.backoff_max_us = 10;
  io::PairedChunkStreamer streamer(faulty, *inner_b.value(), 4096, 4096,
                                   chunks, options);
  while (streamer.next() != nullptr) {
  }
  const Status status = streamer.status();
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("retries exhausted"), std::string::npos);
}

}  // namespace
}  // namespace repro
