// Checkpoint file format ("RCKP", version 1).
//
// Models the VELOC-captured HACC checkpoints of Table 1: a set of named
// typed fields (X, Y, Z, VX, VY, VZ, PHI — all F32 for HACC) captured for
// one (run, iteration, rank). Layout:
//
//   [header, padded to 4 KiB] [data section: field payloads, concatenated]
//
// The Merkle tree covers the *data section only*, so two runs whose headers
// differ (run ids of different length) still chunk identically, and the data
// section starts 4 KiB-aligned, which keeps scattered chunk reads aligned.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "merkle/tree.hpp"

namespace repro::ckpt {

/// Fixed header region size; header + field table must fit.
inline constexpr std::uint64_t kHeaderBytes = 4096;

struct FieldInfo {
  std::string name;
  merkle::ValueKind kind = merkle::ValueKind::kF32;
  std::uint64_t element_count = 0;
  /// Byte offset of this field's payload within the data section.
  std::uint64_t data_offset = 0;

  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return element_count * merkle::value_size(kind);
  }
};

struct CheckpointInfo {
  std::string application;  ///< e.g. "haccette"
  std::string run_id;       ///< e.g. "run-1"
  std::uint64_t iteration = 0;
  std::uint32_t rank = 0;
  std::vector<FieldInfo> fields;

  [[nodiscard]] std::uint64_t data_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& field : fields) total += field.byte_size();
    return total;
  }

  /// Field containing data-section byte `offset`, or nullptr.
  [[nodiscard]] const FieldInfo* field_at(std::uint64_t offset) const noexcept;
};

/// Accumulates fields in memory, then writes header + data in one pass.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string application, std::string run_id,
                   std::uint64_t iteration, std::uint32_t rank);

  /// Append a field; data is copied. Field names must be unique.
  repro::Status add_field_f32(std::string name, std::span<const float> values);
  repro::Status add_field_f64(std::string name,
                              std::span<const double> values);
  repro::Status add_field_bytes(std::string name,
                                std::span<const std::uint8_t> bytes);

  [[nodiscard]] const CheckpointInfo& info() const noexcept { return info_; }
  [[nodiscard]] std::span<const std::uint8_t> data_section() const noexcept {
    return data_;
  }

  /// Write the checkpoint file: the encoded header, then the data section
  /// straight from this writer's buffer (no whole-file copy).
  repro::Status write(const std::filesystem::path& path) const;

 private:
  repro::Status add_field(std::string name, merkle::ValueKind kind,
                          std::span<const std::uint8_t> bytes,
                          std::uint64_t element_count);

  CheckpointInfo info_;
  std::vector<std::uint8_t> data_;
};

/// Parses the header of a checkpoint file; field data is read on demand so
/// the comparison runtime never loads bulk data it can prune.
class CheckpointReader {
 public:
  static repro::Result<CheckpointReader> open(
      const std::filesystem::path& path);

  [[nodiscard]] const CheckpointInfo& info() const noexcept { return info_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  /// File offset of the data section (== kHeaderBytes for version 1).
  [[nodiscard]] std::uint64_t data_offset() const noexcept {
    return kHeaderBytes;
  }
  [[nodiscard]] std::uint64_t data_bytes() const noexcept {
    return info_.data_bytes();
  }

  /// Read the whole data section (used by capture-time tree building and by
  /// the AllClose baseline, which has no streaming).
  [[nodiscard]] repro::Result<std::vector<std::uint8_t>> read_data() const;

  /// Read one field's payload.
  [[nodiscard]] repro::Result<std::vector<std::uint8_t>> read_field(
      std::string_view name) const;

 private:
  std::filesystem::path path_;
  CheckpointInfo info_;
};

/// Serialize / parse the header block (exposed for tests).
repro::Result<std::vector<std::uint8_t>> encode_header(
    const CheckpointInfo& info);
repro::Result<CheckpointInfo> decode_header(
    std::span<const std::uint8_t> header);

}  // namespace repro::ckpt
