#include "ckpt/format.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.hpp"
#include "common/fs.hpp"

namespace repro::ckpt {

namespace {
constexpr std::uint32_t kMagic = 0x504B4352;  // "RCKP"
constexpr std::uint32_t kVersion = 1;

/// The reader's one read loop: `length` bytes at `offset` of `path`, by
/// positional reads. A file that ends inside the range is CORRUPT_DATA
/// naming `what` (the header, the data section or a field).
repro::Result<std::vector<std::uint8_t>> read_range(
    const std::filesystem::path& path, std::uint64_t offset,
    std::uint64_t length, const std::string& what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return repro::io_error_errno("open checkpoint: " + path.string(), errno);
  }
  std::vector<std::uint8_t> bytes(length);
  std::size_t got = 0;
  repro::Status status;
  while (got < bytes.size()) {
    const ssize_t n = ::pread(fd, bytes.data() + got, bytes.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      status = repro::io_error_errno("read " + what + ": " + path.string(),
                                     errno);
      break;
    }
    if (n == 0) {
      status = repro::corrupt_data("checkpoint ends inside its " + what +
                                   ": " + path.string());
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (!status.is_ok()) return status;
  return bytes;
}
}  // namespace

const FieldInfo* CheckpointInfo::field_at(std::uint64_t offset) const noexcept {
  for (const auto& field : fields) {
    if (offset >= field.data_offset &&
        offset < field.data_offset + field.byte_size()) {
      return &field;
    }
  }
  return nullptr;
}

merkle::ValueKind CheckpointInfo::value_kind() const noexcept {
  if (fields.empty()) return merkle::ValueKind::kBytes;
  const merkle::ValueKind kind = fields.front().kind;
  for (const auto& field : fields) {
    if (field.kind != kind) return merkle::ValueKind::kBytes;
  }
  return kind;
}

CheckpointWriter::CheckpointWriter(std::string application, std::string run_id,
                                   std::uint64_t iteration,
                                   std::uint32_t rank) {
  info_.application = std::move(application);
  info_.run_id = std::move(run_id);
  info_.iteration = iteration;
  info_.rank = rank;
}

repro::Status CheckpointWriter::add_field(std::string name,
                                          merkle::ValueKind kind,
                                          std::span<const std::uint8_t> bytes,
                                          std::uint64_t element_count) {
  for (const auto& field : info_.fields) {
    if (field.name == name) {
      return repro::already_exists("duplicate field: " + name);
    }
  }
  FieldInfo field;
  field.name = std::move(name);
  field.kind = kind;
  field.element_count = element_count;
  field.data_offset = data_.size();
  info_.fields.push_back(std::move(field));
  data_.insert(data_.end(), bytes.begin(), bytes.end());
  return repro::Status::ok();
}

repro::Status CheckpointWriter::add_field_f32(std::string name,
                                              std::span<const float> values) {
  return add_field(std::move(name), merkle::ValueKind::kF32,
                   std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(values.data()),
                       values.size_bytes()),
                   values.size());
}

repro::Status CheckpointWriter::add_field_f64(std::string name,
                                              std::span<const double> values) {
  return add_field(std::move(name), merkle::ValueKind::kF64,
                   std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(values.data()),
                       values.size_bytes()),
                   values.size());
}

repro::Status CheckpointWriter::add_field_bytes(
    std::string name, std::span<const std::uint8_t> bytes) {
  return add_field(std::move(name), merkle::ValueKind::kBytes, bytes,
                   bytes.size());
}

repro::Result<std::vector<std::uint8_t>> encode_header(
    const CheckpointInfo& info) {
  std::vector<std::uint8_t> header;
  header.reserve(kHeaderBytes);
  ByteWriter writer(header);
  writer.put_u32(kMagic);
  writer.put_u32(kVersion);
  writer.put_string(info.application);
  writer.put_string(info.run_id);
  writer.put_u64(info.iteration);
  writer.put_u32(info.rank);
  writer.put_u32(static_cast<std::uint32_t>(info.fields.size()));
  for (const auto& field : info.fields) {
    writer.put_string(field.name);
    writer.put_u8(static_cast<std::uint8_t>(field.kind));
    writer.put_u64(field.element_count);
    writer.put_u64(field.data_offset);
  }
  if (header.size() > kHeaderBytes) {
    return repro::invalid_argument(
        "checkpoint header exceeds fixed header region (" +
        std::to_string(header.size()) + " > " + std::to_string(kHeaderBytes) +
        " bytes); fewer/shorter field names required");
  }
  header.resize(kHeaderBytes, 0);
  return header;
}

repro::Result<CheckpointInfo> decode_header(
    std::span<const std::uint8_t> header) {
  ByteReader reader(header);
  REPRO_ASSIGN_OR_RETURN(const std::uint32_t magic, reader.get_u32());
  if (magic != kMagic) return repro::corrupt_data("bad checkpoint magic");
  REPRO_ASSIGN_OR_RETURN(const std::uint32_t version, reader.get_u32());
  if (version != kVersion) {
    return repro::unsupported("unknown checkpoint version " +
                              std::to_string(version));
  }
  CheckpointInfo info;
  REPRO_ASSIGN_OR_RETURN(info.application, reader.get_string());
  REPRO_ASSIGN_OR_RETURN(info.run_id, reader.get_string());
  REPRO_ASSIGN_OR_RETURN(info.iteration, reader.get_u64());
  REPRO_ASSIGN_OR_RETURN(info.rank, reader.get_u32());
  REPRO_ASSIGN_OR_RETURN(const std::uint32_t field_count, reader.get_u32());
  std::uint64_t expected_offset = 0;
  for (std::uint32_t i = 0; i < field_count; ++i) {
    FieldInfo field;
    REPRO_ASSIGN_OR_RETURN(field.name, reader.get_string());
    REPRO_ASSIGN_OR_RETURN(const std::uint8_t kind, reader.get_u8());
    if (kind > static_cast<std::uint8_t>(merkle::ValueKind::kBytes)) {
      return repro::corrupt_data("bad field value kind");
    }
    field.kind = static_cast<merkle::ValueKind>(kind);
    REPRO_ASSIGN_OR_RETURN(field.element_count, reader.get_u64());
    REPRO_ASSIGN_OR_RETURN(field.data_offset, reader.get_u64());
    if (field.data_offset != expected_offset) {
      return repro::corrupt_data("field offsets not contiguous");
    }
    expected_offset += field.byte_size();
    info.fields.push_back(std::move(field));
  }
  return info;
}

repro::Status CheckpointWriter::write(
    const std::filesystem::path& path) const {
  REPRO_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> header,
                         encode_header(info_));
  // Header and data go out from where they lie: no whole-file copy.
  return repro::write_file(path, {header, data_})
      .with_context("writing checkpoint " + path.string());
}

repro::Result<CheckpointReader> CheckpointReader::open(
    const std::filesystem::path& path) {
  REPRO_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> header,
                         read_range(path, 0, kHeaderBytes, "header"));
  CheckpointReader reader;
  reader.path_ = path;
  REPRO_ASSIGN_OR_RETURN(reader.info_, decode_header(header));

  REPRO_ASSIGN_OR_RETURN(const std::uint64_t size, repro::file_size(path));
  if (size != kHeaderBytes + reader.info_.data_bytes()) {
    return repro::corrupt_data("checkpoint size mismatch: " + path.string());
  }
  return reader;
}

repro::Result<std::vector<std::uint8_t>> CheckpointReader::read_data() const {
  return read_range(path_, kHeaderBytes, info_.data_bytes(), "data section");
}

repro::Result<std::vector<std::uint8_t>> CheckpointReader::read_field(
    std::string_view name) const {
  for (const auto& field : info_.fields) {
    if (field.name == name) {
      return read_range(path_, kHeaderBytes + field.data_offset,
                        field.byte_size(), "field " + field.name);
    }
  }
  return repro::not_found("no field '" + std::string{name} + "' in " +
                          path_.string());
}

}  // namespace repro::ckpt
