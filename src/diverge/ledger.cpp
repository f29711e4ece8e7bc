#include "diverge/ledger.hpp"

#include <algorithm>
#include <map>

#include "common/build_info.hpp"
#include "common/fs.hpp"
#include "common/json.hpp"
#include "telemetry/json_parse.hpp"

namespace repro::diverge {

namespace {

using telemetry::JsonValue;

void append_record_json(std::string& out, const LedgerRecord& record) {
  out += "{\"iteration\": ";
  json_append_number(out, record.iteration);
  out += ", \"rank\": ";
  json_append_number(out, static_cast<std::uint64_t>(record.rank));
  out += ", \"field\": ";
  json_append_string(out, record.field);
  out += ", \"chunk_begin\": ";
  json_append_number(out, record.chunk_begin);
  out += ", \"chunks_total\": ";
  json_append_number(out, record.chunks_total);
  out += ", \"chunks_flagged\": ";
  json_append_number(out, record.chunks_flagged);
  out += ", \"values_compared\": ";
  json_append_number(out, record.values_compared);
  out += ", \"values_exceeding\": ";
  json_append_number(out, record.values_exceeding);
  out += ", \"max_abs_diff\": ";
  json_append_number(out, record.max_abs_diff);
  out += ", \"rel_l2_error\": ";
  json_append_number(out, record.rel_l2_error);
  out += ", \"bytes_read\": ";
  json_append_number(out, record.bytes_read);
  out += ", \"wall_seconds\": ";
  json_append_number(out, record.wall_seconds);
  out += ", \"flagged_ranges\": [";
  bool first = true;
  for (const auto& [lo, hi] : record.flagged_ranges) {
    if (!first) out += ", ";
    first = false;
    out += '[';
    json_append_number(out, lo);
    out += ", ";
    json_append_number(out, hi);
    out += ']';
  }
  out += "]}";
}

repro::Result<LedgerRecord> parse_record(const JsonValue& doc) {
  if (!doc.is_object()) {
    return repro::corrupt_data("ledger record line is not a JSON object");
  }
  LedgerRecord record;
  record.iteration = doc.u64_or("iteration", 0);
  record.rank = static_cast<std::uint32_t>(doc.u64_or("rank", 0));
  record.field = doc.string_or("field", "*");
  record.chunk_begin = doc.u64_or("chunk_begin", 0);
  record.chunks_total = doc.u64_or("chunks_total", 0);
  record.chunks_flagged = doc.u64_or("chunks_flagged", 0);
  record.values_compared = doc.u64_or("values_compared", 0);
  record.values_exceeding = doc.u64_or("values_exceeding", 0);
  record.max_abs_diff = doc.number_or("max_abs_diff", 0);
  record.rel_l2_error = doc.number_or("rel_l2_error", 0);
  record.bytes_read = doc.u64_or("bytes_read", 0);
  record.wall_seconds = doc.number_or("wall_seconds", 0);
  if (const JsonValue* ranges = doc.find("flagged_ranges");
      ranges != nullptr && ranges->is_array()) {
    for (const JsonValue& range : ranges->array) {
      if (!range.is_array() || range.array.size() != 2 ||
          range.array[0].kind != JsonValue::Kind::kNumber ||
          range.array[1].kind != JsonValue::Kind::kNumber) {
        return repro::corrupt_data("malformed flagged_ranges entry");
      }
      record.flagged_ranges.emplace_back(
          static_cast<std::uint64_t>(range.array[0].number),
          static_cast<std::uint64_t>(range.array[1].number));
    }
  }
  return record;
}

}  // namespace

void DivergenceLedger::add_pair(const ckpt::CheckpointPair& pair,
                                const cmp::CompareReport& report) {
  const std::uint64_t iteration = pair.run_a.iteration;
  const std::uint32_t rank = pair.run_a.rank;
  // Pair-level cost: both runs' streamed bytes plus metadata.
  const std::uint64_t bytes_read =
      2 * report.bytes_read_per_file + report.metadata_bytes_read;

  if (report.field_divergences.empty()) {
    // No per-field stats: the whole checkpoint is one "*" slice.
    LedgerRecord record;
    record.iteration = iteration;
    record.rank = rank;
    record.field = "*";
    record.chunks_total = report.chunks_total;
    record.chunks_flagged = report.chunks_flagged;
    record.values_compared = report.values_compared;
    record.values_exceeding = report.values_exceeding;
    record.bytes_read = bytes_read;
    record.wall_seconds = report.total_seconds;
    records_.push_back(std::move(record));
    return;
  }

  for (const cmp::FieldDivergence& field : report.field_divergences) {
    LedgerRecord record;
    record.iteration = iteration;
    record.rank = rank;
    record.field = field.field;
    record.chunk_begin = field.chunk_begin;
    record.chunks_total = field.chunks_total;
    record.chunks_flagged = field.chunks_flagged;
    record.values_compared = field.values_compared;
    record.values_exceeding = field.values_exceeding;
    record.max_abs_diff = field.max_abs_diff;
    record.rel_l2_error = field.rel_l2_error;
    record.bytes_read = bytes_read;
    record.wall_seconds = report.total_seconds;
    record.flagged_ranges = field.flagged_ranges;
    records_.push_back(std::move(record));
  }
}

void DivergenceLedger::add_history(const cmp::HistoryReport& history) {
  for (const auto& [pair, report] : history.pairs) add_pair(pair, report);
}

LedgerSummary DivergenceLedger::summarize() const {
  LedgerSummary summary;
  std::map<std::string, FieldSummary> fields;
  std::map<std::uint32_t, RankSummary> ranks;

  // Records are appended in comparison order, but aggregation must not
  // depend on it: scan for minima/maxima explicitly.
  for (const LedgerRecord& record : records_) {
    FieldSummary& field = fields[record.field];
    field.field = record.field;
    RankSummary& rank = ranks[record.rank];
    rank.rank = record.rank;
    if (!record.diverged()) continue;

    ++field.records_diverged;
    field.peak_max_abs_diff =
        std::max(field.peak_max_abs_diff, record.max_abs_diff);
    if (!field.first_divergent_iteration.has_value() ||
        record.iteration < *field.first_divergent_iteration) {
      field.first_divergent_iteration = record.iteration;
      field.first_divergent_rank = record.rank;
      field.first_max_abs_diff = record.max_abs_diff;
    } else if (record.iteration == *field.first_divergent_iteration) {
      // Same iteration, another rank: report the lowest diverged rank, and
      // let first-iteration severity cover every rank of that iteration.
      field.first_divergent_rank =
          std::min(*field.first_divergent_rank, record.rank);
      field.first_max_abs_diff =
          std::max(field.first_max_abs_diff, record.max_abs_diff);
    }

    if (!rank.first_divergent_iteration.has_value() ||
        record.iteration < *rank.first_divergent_iteration) {
      rank.first_divergent_iteration = record.iteration;
    }
    if (!summary.first_divergent_iteration.has_value() ||
        record.iteration < *summary.first_divergent_iteration) {
      summary.first_divergent_iteration = record.iteration;
    }
  }

  // Severity at the latest diverged iteration per field (any rank).
  for (auto& [name, field] : fields) {
    std::optional<std::uint64_t> last_iteration;
    for (const LedgerRecord& record : records_) {
      if (record.field != name || !record.diverged()) continue;
      if (!last_iteration.has_value() || record.iteration > *last_iteration) {
        last_iteration = record.iteration;
        field.last_max_abs_diff = record.max_abs_diff;
      } else if (record.iteration == *last_iteration) {
        field.last_max_abs_diff =
            std::max(field.last_max_abs_diff, record.max_abs_diff);
      }
    }
  }

  summary.fields.reserve(fields.size());
  for (auto& [name, field] : fields) summary.fields.push_back(std::move(field));
  summary.ranks.reserve(ranks.size());
  for (auto& [id, rank] : ranks) summary.ranks.push_back(rank);
  return summary;
}

repro::Status DivergenceLedger::write_jsonl(
    const std::filesystem::path& path) const {
  std::string out;
  out.reserve(256 + records_.size() * 256);

  const BuildInfo build = repro::build_info();
  out += "{\"schema\": ";
  json_append_string(out, kLedgerSchema);
  out += ", \"version\": ";
  json_append_number(out, static_cast<std::uint64_t>(kLedgerVersion));
  out += ", \"run_a\": ";
  json_append_string(out, run_a_);
  out += ", \"run_b\": ";
  json_append_string(out, run_b_);
  out += ", \"error_bound\": ";
  json_append_number(out, error_bound_);
  out += ", \"provenance\": {\"compiler\": ";
  json_append_string(out, build.compiler);
  out += ", \"build_type\": ";
  json_append_string(out, build.build_type);
  out += ", \"version\": ";
  json_append_string(out, build.version);
  out += ", \"simd_level\": ";
  json_append_string(out, build.simd_level);
  out += "}}\n";

  for (const LedgerRecord& record : records_) {
    append_record_json(out, record);
    out += '\n';
  }

  return repro::write_file(
             path, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(out.data()),
                       out.size()))
      .with_context("writing divergence ledger");
}

repro::Result<DivergenceLedger> DivergenceLedger::load(
    const std::filesystem::path& path) {
  REPRO_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> bytes,
                         repro::read_file(path));
  const std::string_view text(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size());

  DivergenceLedger ledger;
  bool saw_header = false;
  std::size_t pos = 0;
  std::size_t line_number = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    if (line.empty()) continue;

    std::optional<JsonValue> doc = telemetry::json_parse(line);
    if (!doc.has_value()) {
      return repro::corrupt_data("ledger line " +
                                 std::to_string(line_number) +
                                 " is not valid JSON: " + path.string());
    }

    if (!saw_header) {
      const std::string schema = doc->string_or("schema", "");
      if (schema != kLedgerSchema) {
        return repro::corrupt_data("not a divergence ledger (schema \"" +
                                   schema + "\"): " + path.string());
      }
      const std::uint64_t version = doc->u64_or("version", 0);
      if (version == 0 || version > static_cast<std::uint64_t>(kLedgerVersion)) {
        return repro::unsupported("ledger version " +
                                  std::to_string(version) +
                                  " is newer than this build supports (" +
                                  std::to_string(kLedgerVersion) + ")");
      }
      ledger.run_a_ = doc->string_or("run_a", "");
      ledger.run_b_ = doc->string_or("run_b", "");
      ledger.error_bound_ = doc->number_or("error_bound", 0);
      saw_header = true;
      continue;
    }

    REPRO_ASSIGN_OR_RETURN(LedgerRecord record, parse_record(*doc));
    ledger.records_.push_back(std::move(record));
  }

  if (!saw_header) {
    return repro::corrupt_data("empty ledger (no header line): " +
                               path.string());
  }
  return ledger;
}

}  // namespace repro::diverge
