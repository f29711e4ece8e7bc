#include "diverge/timeline.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/json.hpp"
#include "common/table.hpp"

namespace repro::diverge {

namespace {

/// Worst-rank aggregation of one (iteration, field) cell.
struct Cell {
  std::uint64_t values_exceeding = 0;  ///< summed over ranks
  std::uint64_t chunks_flagged = 0;    ///< summed over ranks
  std::uint64_t chunks_total = 0;      ///< per-rank total × ranks seen
  double max_abs_diff = 0;             ///< max over ranks
  std::uint32_t ranks_diverged = 0;
};

/// ASCII intensity ramp for heatmap cells, lowest to highest.
constexpr std::string_view kRamp = " .:-=+*#%@";

char ramp_char(double fraction) {
  if (fraction <= 0) return kRamp.front();
  const std::size_t last = kRamp.size() - 1;
  const std::size_t index = std::min(
      last, static_cast<std::size_t>(1 + fraction * double(last - 1)));
  return kRamp[index];
}

/// ANSI color for an intensity: green (faint) → yellow → red (severe).
const char* ansi_color(double fraction) {
  if (fraction <= 0) return "\x1b[2m";        // dim
  if (fraction < 0.25) return "\x1b[32m";     // green
  if (fraction < 0.6) return "\x1b[33m";      // yellow
  return "\x1b[31m";                          // red
}

void render_json(const DivergenceLedger& ledger, const LedgerSummary& summary,
                 const std::map<std::pair<std::uint64_t, std::string>, Cell>&
                     cells,
                 std::string& out) {
  out += "{\n  \"schema\": \"repro.divergence.timeline\",\n  \"version\": 1";
  out += ",\n  \"run_a\": ";
  json_append_string(out, ledger.run_a());
  out += ",\n  \"run_b\": ";
  json_append_string(out, ledger.run_b());
  out += ",\n  \"error_bound\": ";
  json_append_number(out, ledger.error_bound());
  out += ",\n  \"first_divergent_iteration\": ";
  if (summary.first_divergent_iteration.has_value()) {
    json_append_number(out, *summary.first_divergent_iteration);
  } else {
    out += "null";
  }
  out += ",\n  \"fields\": [";
  bool first = true;
  for (const FieldSummary& field : summary.fields) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"field\": ";
    json_append_string(out, field.field);
    out += ", \"first_divergent_iteration\": ";
    if (field.first_divergent_iteration.has_value()) {
      json_append_number(out, *field.first_divergent_iteration);
    } else {
      out += "null";
    }
    out += ", \"first_divergent_rank\": ";
    if (field.first_divergent_rank.has_value()) {
      json_append_number(out,
                         static_cast<std::uint64_t>(*field.first_divergent_rank));
    } else {
      out += "null";
    }
    out += ", \"records_diverged\": ";
    json_append_number(out, field.records_diverged);
    out += ", \"peak_max_abs_diff\": ";
    json_append_number(out, field.peak_max_abs_diff);
    out += ", \"severity_growth\": ";
    json_append_number(out, field.severity_growth());
    out += "}";
  }
  out += first ? "]" : "\n  ]";
  out += ",\n  \"ranks\": [";
  first = true;
  for (const RankSummary& rank : summary.ranks) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"rank\": ";
    json_append_number(out, static_cast<std::uint64_t>(rank.rank));
    out += ", \"first_divergent_iteration\": ";
    if (rank.first_divergent_iteration.has_value()) {
      json_append_number(out, *rank.first_divergent_iteration);
    } else {
      out += "null";
    }
    out += "}";
  }
  out += first ? "]" : "\n  ]";
  out += ",\n  \"cells\": [";
  first = true;
  for (const auto& [key, cell] : cells) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"iteration\": ";
    json_append_number(out, key.first);
    out += ", \"field\": ";
    json_append_string(out, key.second);
    out += ", \"values_exceeding\": ";
    json_append_number(out, cell.values_exceeding);
    out += ", \"chunks_flagged\": ";
    json_append_number(out, cell.chunks_flagged);
    out += ", \"chunks_total\": ";
    json_append_number(out, cell.chunks_total);
    out += ", \"max_abs_diff\": ";
    json_append_number(out, cell.max_abs_diff);
    out += ", \"ranks_diverged\": ";
    json_append_number(out, static_cast<std::uint64_t>(cell.ranks_diverged));
    out += "}";
  }
  out += first ? "]" : "\n  ]";
  out += "\n}\n";
}

}  // namespace

std::string render_timeline(const DivergenceLedger& ledger,
                            const TimelineOptions& options) {
  const LedgerSummary summary = ledger.summarize();

  // Aggregate records into (iteration, field) cells and collect the axes.
  std::set<std::uint64_t> iterations;
  std::set<std::string> field_names;
  std::map<std::pair<std::uint64_t, std::string>, Cell> cells;
  for (const LedgerRecord& record : ledger.records()) {
    iterations.insert(record.iteration);
    field_names.insert(record.field);
    Cell& cell = cells[{record.iteration, record.field}];
    cell.values_exceeding += record.values_exceeding;
    cell.chunks_flagged += record.chunks_flagged;
    cell.chunks_total += record.chunks_total;
    cell.max_abs_diff = std::max(cell.max_abs_diff, record.max_abs_diff);
    if (record.diverged()) ++cell.ranks_diverged;
  }

  std::string out;
  if (options.json) {
    render_json(ledger, summary, cells, out);
    return out;
  }

  out += strprintf("Divergence timeline: %s vs %s (eps=%g, %zu records)\n",
                   ledger.run_a().c_str(), ledger.run_b().c_str(),
                   ledger.error_bound(),
                   ledger.records().size());

  // --- iteration × field table. "." = within bound everywhere; otherwise
  // flagged/total chunks and the worst |a-b| across ranks.
  std::vector<std::string> headers{"iter"};
  for (const std::string& name : field_names) headers.push_back(name);
  TextTable table(std::move(headers));
  for (const std::uint64_t iteration : iterations) {
    std::vector<std::string> row{std::to_string(iteration)};
    for (const std::string& name : field_names) {
      const auto it = cells.find({iteration, name});
      if (it == cells.end()) {
        row.push_back("-");  // not captured on this iteration
      } else if (it->second.values_exceeding == 0) {
        row.push_back(".");
      } else {
        row.push_back(strprintf(
            "%llu/%llu |d|=%.2e",
            static_cast<unsigned long long>(it->second.chunks_flagged),
            static_cast<unsigned long long>(it->second.chunks_total),
            it->second.max_abs_diff));
      }
    }
    table.add_row(std::move(row));
  }
  out += table.to_string();

  // --- first-divergence summary.
  if (summary.first_divergent_iteration.has_value()) {
    out += strprintf("\nfirst divergence: iteration %llu\n",
                     static_cast<unsigned long long>(
                         *summary.first_divergent_iteration));
  } else {
    out += "\nno divergence within the error bound\n";
  }
  for (const FieldSummary& field : summary.fields) {
    if (!field.first_divergent_iteration.has_value()) continue;
    out += strprintf(
        "  field %-12s first diverged at iteration %llu (rank %u), "
        "peak |d|=%.2e, severity growth %.2fx\n",
        field.field.c_str(),
        static_cast<unsigned long long>(*field.first_divergent_iteration),
        *field.first_divergent_rank, field.peak_max_abs_diff,
        field.severity_growth());
  }
  for (const RankSummary& rank : summary.ranks) {
    if (!rank.first_divergent_iteration.has_value()) continue;
    out += strprintf("  rank %-3u first diverged at iteration %llu\n",
                     rank.rank,
                     static_cast<unsigned long long>(
                         *rank.first_divergent_iteration));
  }

  // --- chunk-space heatmap per flagged field: one row per iteration, cell
  // intensity = fraction of the bucket's chunk-slots flagged (summed over
  // ranks; a slot is one chunk of one rank).
  for (const std::string& name : field_names) {
    // Skip fields that never flagged a chunk, and "*" records with no
    // chunk-range information.
    std::uint64_t chunk_begin = 0;
    std::uint64_t chunk_count = 0;
    std::uint32_t ranks_seen = 0;
    bool any_flagged = false;
    for (const LedgerRecord& record : ledger.records()) {
      if (record.field != name) continue;
      if (record.chunks_total == 0) continue;
      chunk_begin = record.chunk_begin;
      chunk_count = record.chunks_total;
      ranks_seen = std::max(ranks_seen, record.rank + 1);
      if (record.chunks_flagged > 0) any_flagged = true;
    }
    if (!any_flagged || chunk_count == 0) continue;

    const std::size_t width =
        std::max<std::size_t>(1, std::min<std::size_t>(options.heatmap_width,
                                                       chunk_count));
    const double chunks_per_cell =
        static_cast<double>(chunk_count) / static_cast<double>(width);
    out += strprintf(
        "\nheatmap %s  chunks [%llu, %llu]  (1 cell = %.1f chunks x %u "
        "ranks)\n",
        name.c_str(), static_cast<unsigned long long>(chunk_begin),
        static_cast<unsigned long long>(chunk_begin + chunk_count - 1),
        chunks_per_cell, ranks_seen);

    for (const std::uint64_t iteration : iterations) {
      // Flagged chunk-slots per bucket, summed over this iteration's ranks.
      std::vector<double> flagged(width, 0.0);
      bool have_row = false;
      for (const LedgerRecord& record : ledger.records()) {
        if (record.field != name || record.iteration != iteration) continue;
        have_row = true;
        for (const auto& [lo, hi] : record.flagged_ranges) {
          for (std::uint64_t chunk = lo; chunk <= hi; ++chunk) {
            if (chunk < chunk_begin || chunk >= chunk_begin + chunk_count) {
              continue;
            }
            const std::size_t bucket = static_cast<std::size_t>(
                static_cast<double>(chunk - chunk_begin) / chunks_per_cell);
            flagged[std::min(bucket, width - 1)] += 1.0;
          }
        }
      }
      if (!have_row) continue;
      const double slots_per_cell =
          chunks_per_cell * std::max<std::uint32_t>(1, ranks_seen);
      out += strprintf("  iter %-5llu [",
                       static_cast<unsigned long long>(iteration));
      for (std::size_t cell = 0; cell < width; ++cell) {
        const double fraction =
            std::min(1.0, flagged[cell] / slots_per_cell);
        if (options.ansi) {
          out += ansi_color(fraction);
          out += ramp_char(fraction);
          out += "\x1b[0m";
        } else {
          out += ramp_char(fraction);
        }
      }
      out += "]\n";
    }
  }

  return out;
}

}  // namespace repro::diverge
