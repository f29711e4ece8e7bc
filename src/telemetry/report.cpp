#include "telemetry/report.hpp"

#include "common/build_info.hpp"
#include "common/fs.hpp"
#include "common/json.hpp"

namespace repro::telemetry {

void RunReport::add_info(std::string_view key, std::string_view value) {
  info_.emplace_back(std::string{key}, std::string{value});
}

void RunReport::add_value(std::string_view key, double value) {
  values_.emplace_back(std::string{key}, value);
}

std::string RunReport::to_json() const {
  std::string out;
  out.reserve(2048);
  out += "{\n  \"tool\": ";
  json_append_string(out, tool_);
  if (!verdict_.empty()) {
    out += ",\n  \"verdict\": ";
    json_append_string(out, verdict_);
  }
  // Build provenance makes artifacts from different machines attributable:
  // a cross-machine verdict mismatch can be triaged as toolchain vs. data.
  const BuildInfo build = repro::build_info();
  out += ",\n  \"provenance\": {\"compiler\": ";
  json_append_string(out, build.compiler);
  out += ", \"build_type\": ";
  json_append_string(out, build.build_type);
  out += ", \"version\": ";
  json_append_string(out, build.version);
  out += ", \"simd_level\": ";
  json_append_string(out, build.simd_level);
  out += "}";
  out += ",\n  \"info\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, key);
    out += ": ";
    json_append_string(out, value);
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"values\": {";
  first = true;
  for (const auto& [key, value] : values_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, key);
    out += ": ";
    json_append_number(out, value);
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"timers\": {";
  first = true;
  for (const std::string& name : timers_.names()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    out += ": ";
    json_append_number(out, timers_.seconds(name));
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"metrics\": ";
  if (have_metrics_) {
    // Indent the nested snapshot document to keep the report readable.
    const std::string metrics_json = metrics_.to_json();
    for (const char c : metrics_json) {
      out += c;
      if (c == '\n') out += "  ";
    }
  } else {
    out += "{}";
  }
  out += "\n}\n";
  return out;
}

repro::Status RunReport::write_json(const std::filesystem::path& path) const {
  const std::string json = to_json();
  return repro::write_file(
             path, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(json.data()),
                       json.size()))
      .with_context("writing run report");
}

}  // namespace repro::telemetry
