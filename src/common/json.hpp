// Minimal JSON emission helpers shared by every writer that hand-rolls JSON:
// telemetry (metrics snapshots, Chrome trace events, run reports), the
// divergence ledger, structured log lines, and the service wire protocol.
// Emission only — the matching parser lives in telemetry/json_parse.hpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace repro {

/// Appends `text` to `out` with JSON string escaping (quotes, backslash,
/// control characters). Does not add the surrounding quotes.
inline void json_append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Appends a quoted, escaped JSON string.
inline void json_append_string(std::string& out, std::string_view text) {
  out += '"';
  json_append_escaped(out, text);
  out += '"';
}

/// Appends a number. Integers in the double-exact range print without a
/// fractional part so counters round-trip as integers; NaN/Inf (not
/// representable in JSON) degrade to 0.
inline void json_append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += '0';
    return;
  }
  constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53
  if (value == std::floor(value) && std::fabs(value) < kExactIntLimit) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  out += buf;
}

inline void json_append_number(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

/// Appends `"key":` as the next member of a flat JSON object, preceded by a
/// comma unless `*first` (which is then cleared). Every reply payload and
/// log record the service writes is built from the append_kv family.
inline void json_append_key(std::string& out, std::string_view key,
                            bool* first) {
  if (!*first) out += ',';
  *first = false;
  json_append_string(out, key);
  out += ':';
}

inline void append_kv(std::string& out, std::string_view key,
                      std::uint64_t value, bool* first) {
  json_append_key(out, key, first);
  json_append_number(out, value);
}

inline void append_kv(std::string& out, std::string_view key, double value,
                      bool* first) {
  json_append_key(out, key, first);
  json_append_number(out, value);
}

inline void append_kv(std::string& out, std::string_view key,
                      std::string_view value, bool* first) {
  json_append_key(out, key, first);
  json_append_string(out, value);
}

/// Named apart from append_kv so a string literal can never bind to bool.
inline void append_kv_bool(std::string& out, std::string_view key, bool value,
                           bool* first) {
  json_append_key(out, key, first);
  out += value ? "true" : "false";
}

}  // namespace repro
