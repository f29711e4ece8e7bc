// Tiny flag parser for repro-cli: positional arguments plus --flag value /
// --flag=value pairs, with typed accessors.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace repro::cli {

/// Whole-token number parsing, for flag values and positional arguments
/// alike: nullopt unless the entire token is one number ("2x", "-1" and ""
/// are not unsigned integers).
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view token);
[[nodiscard]] std::optional<double> parse_f64(std::string_view token);

class Args {
 public:
  static repro::Result<Args> parse(int argc, const char* const* argv);

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& flag) const {
    return flags_.contains(flag);
  }

  [[nodiscard]] std::string get(const std::string& flag,
                                std::string fallback) const;
  [[nodiscard]] repro::Result<std::uint64_t> get_u64(
      const std::string& flag, std::uint64_t fallback) const;
  [[nodiscard]] repro::Result<double> get_f64(const std::string& flag,
                                              double fallback) const;
  /// Accepts size suffixes ("4K", "64K", "1M").
  [[nodiscard]] repro::Result<std::uint64_t> get_size(
      const std::string& flag, std::uint64_t fallback) const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

}  // namespace repro::cli
