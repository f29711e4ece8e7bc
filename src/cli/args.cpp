#include "cli/args.hpp"

#include <charconv>

#include "common/bytes.hpp"

namespace repro::cli {

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_f64(std::string_view token) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(std::string(token), &consumed);
    if (consumed != token.size()) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

repro::Result<Args> Args::parse(int argc, const char* const* argv) {
  Args args;
  for (int i = 0; i < argc; ++i) {
    const std::string token = argv[i];
    if (!token.starts_with("--")) {
      args.positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    if (body.empty()) {
      return repro::invalid_argument("bare '--' is not a valid flag");
    }
    const auto equals = body.find('=');
    if (equals != std::string::npos) {
      args.flags_[body.substr(0, equals)] = body.substr(equals + 1);
      continue;
    }
    // "--flag value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string_view{argv[i + 1]}.substr(0, 2) != "--") {
      args.flags_[body] = argv[++i];
    } else {
      args.flags_[body] = "true";
    }
  }
  return args;
}

std::string Args::get(const std::string& flag, std::string fallback) const {
  const auto it = flags_.find(flag);
  return it == flags_.end() ? std::move(fallback) : it->second;
}

repro::Result<std::uint64_t> Args::get_u64(const std::string& flag,
                                           std::uint64_t fallback) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return fallback;
  const std::optional<std::uint64_t> value = parse_u64(it->second);
  if (!value) {
    return repro::invalid_argument("--" + flag + " expects an integer, got '" +
                                   it->second + "'");
  }
  return *value;
}

repro::Result<double> Args::get_f64(const std::string& flag,
                                    double fallback) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return fallback;
  const std::optional<double> value = parse_f64(it->second);
  if (!value) {
    return repro::invalid_argument("--" + flag + " expects a number, got '" +
                                   it->second + "'");
  }
  return *value;
}

repro::Result<std::uint64_t> Args::get_size(const std::string& flag,
                                            std::uint64_t fallback) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return fallback;
  return repro::parse_size(it->second);
}

}  // namespace repro::cli
