// Minimal command-line flag parser for examples and benches.
//
// Supports "--name value" and "--name=value" forms plus boolean switches.
// This intentionally covers only what the example/bench binaries need; it is
// not a general argument-parsing framework.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace ftspan {

/// Parses --flag/--flag=value arguments and serves typed lookups.
class Cli {
 public:
  /// Parses argv; throws std::invalid_argument on a malformed flag
  /// (positional arguments are not supported).
  Cli(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value of --name as a string, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;

  /// Value of --name as an integer, or `fallback` when absent.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Value of --name as a non-negative integer, or `fallback` when absent.
  /// Throws std::invalid_argument (naming the flag) on a negative or
  /// non-numeric value — use this for every flag a caller would otherwise
  /// static_cast to an unsigned type, where "--n -5" silently wraps to a
  /// huge count.
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;

  /// Value of --name as a double, or `fallback` when absent.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  /// The first flag given on the command line (in name order) that is not
  /// in `known`, or nullopt when every flag is known — lets a tool reject a
  /// misspelled or unsupported flag instead of silently ignoring it.
  [[nodiscard]] std::optional<std::string> unknown_flag(
      std::span<const std::string_view> known) const;

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace ftspan
