#include "util/cli.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"

namespace ftspan {

Cli::Cli(int argc, const char* const* argv) {
  FTSPAN_REQUIRE(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2)
      throw std::invalid_argument("unexpected argument: " + arg +
                                  " (flags must look like --name[=value])");
    arg.erase(0, 2);
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // boolean switch
    }
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

std::uint64_t Cli::get_uint(const std::string& name,
                            std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  try {
    std::size_t consumed = 0;
    value = std::stoll(it->second, &consumed);
    if (consumed != it->second.size())
      throw std::invalid_argument("trailing characters");
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name +
                                " expects a non-negative integer, got '" +
                                it->second + "'");
  }
  if (value < 0)
    throw std::invalid_argument("--" + name + " must be non-negative, got " +
                                it->second);
  return static_cast<std::uint64_t>(value);
}

std::optional<std::string> Cli::unknown_flag(
    std::span<const std::string_view> known) const {
  for (const auto& [name, value] : values_)
    if (std::find(known.begin(), known.end(), name) == known.end())
      return name;
  return std::nullopt;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

}  // namespace ftspan
