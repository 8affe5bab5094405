// Command-line helpers shared by the tools: whole-file reads, "--name=VALUE"
// flag matching, and checked parsing of numeric flag values. Hostile values
// (junk, signs, numbers past std::size_t) get a diagnostic on stderr, never
// an exception or a silently clamped value.

#ifndef BDDFC_TOOLS_CLI_FLAGS_H_
#define BDDFC_TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>

namespace bddfc::cli {

/// Reads the whole file at `path` into `*out`; false if it cannot be
/// opened.
inline bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Accepts "--name=VALUE"; returns the value via `out`.
inline bool FlagValue(std::string_view arg, std::string_view name,
                      std::string_view* out) {
  if (arg.substr(0, name.size()) != name) return false;
  arg.remove_prefix(name.size());
  if (arg.empty() || arg[0] != '=') return false;
  *out = arg.substr(1);
  return true;
}

/// Parses `value` as a non-negative decimal integer into `*out`. On junk,
/// a sign, or a value past std::size_t, prints "<tool>: <flag> ..." to
/// stderr and returns false, leaving `*out` untouched.
inline bool ParseCount(std::string_view value, const char* tool,
                       const char* flag, std::size_t* out) {
  std::size_t parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error == std::errc::result_out_of_range) {
    std::fprintf(stderr, "%s: %s value \"%.*s\" is out of range\n", tool,
                 flag, static_cast<int>(value.size()), value.data());
    return false;
  }
  if (value.empty() || error != std::errc() || stop != end) {
    std::fprintf(stderr,
                 "%s: %s needs a non-negative integer, got \"%.*s\"\n", tool,
                 flag, static_cast<int>(value.size()), value.data());
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace bddfc::cli

#endif  // BDDFC_TOOLS_CLI_FLAGS_H_
