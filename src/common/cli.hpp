// Tiny command-line flag parser shared by the CLIs, benches and examples.
//
// Supported syntax: `--key=value`, `--key value`, and boolean `--flag`.
// Every program names its flags in require_known_flags, so a typo fails
// loudly instead of being ignored.  The parser also honours the
// PARMIS_FULL environment variable, which switches every bench from its
// scaled default budget to paper scale.
#ifndef PARMIS_COMMON_CLI_HPP
#define PARMIS_COMMON_CLI_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace parmis {

/// Parsed command line: flag map + positional arguments.
class CliArgs {
 public:
  /// Parses argv (argv[0] is skipped).  A bare `--flag` named in
  /// `switches` never takes the next token as its value, so
  /// `--strict in.json` keeps `in.json` positional.  Throws
  /// parmis::Error on malformed input such as an empty flag name.
  static CliArgs parse(int argc, const char* const* argv,
                       const std::vector<std::string>& switches = {});

  /// True if the flag was given (with or without a value).
  bool has(const std::string& key) const;

  /// Returns the string value of a flag, or `fallback` if absent.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Returns the flag as a finite decimal number, or `fallback` if
  /// absent.  Throws parmis::Error unless the whole value parses and is
  /// finite: `2s`, `inf`, `1e400` and a bare `--key` are refused.
  double get_double(const std::string& key, double fallback) const;

  /// Returns the flag as a boolean (a bare `--key` is true), or
  /// `fallback` if absent.  Throws parmis::Error on any other word.
  bool get_bool(const std::string& key, bool fallback) const;

  /// Returns the flag as a decimal count, or `fallback` if absent.
  /// Throws parmis::Error unless the value is digits only, fits in 64
  /// bits and is at least `min`: `3x`, `-1` and a bare `--key` are
  /// refused rather than read as 3, 2^64 - 1 or the fallback.
  std::uint64_t get_count(const std::string& key, std::uint64_t fallback,
                          std::uint64_t min = 0) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were parsed, for unknown-flag validation by the caller.
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::optional<std::string>> flags_;
  std::vector<std::string> positional_;
};

/// True when paper-scale budgets were requested (--full or PARMIS_FULL=1).
bool full_scale_requested(const CliArgs& args);

/// Throws parmis::Error naming the first flag outside `known` and, unless
/// `allow_positional`, the first positional argument.
void require_known_flags(const CliArgs& args,
                         const std::vector<std::string>& known,
                         bool allow_positional = false);

/// Runs a program body and maps any parmis::Error (a bad flag, a failed
/// cell) to exit 2 with one line on stderr.
int guarded_main(int argc, char** argv,
                 const std::function<int(const CliArgs&)>& body);

}  // namespace parmis

#endif  // PARMIS_COMMON_CLI_HPP
