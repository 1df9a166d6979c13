// Minimal declarative command-line parser used by the examples and benches.
//
// Supports `--key value`, `--key=value` and boolean `--flag` forms, typed
// accessors with defaults, and generates a usage string. Unknown arguments
// are an error so typos in sweep scripts fail loudly instead of silently
// running the default experiment, and the typed accessors parse strictly:
// "4x4", "1e" or an out-of-range value raises a CliError naming the flag
// instead of being silently truncated the way the std::stoll family would.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nestflow {

/// Structured accessor error: carries the offending flag's name so drivers
/// can report "--seeds: malformed unsigned integer 'eight'" rather than a
/// bare parse failure. what() contains the full message.
class CliError : public std::runtime_error {
 public:
  CliError(std::string_view flag, const std::string& message)
      : std::runtime_error("--" + std::string(flag) + ": " + message),
        flag_(flag) {}

  /// The flag the bad value was passed to, without the leading dashes.
  [[nodiscard]] const std::string& flag() const noexcept { return flag_; }

 private:
  std::string flag_;
};

/// The exception boundary of every command-line driver: `main` returns
/// run_cli_main("name", run, argc, argv). Any std::exception escaping
/// `body` — a CliError from a typed accessor, a std::invalid_argument from
/// a topology or workload spec, an EngineError — is printed as
/// "<program>: <message>" on stderr and becomes exit status 2, instead of
/// reaching std::terminate and aborting.
[[nodiscard]] int run_cli_main(std::string_view program,
                               int (*body)(int, char**), int argc,
                               char** argv);

class CliParser {
 public:
  /// program_name and description feed the usage text.
  CliParser(std::string program_name, std::string description);

  /// Declares an option. Every option must be declared before parse().
  /// `help` is shown in usage; `default_value` is the textual default
  /// (empty optional = required for value options, "false" for flags).
  void add_option(std::string name, std::string help,
                  std::optional<std::string> default_value);
  void add_flag(std::string name, std::string help);

  /// Parses argv. Returns false (after printing usage) on --help or error.
  /// On error, `error()` holds a message.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::string usage() const;

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get_string(std::string_view name) const;
  /// Numeric accessors parse the WHOLE value strictly (std::from_chars):
  /// trailing junk ("8x"), a bare sign, overflow, or — for get_uint — a
  /// negative number all throw CliError naming the flag. get_double accepts
  /// fixed and scientific notation ("2e-4") but not hex floats, and rejects
  /// nan, inf and -inf: no flag means anything by a non-finite value.
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] std::uint64_t get_uint(std::string_view name) const;
  /// get_uint that also rejects 0 (a sample count, where 0 would report
  /// an empty sample as a result).
  [[nodiscard]] std::uint64_t get_positive_uint(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  /// get_double that also rejects a negative value (a quantum, a latency).
  [[nodiscard]] double get_non_negative_double(std::string_view name) const;
  /// Accepts true/false, 1/0, yes/no, on/off; anything else is a CliError.
  [[nodiscard]] bool get_bool(std::string_view name) const;

  /// Comma-separated list of integers, e.g. "2,4,8" (strict per element).
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      std::string_view name) const;
  /// Comma-separated list of strings.
  [[nodiscard]] std::vector<std::string> get_string_list(
      std::string_view name) const;

 private:
  struct Option {
    std::string help;
    std::optional<std::string> default_value;
    bool is_flag = false;
  };

  const Option& find(std::string_view name) const;
  std::optional<std::string> value_of(std::string_view name) const;

  std::string program_name_;
  std::string description_;
  std::string error_;
  std::map<std::string, Option, std::less<>> options_;
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace nestflow
