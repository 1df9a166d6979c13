#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace nestflow {

namespace {

/// Strict whole-string numeric parse: the value must be entirely consumed
/// and in range, otherwise a CliError names the offending flag. from_chars
/// never consults the locale and rejects leading whitespace, so "  8",
/// "8x" and "" all fail the same way everywhere.
template <typename T>
T parse_number(std::string_view flag, const std::string& text,
               const char* what) {
  T value{};
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    throw CliError(flag, std::string(what) + " out of range '" + text + "'");
  }
  if (ec != std::errc() || ptr != last) {
    throw CliError(flag, std::string("malformed ") + what + " '" + text + "'");
  }
  return value;
}

}  // namespace

int run_cli_main(std::string_view program, int (*body)(int, char**),
                 int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(program.size()),
                 program.data(), error.what());
    return 2;
  }
}

CliParser::CliParser(std::string program_name, std::string description)
    : program_name_(std::move(program_name)),
      description_(std::move(description)) {}

void CliParser::add_option(std::string name, std::string help,
                           std::optional<std::string> default_value) {
  options_.emplace(std::move(name),
                   Option{std::move(help), std::move(default_value), false});
}

void CliParser::add_flag(std::string name, std::string help) {
  options_.emplace(std::move(name),
                   Option{std::move(help), std::string("false"), true});
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (!arg.starts_with("--")) {
      error_ = "unexpected positional argument: " + std::string(arg);
      std::fputs((error_ + "\n" + usage()).c_str(), stderr);
      return false;
    }
    arg.remove_prefix(2);
    std::string key;
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      key = std::string(arg.substr(0, eq));
      inline_value = std::string(arg.substr(eq + 1));
    } else {
      key = std::string(arg);
    }
    const auto it = options_.find(key);
    if (it == options_.end()) {
      error_ = "unknown option: --" + key;
      std::fputs((error_ + "\n" + usage()).c_str(), stderr);
      return false;
    }
    if (it->second.is_flag) {
      values_[key] = inline_value.value_or("true");
    } else if (inline_value) {
      values_[key] = *inline_value;
    } else if (i + 1 < argc) {
      values_[key] = argv[++i];
    } else {
      error_ = "option --" + key + " requires a value";
      std::fputs((error_ + "\n" + usage()).c_str(), stderr);
      return false;
    }
  }
  // Check required options.
  for (const auto& [name, opt] : options_) {
    if (!opt.default_value && !values_.contains(name)) {
      error_ = "missing required option: --" + name;
      std::fputs((error_ + "\n" + usage()).c_str(), stderr);
      return false;
    }
  }
  return true;
}

std::string CliParser::usage() const {
  std::ostringstream out;
  out << program_name_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& [name, opt] : options_) {
    out << "  --" << name;
    if (!opt.is_flag) {
      out << " <value>";
      if (opt.default_value) out << " (default: " << *opt.default_value << ")";
    }
    out << "\n      " << opt.help << "\n";
  }
  out << "  --help\n      show this message\n";
  return out.str();
}

const CliParser::Option& CliParser::find(std::string_view name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) {
    throw std::logic_error("undeclared option queried: " + std::string(name));
  }
  return it->second;
}

std::optional<std::string> CliParser::value_of(std::string_view name) const {
  const Option& opt = find(name);
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  return opt.default_value;
}

bool CliParser::has(std::string_view name) const {
  return values_.contains(name);
}

std::string CliParser::get_string(std::string_view name) const {
  const auto v = value_of(name);
  if (!v) throw std::logic_error("option has no value: " + std::string(name));
  return *v;
}

std::int64_t CliParser::get_int(std::string_view name) const {
  return parse_number<std::int64_t>(name, get_string(name), "integer");
}

std::uint64_t CliParser::get_uint(std::string_view name) const {
  // from_chars on an unsigned type rejects "-1" outright, where stoull
  // would silently wrap it to 18446744073709551615.
  return parse_number<std::uint64_t>(name, get_string(name),
                                     "unsigned integer");
}

double CliParser::get_double(std::string_view name) const {
  const std::string text = get_string(name);
  const double value = parse_number<double>(name, text, "number");
  if (!std::isfinite(value)) {
    throw CliError(name, "non-finite number '" + text + "'");
  }
  return value;
}

std::uint64_t CliParser::get_positive_uint(std::string_view name) const {
  const std::uint64_t value = get_uint(name);
  if (value == 0) throw CliError(name, "must be at least 1, got '0'");
  return value;
}

double CliParser::get_non_negative_double(std::string_view name) const {
  const double value = get_double(name);
  if (value < 0.0) {
    throw CliError(name, "must not be negative, got '" + get_string(name) +
                             "'");
  }
  return value;
}

bool CliParser::get_bool(std::string_view name) const {
  const std::string v = get_string(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw CliError(name, "malformed boolean '" + v +
                           "' (expected true/false, 1/0, yes/no, on/off)");
}

std::vector<std::int64_t> CliParser::get_int_list(std::string_view name) const {
  std::vector<std::int64_t> out;
  for (const auto& tok : get_string_list(name)) {
    out.push_back(parse_number<std::int64_t>(name, tok, "integer"));
  }
  return out;
}

std::vector<std::string> CliParser::get_string_list(
    std::string_view name) const {
  std::vector<std::string> out;
  std::istringstream in(get_string(name));
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

}  // namespace nestflow
