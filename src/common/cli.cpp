#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "common/error.hpp"

namespace parmis {

CliArgs CliArgs::parse(int argc, const char* const* argv,
                       const std::vector<std::string>& switches) {
  CliArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    require(!body.empty(), "empty flag name: '--'");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      out.flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` form: consume the next token iff it is not a flag
    // and the key is not a switch.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 &&
        std::find(switches.begin(), switches.end(), body) == switches.end()) {
      out.flags_[body] = std::string(argv[i + 1]);
      ++i;
    } else {
      out.flags_[body] = std::nullopt;
    }
  }
  return out;
}

bool CliArgs::has(const std::string& key) const { return flags_.count(key); }

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end() || !it->second.has_value()) return fallback;
  return *it->second;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string v = it->second.value_or("");
  double value = 0.0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, value);
  // from_chars takes no leading '+' or space; "inf" and "nan" parse,
  // so finiteness is checked separately.
  require(ec == std::errc() && ptr == end && std::isfinite(value),
          "flag --" + key + " expects a finite number, got '" + v + "'");
  return value;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  if (!it->second.has_value()) return true;  // bare --flag means true
  const std::string& v = *it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  require(false, "flag --" + key + " expects a boolean, got '" + v + "'");
  return fallback;  // unreachable
}

std::uint64_t CliArgs::get_count(const std::string& key,
                                 std::uint64_t fallback,
                                 std::uint64_t min) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string v = it->second.value_or("");
  std::uint64_t value = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, value);
  // from_chars on an unsigned type takes no sign, space or prefix.
  require(ec == std::errc() && ptr == end && value >= min,
          "flag --" + key + " expects an integer >= " + std::to_string(min) +
              ", got '" + v + "'");
  return value;
}

std::vector<std::string> CliArgs::keys() const {
  std::vector<std::string> out;
  out.reserve(flags_.size());
  for (const auto& [k, _] : flags_) out.push_back(k);
  return out;
}

bool full_scale_requested(const CliArgs& args) {
  if (args.get_bool("full", false)) return true;
  if (const char* env = std::getenv("PARMIS_FULL")) {
    return std::string(env) == "1";
  }
  return false;
}

void require_known_flags(const CliArgs& args,
                         const std::vector<std::string>& known,
                         bool allow_positional) {
  for (const std::string& key : args.keys()) {
    require(std::find(known.begin(), known.end(), key) != known.end(),
            "unknown flag --" + key);
  }
  if (allow_positional) return;
  for (const std::string& arg : args.positional()) {
    require(false, "unexpected argument '" + arg + "'");
  }
}

int guarded_main(int argc, char** argv,
                 const std::function<int(const CliArgs&)>& body) {
  try {
    return body(CliArgs::parse(argc, argv));
  } catch (const Error& e) {
    std::cerr << std::filesystem::path(argv[0]).filename().string() << ": "
              << e.what() << "\n";
    return 2;
  }
}

}  // namespace parmis
