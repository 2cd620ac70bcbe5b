// Minimal command-line flag parsing for the example/CLI binaries.
//
//   FlagParser flags(argc, argv, {"stats", "train"});  // declared booleans
//   int k = flags.GetInt("k", 32);
//   std::string preset = flags.GetString("dataset", "twibot20");
//   if (flags.Has("help")) ...
//
// Accepts --name=value and --name value; bare --name acts as boolean true.
// Flags named in the constructor's boolean list never swallow a following
// positional argument: `--stats ids.txt` keeps ids.txt positional, while
// `--stats false` still parses as an explicit boolean value. Numeric
// getters parse strictly — a value with trailing garbage (`--workers=abc`,
// `--rate=0.5x`) aborts naming the flag instead of silently returning 0.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/string_util.h"

namespace bsg {

/// Tiny --flag=value parser; unknown positional args collected separately.
class FlagParser {
 public:
  /// `boolean_flags` names flags that take no value: a bare occurrence is
  /// "true" and a following non-flag token stays positional unless it is a
  /// boolean literal (true/false/0/1), which is consumed as the value.
  FlagParser(int argc, char** argv,
             std::set<std::string> boolean_flags = {}) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      arg = arg.substr(2);
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        continue;
      }
      const bool is_boolean = boolean_flags.count(arg) > 0;
      const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
      const bool next_is_flag =
          next != nullptr && std::string(next).rfind("--", 0) == 0;
      if (next != nullptr && !next_is_flag &&
          (!is_boolean || IsBooleanLiteral(next))) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  /// Strict integer parse: the whole value must be a (signed) decimal
  /// integer in int range; anything else aborts naming the flag.
  int GetInt(const std::string& name, int fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    Result<int> parsed = ParseInt(it->second);
    BSG_CHECK(parsed.ok(), ("flag --" + name + " expects an integer, got '" +
                            it->second + "'")
                               .c_str());
    return parsed.ValueOrDie();
  }

  /// Strict floating-point parse: the whole value must be a number.
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    errno = 0;
    char* end = nullptr;
    double parsed = std::strtod(v.c_str(), &end);
    BSG_CHECK(!v.empty() && end == v.c_str() + v.size() && errno != ERANGE,
              ("flag --" + name + " expects a number, got '" + v + "'")
                  .c_str());
    return parsed;
  }

  bool GetBool(const std::string& name, bool fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second != "false" && it->second != "0";
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  static bool IsBooleanLiteral(const std::string& s) {
    return s == "true" || s == "false" || s == "0" || s == "1";
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace bsg
