// String formatting helpers and a fixed-width ASCII table printer used by the
// benchmark harness to render paper-style tables.
#pragma once

#include <string>
#include <vector>

#include "util/status.h"

namespace bsg {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins parts with a separator.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

/// Strict base-10 integer parse: the whole string must be an integer in
/// int range ("5x", "" and "2147483648" are InvalidArgument).
Result<int> ParseInt(const std::string& s);

/// Splits on a separator character. Adjacent separators produce empty
/// parts; an empty input produces one empty part (inverse of StrJoin).
std::vector<std::string> SplitString(const std::string& s, char sep);

/// Fixed-width table renderer for benchmark/console output.
///
/// Usage:
///   TablePrinter t({"Model", "Acc", "F1"});
///   t.AddRow({"GCN", "77.5", "80.9"});
///   std::string out = t.ToString();
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  /// Renders the table with a separator line below the header.
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bsg
