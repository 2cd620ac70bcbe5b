#include "util/string_util.h"

#include <cerrno>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace bsg {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  BSG_CHECK(needed >= 0, "vsnprintf failure");
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

Result<int> ParseInt(const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      v < INT_MIN || v > INT_MAX) {
    return Status::InvalidArgument("expected an integer, got '" + s + "'");
  }
  return static_cast<int>(v);
}

std::vector<std::string> SplitString(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  BSG_CHECK(row.size() == header_.size(), "row width mismatch");
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      line += (c == 0) ? "| " : " | ";
      line += row[c];
      line += std::string(widths[c] - row[c].size(), ' ');
    }
    line += " |\n";
    return line;
  };
  std::string out = render_row(header_);
  std::string sep = "|";
  for (size_t c = 0; c < widths.size(); ++c) {
    sep += std::string(widths[c] + 2, '-') + "|";
  }
  out += sep + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace bsg
