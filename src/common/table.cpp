#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "common/error.hpp"

namespace goodones::common {

AsciiTable::AsciiTable(std::string title, std::vector<std::string> header)
    : title_(std::move(title)), header_(std::move(header)) {
  GO_EXPECTS(!header_.empty());
}

void AsciiTable::add_row(std::vector<std::string> row) {
  GO_EXPECTS(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string AsciiTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto rule = [&] {
    std::string line = "+";
    for (const std::size_t w : widths) line += std::string(w + 2, '-') + "+";
    return line + "\n";
  };
  const auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
    }
    return line + "\n";
  };

  std::ostringstream out;
  out << "\n== " << title_ << " ==\n";
  out << rule() << render_row(header_) << rule();
  for (const auto& row : rows_) out << render_row(row);
  out << rule();
  return out.str();
}

void AsciiTable::print() const {
  std::cout << render() << std::flush;
}

std::string fixed(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string signed_percent(double fraction, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%+.*f%%", precision, fraction * 100.0);
  return buffer;
}

}  // namespace goodones::common
