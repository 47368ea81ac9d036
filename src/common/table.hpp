// ASCII table rendering for bench output. Each bench prints the paper-style
// rows through this so the console reproduction of every table/figure is
// uniformly formatted and easy to diff across runs.
#pragma once

#include <string>
#include <vector>

namespace goodones::common {

/// Column-aligned ASCII table with a title and a header row.
class AsciiTable {
 public:
  AsciiTable(std::string title, std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Renders the full table (title, rule, header, rule, rows, rule).
  std::string render() const;

  /// Renders and writes to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision formatting helper for table cells.
std::string fixed(double value, int precision = 3);

/// Formats a ratio as a signed percentage string, e.g. +27.5%.
std::string signed_percent(double fraction, int precision = 1);

}  // namespace goodones::common
