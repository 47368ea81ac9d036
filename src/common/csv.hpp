// Minimal CSV reading/writing for experiment artifacts.
//
// The benches persist every reproduced table/figure as a CSV next to the
// console output so downstream plotting does not have to re-run experiments.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace goodones::common {

/// A rectangular CSV table: one header row plus data rows of equal width.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header);

  const std::vector<std::string>& header() const noexcept { return header_; }
  const std::vector<std::vector<std::string>>& rows() const noexcept { return rows_; }
  std::size_t num_rows() const noexcept { return rows_.size(); }
  std::size_t num_cols() const noexcept { return header_.size(); }

  /// Appends a row; width must match the header. Throws PreconditionError.
  void add_row(std::vector<std::string> row);

  /// Column index by header name; throws PreconditionError if absent.
  std::size_t column_index(const std::string& name) const;

  /// Writes to a file with RFC-4180-style quoting of fields containing
  /// commas, quotes or newlines. Throws std::runtime_error on I/O failure.
  void write(const std::filesystem::path& path) const;

  /// Serializes to a CSV string (used by write and by tests).
  std::string to_string() const;

  /// Parses a CSV string (quoting-aware). Throws on ragged rows.
  static CsvTable parse(const std::string& text);

  /// Reads and parses a CSV file.
  static CsvTable read(const std::filesystem::path& path);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double compactly (6 significant digits, no trailing zeros).
std::string format_double(double value);

}  // namespace goodones::common
