#include "common/csv.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace goodones::common {

namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quote(const std::string& field) {
  if (!needs_quoting(field)) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvTable::CsvTable(std::vector<std::string> header) : header_(std::move(header)) {
  GO_EXPECTS(!header_.empty());
}

void CsvTable::add_row(std::vector<std::string> row) {
  GO_EXPECTS(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw PreconditionError("no such CSV column: " + name);
}

std::string CsvTable::to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i > 0) out << ',';
    out << quote(header_[i]);
  }
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << quote(row[i]);
    }
    out << '\n';
  }
  return out.str();
}

void CsvTable::write(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open CSV for writing: " + path.string());
  file << to_string();
  if (!file) throw std::runtime_error("write failed: " + path.string());
}

CsvTable CsvTable::parse(const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> current;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;

  const auto end_field = [&] {
    current.push_back(field);
    field.clear();
  };
  const auto end_record = [&] {
    end_field();
    records.push_back(std::move(current));
    current.clear();
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_field();
        row_has_content = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_has_content || !field.empty() || !current.empty()) end_record();
        break;
      default:
        field += c;
        row_has_content = true;
        break;
    }
  }
  if (row_has_content || !field.empty() || !current.empty()) end_record();

  GO_EXPECTS(!records.empty());
  CsvTable table(records.front());
  for (std::size_t r = 1; r < records.size(); ++r) table.add_row(records[r]);
  return table;
}

CsvTable CsvTable::read(const std::filesystem::path& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open CSV for reading: " + path.string());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse(buffer.str());
}

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(6);
  out << value;
  return out.str();
}

}  // namespace goodones::common
