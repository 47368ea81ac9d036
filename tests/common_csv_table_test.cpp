#include <gtest/gtest.h>

#include <filesystem>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace goodones::common {
namespace {

TEST(Csv, RoundTripPlainFields) {
  CsvTable table({"a", "b", "c"});
  table.add_row({"1", "2", "3"});
  table.add_row({"x", "y", "z"});
  const CsvTable parsed = CsvTable::parse(table.to_string());
  EXPECT_EQ(parsed.header(), table.header());
  EXPECT_EQ(parsed.rows(), table.rows());
}

TEST(Csv, QuotesFieldsWithCommasAndQuotes) {
  CsvTable table({"name", "note"});
  table.add_row({"a,b", "he said \"hi\""});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("\"a,b\""), std::string::npos);
  EXPECT_NE(text.find("\"he said \"\"hi\"\"\""), std::string::npos);
  const CsvTable parsed = CsvTable::parse(text);
  EXPECT_EQ(parsed.rows()[0][0], "a,b");
  EXPECT_EQ(parsed.rows()[0][1], "he said \"hi\"");
}

TEST(Csv, HandlesEmbeddedNewlineInQuotedField) {
  CsvTable table({"a", "b"});
  table.add_row({"line1\nline2", "x"});
  const CsvTable parsed = CsvTable::parse(table.to_string());
  EXPECT_EQ(parsed.rows()[0][0], "line1\nline2");
}

TEST(Csv, AddRowRejectsWrongWidth) {
  CsvTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), PreconditionError);
}

TEST(Csv, ParseRejectsRaggedRows) {
  EXPECT_THROW((void)CsvTable::parse("a,b\n1,2,3\n"), PreconditionError);
}

TEST(Csv, ColumnIndexLookup) {
  CsvTable table({"alpha", "beta"});
  EXPECT_EQ(table.column_index("beta"), 1u);
  EXPECT_THROW((void)table.column_index("gamma"), PreconditionError);
}

TEST(Csv, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "goodones_csv_test.csv";
  CsvTable table({"k", "v"});
  table.add_row({"key", "value,with,commas"});
  table.write(path);
  const CsvTable parsed = CsvTable::read(path);
  EXPECT_EQ(parsed.rows()[0][1], "value,with,commas");
  std::filesystem::remove(path);
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW((void)CsvTable::read("/nonexistent/definitely/not/here.csv"),
               std::runtime_error);
}

TEST(Csv, ToleratesCrlf) {
  const CsvTable parsed = CsvTable::parse("a,b\r\n1,2\r\n");
  EXPECT_EQ(parsed.num_rows(), 1u);
  EXPECT_EQ(parsed.rows()[0][1], "2");
}

TEST(AsciiTable, RendersHeaderAndRows) {
  AsciiTable table("Demo", {"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", fixed(2.5, 1)});
  const std::string text = table.render();
  EXPECT_NE(text.find("Demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
  EXPECT_NE(text.find("+"), std::string::npos);
}

TEST(AsciiTable, RejectsWrongWidthRow) {
  AsciiTable table("T", {"a", "b"});
  EXPECT_THROW(table.add_row({"1"}), PreconditionError);
}

TEST(Formatting, FixedPrecision) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-0.5, 3), "-0.500");
}

TEST(Formatting, SignedPercent) {
  EXPECT_EQ(signed_percent(0.275, 1), "+27.5%");
  EXPECT_EQ(signed_percent(-0.05, 1), "-5.0%");
}

TEST(Formatting, FormatDoubleCompact) {
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.5), "0.5");
}

}  // namespace
}  // namespace goodones::common
