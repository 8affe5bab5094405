// Plain-text aligned table printer for command-line reports: nocliques_cli's
// Property (p) curve and the bench/ experiment tables.

#ifndef BDDFC_BASE_TABLE_PRINTER_H_
#define BDDFC_BASE_TABLE_PRINTER_H_

#include <cstdio>
#include <string>
#include <vector>

namespace bddfc {

/// Collects rows of string cells and prints them with aligned columns.
class TablePrinter {
 public:
  /// Creates a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; the row is padded/truncated to the header width.
  void AddRow(std::vector<std::string> cells);

  /// Renders the table (headers, separator, rows) to a string.
  std::string ToString() const;

  /// Prints the table to `out` (defaults to stdout).
  void Print(std::FILE* out = stdout) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Convenience formatting helpers for table cells.
std::string FormatBool(bool b);
std::string FormatDouble(double v, int precision = 2);

}  // namespace bddfc

#endif  // BDDFC_BASE_TABLE_PRINTER_H_
