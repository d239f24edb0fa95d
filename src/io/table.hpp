// Fixed-width ASCII table writer used by the reports to print their
// tables.
#pragma once

#include <string>
#include <vector>

namespace vrdf::io {

class Table {
public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must have as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders with column separators and a header rule.
  [[nodiscard]] std::string to_string() const;

private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vrdf::io
