#include "io/table.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace vrdf::io {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  VRDF_REQUIRE(!headers_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  VRDF_REQUIRE(cells.size() == headers_.size(),
               "row width must match the header");
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c] << std::string(widths[c] - cells[c].size(), ' ')
         << " |";
    }
    os << '\n';
  };
  emit_row(headers_);
  os << '|';
  for (const std::size_t w : widths) {
    os << std::string(w + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

}  // namespace vrdf::io
