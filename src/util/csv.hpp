// Minimal CSV writer used by examples and bench harnesses to export
// experiment series. Values are quoted only when needed (comma, quote, or
// newline present); numbers are written with full round-trip precision by
// format_double, which the NDJSON sink shares.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace dtmsv::util {

/// Row-oriented CSV document builder.
class CsvWriter {
 public:
  /// Sets the header; must be called before any row is appended.
  void set_header(std::vector<std::string> columns);

  /// Appends a row; width must match the header when one is set.
  void add_row(std::vector<std::string> cells);

  /// Braced-list convenience (avoids vector<double> iterator-pair ambiguity
  /// for string-literal rows).
  void add_row(std::initializer_list<std::string> cells) {
    add_row(std::vector<std::string>(cells));
  }

  /// Convenience: formats doubles with round-trip precision.
  void add_row(const std::vector<double>& cells);

  std::size_t row_count() const { return rows_.size(); }

  /// Serialises to CSV text.
  std::string to_string() const;

  /// Writes to a file; throws RuntimeError on I/O failure.
  void write_file(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with enough digits to round-trip.
std::string format_double(double v);

}  // namespace dtmsv::util
