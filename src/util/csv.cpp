#include "util/csv.hpp"

#include <cstdio>
#include <fstream>

namespace dtmsv::util {

namespace {

bool needs_quoting(const std::string& cell) {
  return cell.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quote(const std::string& cell) {
  if (!needs_quoting(cell)) {
    return cell;
  }
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void append_row(std::string& out, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += quote(cells[i]);
  }
  out += '\n';
}

}  // namespace

std::string format_double(double v) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf, static_cast<std::size_t>(n));
}

void CsvWriter::set_header(std::vector<std::string> columns) {
  DTMSV_EXPECTS_MSG(rows_.empty(), "set_header must precede rows");
  header_ = std::move(columns);
}

void CsvWriter::add_row(std::vector<std::string> cells) {
  if (!header_.empty()) {
    DTMSV_EXPECTS_MSG(cells.size() == header_.size(), "row width != header width");
  }
  rows_.push_back(std::move(cells));
}

void CsvWriter::add_row(const std::vector<double>& cells) {
  std::vector<std::string> out;
  out.reserve(cells.size());
  for (const double v : cells) {
    out.push_back(format_double(v));
  }
  add_row(std::move(out));
}

std::string CsvWriter::to_string() const {
  std::string out;
  if (!header_.empty()) {
    append_row(out, header_);
  }
  for (const auto& row : rows_) {
    append_row(out, row);
  }
  return out;
}

void CsvWriter::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw RuntimeError("cannot open for write: " + path);
  }
  os << to_string();
  if (!os) {
    throw RuntimeError("write failed: " + path);
  }
}

}  // namespace dtmsv::util
