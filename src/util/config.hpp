// Minimal INI-style configuration parser for the declarative scenario
// configs under configs/ (and any other key=value file). No dependencies
// beyond the standard library, by design: the CLI layer must stay buildable
// in the leanest CI container.
//
// Grammar (line oriented):
//   [section]          -- section header; nested names like [a.b] are fine
//   key = value        -- pair; whitespace around key and value is trimmed,
//                         the value may itself contain '=' characters
//   # comment          -- comments ('#' or ';'): full-line, or inline when
//                         the marker follows whitespace; blank lines skipped
//
// Keys are addressed flat as "section.key" ("key" alone before any section
// header). Malformed input — a line with no '=', an unterminated or empty
// section header, a duplicate key — throws util::RuntimeError naming the
// line number. Typed getters throw util::RuntimeError naming the key on
// missing or unparseable values.
//
// The parser tracks which keys the consumer actually read, so loaders can
// reject typos ("surge_fracton") instead of silently ignoring them — see
// unread_keys(). to_string() serialises back to INI text grouped by
// section; Config::parse(c.to_string()) reproduces the flat key/value map
// exactly (round-trip, pinned by tests/config_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dtmsv::util {

/// Parses a non-negative decimal integer, rejecting signs, partial parses
/// and overflow; throws RuntimeError with `what` naming the value. The
/// primitive behind Config::get_uint64, exposed for command-line values.
std::uint64_t parse_uint64(const std::string& text, const std::string& what);

/// "a, b, c": the items joined by ", ", as error messages list known or
/// offending keys.
std::string join(const std::vector<std::string>& items);

class Config {
 public:
  /// Parses INI text; throws RuntimeError with a line number on malformed
  /// input.
  static Config parse(const std::string& text);
  /// Reads and parses a file; throws RuntimeError if it cannot be opened.
  static Config read_file(const std::string& path);

  /// True when the key is present (does not mark it as read).
  bool has(const std::string& key) const;

  /// Raw string value; throws RuntimeError when missing.
  const std::string& get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;

  /// Typed getters; throw RuntimeError naming the key on a missing value
  /// (non-_or forms) or on text that does not fully parse as the type.
  double get_double(const std::string& key) const;
  double get_double_or(const std::string& key, double fallback) const;
  std::size_t get_size(const std::string& key) const;
  std::size_t get_size_or(const std::string& key, std::size_t fallback) const;
  std::uint64_t get_uint64(const std::string& key) const;
  std::uint64_t get_uint64_or(const std::string& key, std::uint64_t fallback) const;
  /// Accepts true/false, yes/no, on/off, 1/0 (case-insensitive).
  bool get_bool(const std::string& key) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  /// Comma-separated list value, items trimmed, empty items dropped.
  /// Missing key -> empty list.
  std::vector<std::string> get_list(const std::string& key) const;

  /// Inserts or overwrites a key (command-line --set overrides).
  void set(const std::string& key, const std::string& value);

  /// All keys, sorted.
  std::vector<std::string> keys() const;
  /// Keys present in the file that no getter ever touched — the loader's
  /// typo guard.
  std::vector<std::string> unread_keys() const;
  /// Throws RuntimeError listing unread_keys() unless there are none; a
  /// loader calls it after its last getter.
  void reject_unread_keys() const;

  std::size_t size() const { return values_.size(); }

  /// Serialises to INI text grouped by section (root keys first). The flat
  /// key/value map survives a parse() of the result unchanged.
  std::string to_string() const;
  /// Writes to_string() to a file; throws RuntimeError on I/O failure.
  void write_file(const std::string& path) const;

 private:
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace dtmsv::util
