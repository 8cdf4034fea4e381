#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace dtmsv::util {

namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

[[noreturn]] void bad_line(std::size_t line, const std::string& why) {
  throw RuntimeError("config parse error at line " + std::to_string(line) +
                     ": " + why);
}

/// Strips an inline comment: whitespace followed by '#' or ';'. A marker
/// not preceded by whitespace — or one opening the string, as in
/// `color = #ff0000` after the value is isolated — is kept.
std::string strip_inline_comment(const std::string& s) {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if ((s[i] == '#' || s[i] == ';') &&
        std::isspace(static_cast<unsigned char>(s[i - 1]))) {
      return s.substr(0, i);
    }
  }
  return s;
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string raw;
  std::string section;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line.front() == '#' || line.front() == ';') {
      continue;
    }
    if (line.front() == '[') {
      const std::string header = trim(strip_inline_comment(line));
      if (header.back() != ']') {
        bad_line(line_no, "unterminated section header '" + header + "'");
      }
      section = trim(header.substr(1, header.size() - 2));
      if (section.empty()) {
        bad_line(line_no, "empty section name");
      }
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      bad_line(line_no, "expected 'key = value', got '" +
                            trim(strip_inline_comment(line)) + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    if (key.empty()) {
      bad_line(line_no, "empty key");
    }
    const std::string full = section.empty() ? key : section + "." + key;
    if (config.values_.count(full) != 0) {
      bad_line(line_no, "duplicate key '" + full + "'");
    }
    // Comment stripping happens on the isolated value, so a value *opening*
    // with '#' ("color = #ff0000") survives.
    config.values_[full] = trim(strip_inline_comment(trim(line.substr(eq + 1))));
  }
  return config;
}

Config Config::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw RuntimeError("cannot open config file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

const std::string* Config::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return nullptr;
  }
  read_.insert(key);
  return &it->second;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

const std::string& Config::get(const std::string& key) const {
  const std::string* value = find(key);
  if (value == nullptr) {
    throw RuntimeError("missing config key '" + key + "'");
  }
  return *value;
}

std::string Config::get_or(const std::string& key,
                           const std::string& fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : *value;
}

double Config::get_double(const std::string& key) const {
  const std::string& text = get(key);
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw RuntimeError("config key '" + key + "': '" + text +
                       "' is not a number");
  }
  return parsed;
}

double Config::get_double_or(const std::string& key, double fallback) const {
  return has(key) ? get_double(key) : fallback;
}

std::uint64_t parse_uint64(const std::string& text, const std::string& what) {
  // strtoull would silently accept "-1" (wrapping) and leading whitespace,
  // so only strings opening with a digit ever reach it.
  const bool starts_with_digit =
      !text.empty() && std::isdigit(static_cast<unsigned char>(text.front()));
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed =
      starts_with_digit ? std::strtoull(text.c_str(), &end, 10) : 0;
  if (!starts_with_digit || *end != '\0' || errno == ERANGE) {
    throw RuntimeError(what + ": '" + text +
                       "' is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(parsed);
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) {
      out += ", ";
    }
    out += item;
  }
  return out;
}

std::uint64_t Config::get_uint64(const std::string& key) const {
  return parse_uint64(get(key), "config key '" + key + "'");
}

std::uint64_t Config::get_uint64_or(const std::string& key,
                                    std::uint64_t fallback) const {
  return has(key) ? get_uint64(key) : fallback;
}

std::size_t Config::get_size(const std::string& key) const {
  return static_cast<std::size_t>(get_uint64(key));
}

std::size_t Config::get_size_or(const std::string& key,
                                std::size_t fallback) const {
  return has(key) ? get_size(key) : fallback;
}

bool Config::get_bool(const std::string& key) const {
  const std::string text = lower(get(key));
  if (text == "true" || text == "yes" || text == "on" || text == "1") {
    return true;
  }
  if (text == "false" || text == "no" || text == "off" || text == "0") {
    return false;
  }
  throw RuntimeError("config key '" + key + "': '" + get(key) +
                     "' is not a boolean (true/false, yes/no, on/off, 1/0)");
}

bool Config::get_bool_or(const std::string& key, bool fallback) const {
  return has(key) ? get_bool(key) : fallback;
}

std::vector<std::string> Config::get_list(const std::string& key) const {
  std::vector<std::string> items;
  const std::string* value = find(key);
  if (value == nullptr) {
    return items;
  }
  std::size_t start = 0;
  while (start <= value->size()) {
    std::size_t comma = value->find(',', start);
    if (comma == std::string::npos) {
      comma = value->size();
    }
    const std::string item = trim(value->substr(start, comma - start));
    if (!item.empty()) {
      items.push_back(item);
    }
    start = comma + 1;
  }
  return items;
}

void Config::set(const std::string& key, const std::string& value) {
  DTMSV_EXPECTS(!trim(key).empty());
  values_[trim(key)] = trim(value);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) {
    (void)value;
    out.push_back(key);
  }
  return out;
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (read_.count(key) == 0) {
      out.push_back(key);
    }
  }
  return out;
}

void Config::reject_unread_keys() const {
  const std::vector<std::string> unread = unread_keys();
  if (!unread.empty()) {
    throw RuntimeError("unknown config keys: " + join(unread));
  }
}

std::string Config::to_string() const {
  // Root keys first (a root key emitted after any section header would
  // reparse into that section), then sectioned keys grouped by last-dot
  // prefix. A section whose sorted keys are interleaved by a nested
  // section's keys ("a.a", "a.b.c", "a.x") is simply reopened — INI
  // permits repeated headers, so the flat map still round-trips.
  std::ostringstream out;
  bool first = true;
  for (const auto& [key, value] : values_) {
    if (key.find('.') == std::string::npos) {
      out << key << " = " << value << "\n";
      first = false;
    }
  }
  std::string current_section;
  for (const auto& [key, value] : values_) {
    const std::size_t dot = key.rfind('.');
    if (dot == std::string::npos) {
      continue;
    }
    const std::string section = key.substr(0, dot);
    if (section != current_section || first) {
      if (!first) {
        out << "\n";
      }
      out << "[" << section << "]\n";
      current_section = section;
      first = false;
    }
    out << key.substr(dot + 1) << " = " << value << "\n";
  }
  return out.str();
}

void Config::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw RuntimeError("cannot write config file: " + path);
  }
  out << to_string();
  if (!out) {
    throw RuntimeError("I/O error writing config file: " + path);
  }
}

}  // namespace dtmsv::util
