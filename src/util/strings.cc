#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace cousins {

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseNonNegativeInt(std::string_view s, int64_t* out) {
  // from_chars accepts a leading '-'; a sign is malformed here.
  if (s.empty() || s[0] == '-') return false;
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = value;
  return true;
}

std::string FormatHalfDistance(int twice_distance) {
  std::string out = std::to_string(twice_distance / 2);
  if (twice_distance % 2 != 0) out += ".5";
  return out;
}

std::string TruncateForDisplay(std::string_view s, size_t max_bytes) {
  if (s.size() <= max_bytes) return std::string(s);
  return std::string(s.substr(0, max_bytes)) + "...";
}

std::string_view StripUtf8Bom(std::string_view s) {
  if (s.size() >= 3 && static_cast<unsigned char>(s[0]) == 0xEF &&
      static_cast<unsigned char>(s[1]) == 0xBB &&
      static_cast<unsigned char>(s[2]) == 0xBF) {
    return s.substr(3);
  }
  return s;
}

TextPosition LineColumnAt(std::string_view text, size_t offset) {
  if (offset > text.size()) offset = text.size();
  TextPosition pos;
  size_t i = 0;
  while (i < offset) {
    char c = text[i];
    if (c == '\r') {
      // "\r\n" is one break; never let the '\n' of a CRLF pair count
      // again, even when `offset` lands between the two bytes.
      if (i + 1 < text.size() && text[i + 1] == '\n' && i + 1 < offset) {
        ++i;
      }
      ++pos.line;
      pos.column = 1;
    } else if (c == '\n') {
      ++pos.line;
      pos.column = 1;
    } else {
      ++pos.column;
    }
    ++i;
  }
  return pos;
}

}  // namespace cousins
