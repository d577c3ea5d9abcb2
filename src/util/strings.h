// Small string helpers shared by parsers and report writers.

#ifndef COUSINS_UTIL_STRINGS_H_
#define COUSINS_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cousins {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses `s` as a plain decimal integer in [0, INT64_MAX]: digits
/// only — no sign, no whitespace, no trailing bytes. Returns false
/// (out untouched) on empty, malformed or out-of-range input.
bool ParseNonNegativeInt(std::string_view s, int64_t* out);

/// Formats a half-integer cousin distance (stored as 2*d) as "0", "0.5",
/// "1", "1.5", ... — the notation used throughout the paper.
std::string FormatHalfDistance(int twice_distance);

/// Truncates `s` to at most `max_bytes` bytes for display, appending
/// "..." when anything was dropped.
std::string TruncateForDisplay(std::string_view s, size_t max_bytes);

/// Removes a leading UTF-8 byte-order mark (EF BB BF) if present.
/// Windows editors prepend one; it is never meaningful in Newick/NEXUS.
std::string_view StripUtf8Bom(std::string_view s);

/// A 1-based line/column position inside a text buffer.
struct TextPosition {
  size_t line = 1;
  size_t column = 1;
};

/// Computes the 1-based line/column of byte `offset` in `text`, treating
/// "\r\n" as a single line break and lone '\r' or '\n' as a break each.
/// Offsets past the end clamp to the position one past the last byte.
TextPosition LineColumnAt(std::string_view text, size_t offset);

}  // namespace cousins

#endif  // COUSINS_UTIL_STRINGS_H_
