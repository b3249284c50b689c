// String formatting / parsing helpers shared by CSV, tree serialization and
// the benchmark table printers.

#ifndef SMPTREE_UTIL_STRING_UTIL_H_
#define SMPTREE_UTIL_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace smptree {

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `s` on `delim`; keeps empty fields.
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Reads the line of `text` that starts at `*pos` into `*line` (without its
/// '\n'; the last line may lack one) and moves `*pos` past it. Returns false
/// at the end of `text`, like std::getline at end of stream.
bool NextLine(std::string_view text, size_t* pos, std::string_view* line);

/// Trims ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

/// Parses a double; returns false on any trailing garbage.
bool ParseDouble(std::string_view s, double* out);

/// Parses a signed 64-bit integer; returns false on any trailing garbage.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses an unsigned 64-bit integer; returns false on sign or garbage.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Joins items with `sep`.
std::string JoinStrings(const std::vector<std::string>& items,
                        std::string_view sep);

/// Human-readable byte count ("1.5 MB").
std::string HumanBytes(uint64_t bytes);

}  // namespace smptree

#endif  // SMPTREE_UTIL_STRING_UTIL_H_
