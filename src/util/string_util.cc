#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace smptree {

std::string StringPrintf(const char* format, ...) {
  // One pass into a stack buffer covers nearly every call (numbers, short
  // messages); only output that does not fit is formatted a second time.
  char buf[256];
  va_list ap;
  va_start(ap, format);
  va_list ap_copy;
  va_copy(ap_copy, ap);
  const int needed = std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  std::string out;
  if (needed > 0 && static_cast<size_t>(needed) < sizeof(buf)) {
    out.assign(buf, static_cast<size_t>(needed));
  } else if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, ap_copy);
  }
  va_end(ap_copy);
  return out;
}

std::vector<std::string> SplitString(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool NextLine(std::string_view text, size_t* pos, std::string_view* line) {
  if (*pos >= text.size()) return false;
  const size_t end = std::min(text.find('\n', *pos), text.size());
  *line = text.substr(*pos, end - *pos);
  *pos = end + 1;
  return true;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool ParseDouble(std::string_view s, double* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  // strtoll's grammar: one optional sign, then base-10 digits only.
  const bool plus = !s.empty() && s[0] == '+';
  if (plus) s.remove_prefix(1);
  if (s.empty() || (plus && s[0] == '-')) return false;
  int64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  s = TrimWhitespace(s);
  if (!s.empty() && s[0] == '+') s.remove_prefix(1);
  if (s.empty()) return false;
  uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  *out = v;
  return true;
}

std::string JoinStrings(const std::vector<std::string>& items,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  return StringPrintf("%.1f %s", v, units[u]);
}

}  // namespace smptree
