#include "support/strings.hpp"

#include <cctype>
#include <sstream>

namespace lucid {

std::uint64_t fnv1a64(std::string_view data, std::uint64_t h) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::ostringstream os;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) os << sep;
    os << parts[i];
  }
  return os.str();
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::size_t count_loc(std::string_view text) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line = trim(text.substr(
        start, nl == std::string_view::npos ? nl : nl - start));
    if (!line.empty() && !starts_with(line, "//")) ++count;
    if (nl == std::string_view::npos) return count;
    start = nl + 1;
  }
}

std::optional<int> parse_positive_int(std::string_view s) {
  if (s.empty()) return std::nullopt;
  const std::string str(s);
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(str, &used);
  } catch (...) {
    return std::nullopt;
  }
  if (used != str.size() || value <= 0) return std::nullopt;
  return value;
}

std::string indent(std::string_view text, int n) {
  const std::string pad(static_cast<std::size_t>(n), ' ');
  std::ostringstream os;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line =
        text.substr(start, nl == std::string_view::npos ? nl : nl - start);
    if (!line.empty()) os << pad << line;
    if (nl == std::string_view::npos) break;
    os << "\n";
    start = nl + 1;
  }
  return os.str();
}

}  // namespace lucid
