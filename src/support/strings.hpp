// Small string utilities shared across the compiler and simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lucid {

/// 64-bit FNV-1a over arbitrary bytes, continued from `h` (pass a previous
/// result to hash a sequence of pieces). The hash behind every cache key and
/// structural fingerprint (core/cache, frontend/fingerprint, the native
/// JIT's module and unit caches).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data,
                                    std::uint64_t h = 1469598103934665603ull);

/// Split `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Join `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);

/// Parses the whole of `s` as a positive (> 0) base-10 integer. nullopt on
/// trailing garbage, a non-positive value, or overflow — the strict flavour
/// CLI flags and grid specs need.
[[nodiscard]] std::optional<int> parse_positive_int(std::string_view s);

/// Count the lines of `text` that contain something other than whitespace or
/// a `//` line comment. This is the "lines of code" metric used to reproduce
/// the Figure 9/10 LoC comparisons.
[[nodiscard]] std::size_t count_loc(std::string_view text);

/// Indent every line of `text` by `n` spaces.
[[nodiscard]] std::string indent(std::string_view text, int n);

}  // namespace lucid
