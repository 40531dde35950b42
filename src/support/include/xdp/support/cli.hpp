// Checked parsing of numeric command-line option values, shared by the
// drivers (xdpc, xdp_serve). A malformed value must surface as a usage
// error, not as an exception escaping main() or a silent wrap-around.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace xdp::cli {

/// `text` as a T in [lo, hi], or nullopt when the text is empty, is not a
/// number, has trailing characters, carries a sign an unsigned T cannot
/// take, or names a value outside the type or the range. Leading
/// whitespace and '+' are rejected too (std::from_chars grammar), and a
/// floating-point NaN fails every range.
template <class T>
std::optional<T> parseNumber(std::string_view text, T lo, T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !(v >= lo && v <= hi))
    return std::nullopt;
  return v;
}

}  // namespace xdp::cli
