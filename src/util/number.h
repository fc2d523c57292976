// Whole-token number parsing for command-line flags and line protocols.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace jsched::util {

/// Parse all of `text` as a T (an integer or floating-point type) into
/// `out`. The token must be the number and nothing else: no whitespace, no
/// '+', no trailing characters. An integer must lie in T's range (so "-1"
/// is no unsigned value) and spell no fraction or exponent; a
/// floating-point value must be finite. Returns false and leaves `out`
/// unchanged otherwise.
template <class T>
bool parse_number(std::string_view text, T& out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

}  // namespace jsched::util
