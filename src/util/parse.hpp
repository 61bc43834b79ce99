// Strict, typed number parsing for configuration surfaces.
//
// Every user-facing text field that must hold a number (workflow attributes,
// CLI flags, fault specs) goes through parse_number so malformed input
// raises a papar::ConfigError naming the offending field instead of an
// untyped std::invalid_argument (or worse, silently truncating).
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/error.hpp"

namespace papar {

/// Parses the *entire* string as a number of type T. Throws ConfigError
/// naming `what` on empty input, trailing garbage, or overflow, and for
/// floating-point T on `nan` and `inf`: no knob means anything non-finite,
/// and NaN slips through every `x < lo || x > hi` range check.
template <typename T>
T parse_number(std::string_view text, std::string_view what) {
  T value{};
  const char* first = text.data();
  const char* last = first + text.size();
  const auto res = std::from_chars(first, last, value);
  if (res.ec == std::errc::result_out_of_range) {
    throw ConfigError(std::string(what) + ": value `" + std::string(text) +
                      "` is out of range");
  }
  if (res.ec != std::errc() || res.ptr != last || text.empty()) {
    throw ConfigError(std::string(what) + ": expected a number, got `" +
                      std::string(text) + "`");
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      throw ConfigError(std::string(what) + ": expected a finite number, got `" +
                        std::string(text) + "`");
    }
  }
  return value;
}

/// Parses a byte size with an optional K/M/G suffix (powers of 1024,
/// case-insensitive, trailing "B" allowed: "64K", "512MB", "1g", "4096").
/// Throws ConfigError naming `what` on malformed input or overflow.
inline std::size_t parse_byte_size(std::string_view text, std::string_view what) {
  std::size_t suffix_len = 0;
  std::size_t multiplier = 1;
  std::string_view digits = text;
  if (!digits.empty() && (digits.back() == 'b' || digits.back() == 'B')) {
    digits.remove_suffix(1);
    suffix_len = 1;
  }
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'k': case 'K': multiplier = std::size_t{1} << 10; break;
      case 'm': case 'M': multiplier = std::size_t{1} << 20; break;
      case 'g': case 'G': multiplier = std::size_t{1} << 30; break;
      default: multiplier = 1; break;
    }
    if (multiplier != 1) digits.remove_suffix(1);
  }
  (void)suffix_len;  // a bare "B" suffix ("4096B") is accepted
  const std::size_t value = parse_number<std::size_t>(digits, what);
  if (multiplier != 1 && value > (std::size_t(-1) / multiplier)) {
    throw ConfigError(std::string(what) + ": value `" + std::string(text) +
                      "` is out of range");
  }
  return value * multiplier;
}

}  // namespace papar
