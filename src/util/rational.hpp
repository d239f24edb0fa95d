// Exact rational arithmetic.
//
// Every time quantity in this library (periods, response times, linear
// bound offsets) is an exact rational number of seconds.  The MP3 case
// study mixes 1/44100 s with 1/48000 s and millisecond response times;
// floating point would turn the paper's exact integral capacity values
// (6014, 3262, 882 before rounding) into 6013.999... artefacts.
//
// Representation: normalized num/den with den > 0, gcd(|num|, den) == 1.
// Intermediate products use __int128; results that do not fit int64 throw
// OverflowError.
#pragma once

#include <charconv>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace vrdf {

class Rational {
public:
  /// Zero.
  constexpr Rational() = default;

  /// Integer value n/1.
  constexpr Rational(std::int64_t n) : num_(n), den_(1) {}  // NOLINT: implicit by design

  /// num/den, normalized; den must be non-zero.
  Rational(std::int64_t num, std::int64_t den);

  [[nodiscard]] constexpr std::int64_t num() const { return num_; }
  [[nodiscard]] constexpr std::int64_t den() const { return den_; }

  [[nodiscard]] constexpr bool is_zero() const { return num_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return num_ < 0; }
  [[nodiscard]] constexpr bool is_positive() const { return num_ > 0; }
  [[nodiscard]] constexpr bool is_integer() const { return den_ == 1; }

  /// Largest integer <= value.
  [[nodiscard]] std::int64_t floor() const;
  /// Smallest integer >= value.
  [[nodiscard]] std::int64_t ceil() const;

  /// Lossy conversion for reporting only; never used in analysis decisions.
  [[nodiscard]] double to_double() const;

  /// "p/q" for non-integers, "p" for integers.
  [[nodiscard]] std::string to_string() const;
  /// Appends to_string() to `out`.
  void append_to(std::string& out) const;

  /// Parses "p", "p/q", or a simple decimal literal like "51.2"; each
  /// integer takes an optional sign ('+' or '-') and no whitespace.
  /// Throws ContractError on malformed input and OverflowError on a value
  /// outside int64.
  [[nodiscard]] static Rational from_string(std::string_view text);

  [[nodiscard]] Rational operator-() const;
  [[nodiscard]] Rational reciprocal() const;

  Rational& operator+=(const Rational& rhs);
  Rational& operator-=(const Rational& rhs);
  Rational& operator*=(const Rational& rhs);
  Rational& operator/=(const Rational& rhs);

  friend Rational operator+(Rational lhs, const Rational& rhs) { return lhs += rhs; }
  friend Rational operator-(Rational lhs, const Rational& rhs) { return lhs -= rhs; }
  friend Rational operator*(Rational lhs, const Rational& rhs) { return lhs *= rhs; }
  friend Rational operator/(Rational lhs, const Rational& rhs) { return lhs /= rhs; }

  friend bool operator==(const Rational& a, const Rational& b) {
    // Normalized representation makes equality structural.
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b);

private:
  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

/// Appends the decimal digits of `value` (with a '-' when negative) to
/// `out`, as std::to_string renders them.
void append_integer(std::string& out, std::int64_t value);

/// std::from_chars over `text` with std::stoll's grammar minus its
/// whitespace skipping: an optional '+' or '-', then digits.  The caller
/// checks that the result ends where `text` does.
[[nodiscard]] std::from_chars_result parse_integer(std::string_view text,
                                                   std::int64_t& value);

/// max by value.
[[nodiscard]] Rational max(const Rational& a, const Rational& b);

namespace rational_literals {
/// 1_r style integer rationals in tests.
inline Rational operator""_r(unsigned long long v) {
  return Rational(static_cast<std::int64_t>(v));
}
}  // namespace rational_literals

}  // namespace vrdf
