#include "util/rational.hpp"

#include <cctype>
#include <limits>
#include <ostream>
#include <system_error>

#include "util/checked_int.hpp"
#include "util/error.hpp"

namespace vrdf {

namespace {

__extension__ typedef __int128 Int128;

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();

std::int64_t narrow_128(Int128 v, const char* what) {
  if (v > static_cast<Int128>(kInt64Max) || v < static_cast<Int128>(kInt64Min)) {
    throw OverflowError(std::string("rational overflow in ") + what);
  }
  return static_cast<std::int64_t>(v);
}

Int128 gcd_128(Int128 a, Int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const Int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

[[noreturn]] void malformed_literal(std::string_view text, const char* why) {
  throw ContractError("malformed rational literal: '" + std::string(text) +
                      "'" + why);
}

/// One integer of the literal `text` (see parse_integer), and nothing
/// after it.  Leading whitespace, trailing characters ("3/4x", "1e3",
/// "3/4/5") and a bare or doubled sign are malformed; a value outside
/// int64 is an OverflowError.
std::int64_t parse_component(std::string_view part, std::string_view text) {
  std::int64_t value = 0;
  const char* const last = part.data() + part.size();
  const auto [end, ec] = parse_integer(part, value);
  if (ec == std::errc::result_out_of_range) {
    throw OverflowError("rational literal out of range: '" +
                        std::string(text) + "'");
  }
  if (ec != std::errc()) {
    malformed_literal(text, "");
  }
  if (end != last) {
    malformed_literal(text, " (trailing characters)");
  }
  return value;
}

}  // namespace

Rational::Rational(std::int64_t num, std::int64_t den) {
  VRDF_REQUIRE(den != 0, "rational denominator must be non-zero");
  if (num == 0) {
    num_ = 0;
    den_ = 1;
    return;
  }
  Int128 n = static_cast<Int128>(num);
  Int128 d = static_cast<Int128>(den);
  if (d < 0) {
    n = -n;
    d = -d;
  }
  const Int128 g = gcd_128(n, d);
  num_ = narrow_128(n / g, "construction");
  den_ = narrow_128(d / g, "construction");
}

std::int64_t Rational::floor() const {
  return floor_div(num_, den_);
}

std::int64_t Rational::ceil() const {
  return ceil_div(num_, den_);
}

double Rational::to_double() const {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::string Rational::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Rational::append_to(std::string& out) const {
  append_integer(out, num_);
  if (den_ != 1) {
    out += '/';
    append_integer(out, den_);
  }
}

std::from_chars_result parse_integer(std::string_view text,
                                     std::int64_t& value) {
  std::string_view digits = text;
  if (!digits.empty() && digits.front() == '+') {
    digits.remove_prefix(1);
    if (digits.empty() || digits.front() < '0' || digits.front() > '9') {
      return {text.data(), std::errc::invalid_argument};  // one sign only
    }
  }
  return std::from_chars(digits.data(), digits.data() + digits.size(),
                         value);
}

void append_integer(std::string& out, std::int64_t value) {
  char digits[20];  // INT64_MIN: a sign and 19 digits
  const auto [end, ec] =
      std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, end);
}

Rational Rational::from_string(std::string_view text) {
  VRDF_REQUIRE(!text.empty(), "cannot parse rational from empty string");
  if (const auto slash = text.find('/'); slash != std::string_view::npos) {
    const std::int64_t n = parse_component(text.substr(0, slash), text);
    const std::int64_t d = parse_component(text.substr(slash + 1), text);
    return Rational(n, d);
  }
  const auto dot = text.find('.');
  if (dot == std::string_view::npos) {
    return Rational(parse_component(text, text));
  }
  const std::string_view whole = text.substr(0, dot);
  const std::string_view frac = text.substr(dot + 1);
  VRDF_REQUIRE(!frac.empty(), "decimal literal needs digits after '.'");
  for (const char c : frac) {
    VRDF_REQUIRE(std::isdigit(static_cast<unsigned char>(c)) != 0,
                 "decimal fraction must be digits");
  }
  std::int64_t scale = 1;
  for (std::size_t i = 0; i < frac.size(); ++i) {
    scale = checked_mul(scale, 10);
  }
  // The whole part may be empty or a bare sign (".5", "-.5").
  const bool negative = !whole.empty() && whole[0] == '-';
  const std::int64_t w =
      (whole.empty() || whole == "-" || whole == "+")
          ? 0
          : parse_component(whole, text);
  const std::int64_t f = parse_component(frac, text);
  const std::int64_t mag =
      checked_add(checked_mul(w < 0 ? checked_neg(w) : w, scale), f);
  return Rational(negative ? checked_neg(mag) : mag, scale);
}

Rational Rational::operator-() const {
  Rational r;
  r.num_ = checked_neg(num_);
  r.den_ = den_;
  return r;
}

Rational Rational::reciprocal() const {
  VRDF_REQUIRE(num_ != 0, "reciprocal of zero");
  return Rational(den_, num_);
}

Rational& Rational::operator+=(const Rational& rhs) {
  // Fast path: equal denominators need no cross products, and the gcd runs
  // on the 64-bit sum instead of 128-bit products.  Integers (den == 1)
  // reduce to a plain add.
  if (den_ == rhs.den_) {
    std::int64_t n = 0;
    if (!__builtin_add_overflow(num_, rhs.num_, &n)) {
      if (n == 0) {
        num_ = 0;
        den_ = 1;
        return *this;
      }
      if (den_ == 1) {
        num_ = n;
        return *this;
      }
      if (n != kInt64Min) {
        const std::int64_t g = gcd64(n, den_);
        num_ = n / g;
        den_ = den_ / g;
        return *this;
      }
    }
    // Raw sum overflowed int64: the general path may still normalize into
    // range via the gcd.
  }
  // a/b + c/d = (a*d + c*b) / (b*d); normalize via 128-bit intermediates.
  const Int128 n = static_cast<Int128>(num_) * rhs.den_ +
                   static_cast<Int128>(rhs.num_) * den_;
  const Int128 d = static_cast<Int128>(den_) * rhs.den_;
  const Int128 g = n == 0 ? d : gcd_128(n, d);
  num_ = narrow_128(n / g, "addition");
  den_ = narrow_128(d / g, "addition");
  return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
  if (den_ == rhs.den_) {
    std::int64_t n = 0;
    if (!__builtin_sub_overflow(num_, rhs.num_, &n)) {
      if (n == 0) {
        num_ = 0;
        den_ = 1;
        return *this;
      }
      if (den_ == 1) {
        num_ = n;
        return *this;
      }
      if (n != kInt64Min) {
        const std::int64_t g = gcd64(n, den_);
        num_ = n / g;
        den_ = den_ / g;
        return *this;
      }
    }
  }
  const Int128 n = static_cast<Int128>(num_) * rhs.den_ -
                   static_cast<Int128>(rhs.num_) * den_;
  const Int128 d = static_cast<Int128>(den_) * rhs.den_;
  const Int128 g = n == 0 ? d : gcd_128(n, d);
  num_ = narrow_128(n / g, "subtraction");
  den_ = narrow_128(d / g, "subtraction");
  return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
  if (num_ == 0 || rhs.num_ == 0) {
    num_ = 0;
    den_ = 1;
    return *this;
  }
  // Cross-reduce before multiplying: gcd(a, d) and gcd(c, b) cancel all
  // common factors up front, so the products are already normalized and no
  // 128-bit gcd is needed.  Denominators are positive and numerators are
  // non-zero here; INT64_MIN is excluded because |INT64_MIN| has no int64
  // magnitude for gcd64.
  if (num_ != kInt64Min && rhs.num_ != kInt64Min) {
    const std::int64_t g1 = gcd64(num_, rhs.den_);
    const std::int64_t g2 = gcd64(rhs.num_, den_);
    const Int128 n =
        static_cast<Int128>(num_ / g1) * static_cast<Int128>(rhs.num_ / g2);
    const Int128 d =
        static_cast<Int128>(den_ / g2) * static_cast<Int128>(rhs.den_ / g1);
    num_ = narrow_128(n, "multiplication");
    den_ = narrow_128(d, "multiplication");
    return *this;
  }
  const Int128 n = static_cast<Int128>(num_) * rhs.num_;
  const Int128 d = static_cast<Int128>(den_) * rhs.den_;
  const Int128 g = n == 0 ? d : gcd_128(n, d);
  num_ = narrow_128(n / g, "multiplication");
  den_ = narrow_128(d / g, "multiplication");
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  VRDF_REQUIRE(rhs.num_ != 0, "rational division by zero");
  if (num_ == 0) {
    return *this;  // already the normalized zero
  }
  // a/b / (c/d) = (a*d) / (b*c); cross-reduce gcd(a, c) and gcd(d, b) so the
  // products are coprime and need no 128-bit gcd.
  if (num_ != kInt64Min && rhs.num_ != kInt64Min) {
    const std::int64_t g1 = gcd64(num_, rhs.num_);
    const std::int64_t g2 = gcd64(rhs.den_, den_);
    Int128 n =
        static_cast<Int128>(num_ / g1) * static_cast<Int128>(rhs.den_ / g2);
    Int128 d =
        static_cast<Int128>(den_ / g2) * static_cast<Int128>(rhs.num_ / g1);
    if (d < 0) {
      n = -n;
      d = -d;
    }
    num_ = narrow_128(n, "division");
    den_ = narrow_128(d, "division");
    return *this;
  }
  Int128 n = static_cast<Int128>(num_) * rhs.den_;
  Int128 d = static_cast<Int128>(den_) * rhs.num_;
  if (d < 0) {
    n = -n;
    d = -d;
  }
  const Int128 g = n == 0 ? d : gcd_128(n, d);
  num_ = narrow_128(n / g, "division");
  den_ = narrow_128(d / g, "division");
  return *this;
}

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
  // Cross multiplication: denominators are positive, so the sign of
  // a.num*b.den - b.num*a.den orders the values.  int64 * int64 fits int128.
  const Int128 lhs = static_cast<Int128>(a.num_) * b.den_;
  const Int128 rhs = static_cast<Int128>(b.num_) * a.den_;
  if (lhs < rhs) return std::strong_ordering::less;
  if (lhs > rhs) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

Rational max(const Rational& a, const Rational& b) { return a > b ? a : b; }

}  // namespace vrdf
