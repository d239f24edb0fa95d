// Unit tests for exact rational arithmetic — the numeric foundation every
// capacity number rests on.
#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "util/checked_int.hpp"
#include "util/error.hpp"
#include "util/rational.hpp"

namespace vrdf {
namespace {

using rational_literals::operator""_r;

TEST(Rational, DefaultIsZero) {
  const Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
}

TEST(Rational, NormalizesNegativeDenominator) {
  const Rational r(3, -9);
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 3);
  EXPECT_TRUE(r.is_negative());
}

TEST(Rational, ZeroNumeratorCollapsesDenominator) {
  const Rational r(0, -7);
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, RejectsZeroDenominator) {
  EXPECT_THROW((void)Rational(1, 0), ContractError);
}

TEST(Rational, EqualityIsStructuralAfterNormalization) {
  EXPECT_EQ(Rational(1, 2), Rational(2, 4));
  EXPECT_EQ(Rational(-1, 2), Rational(1, -2));
  EXPECT_NE(Rational(1, 2), Rational(1, 3));
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_GT(Rational(7, 2), Rational(10, 3));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, AdditionAndSubtraction) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 2), Rational(0));
  EXPECT_EQ(Rational(-1, 4) + Rational(1, 4), Rational(0));
}

TEST(Rational, MultiplicationAndDivision) {
  EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2));
  EXPECT_EQ(Rational(2, 3) / Rational(4, 3), Rational(1, 2));
  EXPECT_EQ(Rational(5) * Rational(0), Rational(0));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW((void)(Rational(1) / Rational(0)), ContractError);
  EXPECT_THROW((void)Rational(0).reciprocal(), ContractError);
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(6).floor(), 6);
  EXPECT_EQ(Rational(6).ceil(), 6);
}

TEST(Rational, IsIntegerDetection) {
  EXPECT_TRUE(Rational(8, 4).is_integer());
  EXPECT_FALSE(Rational(8, 3).is_integer());
}

TEST(Rational, Reciprocal) {
  EXPECT_EQ(Rational(3, 4).reciprocal(), Rational(4, 3));
  EXPECT_EQ(Rational(-3, 4).reciprocal(), Rational(-4, 3));
}

TEST(Rational, ToStringFormats) {
  EXPECT_EQ(Rational(5).to_string(), "5");
  EXPECT_EQ(Rational(-5, 3).to_string(), "-5/3");
  EXPECT_EQ(Rational(0).to_string(), "0");
}

TEST(Rational, FromStringInteger) {
  EXPECT_EQ(Rational::from_string("42"), Rational(42));
  EXPECT_EQ(Rational::from_string("-17"), Rational(-17));
}

TEST(Rational, FromStringFraction) {
  EXPECT_EQ(Rational::from_string("22/7"), Rational(22, 7));
  EXPECT_EQ(Rational::from_string("-6/8"), Rational(-3, 4));
}

TEST(Rational, FromStringDecimal) {
  EXPECT_EQ(Rational::from_string("51.2"), Rational(512, 10));
  EXPECT_EQ(Rational::from_string("0.0227"), Rational(227, 10000));
  EXPECT_EQ(Rational::from_string("-1.5"), Rational(-3, 2));
}

TEST(Rational, FromStringDecimalAtInt64MinIsOutOfRange) {
  // The whole part's magnitude does not fit in int64: an OverflowError,
  // never a negation of INT64_MIN.
  EXPECT_THROW((void)Rational::from_string("-9223372036854775808.5"),
               OverflowError);
}

TEST(Rational, FromStringRejectsGarbage) {
  EXPECT_THROW((void)Rational::from_string(""), ContractError);
  EXPECT_THROW((void)Rational::from_string("abc"), ContractError);
  EXPECT_THROW((void)Rational::from_string("1.2.3"), ContractError);
  EXPECT_THROW((void)Rational::from_string("1.x"), ContractError);
}

TEST(Rational, FromStringRejectsTrailingGarbagePerComponent) {
  // std::stoll stops at the first non-digit, so these used to parse
  // *silently wrong*: "3/4x" as 3/4, "1e3" as 1, "3/4/5" as 3/4.  Every
  // component must now consume its whole substring.
  EXPECT_THROW((void)Rational::from_string("3/4x"), ContractError);
  EXPECT_THROW((void)Rational::from_string("1e3"), ContractError);
  EXPECT_THROW((void)Rational::from_string("3/4/5"), ContractError);
  EXPECT_THROW((void)Rational::from_string("3x/4"), ContractError);
  EXPECT_THROW((void)Rational::from_string("1 2"), ContractError);
  EXPECT_THROW((void)Rational::from_string("12 "), ContractError);
  EXPECT_THROW((void)Rational::from_string("1.5e3"), ContractError);
  EXPECT_THROW((void)Rational::from_string("1x.5"), ContractError);
  EXPECT_THROW((void)Rational::from_string("3/"), ContractError);
  EXPECT_THROW((void)Rational::from_string("/4"), ContractError);
  EXPECT_THROW((void)Rational::from_string("--3"), ContractError);
}

TEST(Rational, FromStringSignAndComponentForms) {
  // Slash, decimal, integer and sign-only-whole forms still parse.
  EXPECT_EQ(Rational::from_string("+3/4"), Rational(3, 4));
  EXPECT_EQ(Rational::from_string("3/-4"), Rational(-3, 4));
  EXPECT_EQ(Rational::from_string(".5"), Rational(1, 2));
  EXPECT_EQ(Rational::from_string("-.5"), Rational(-1, 2));
  EXPECT_EQ(Rational::from_string("+.5"), Rational(1, 2));
  EXPECT_EQ(Rational::from_string("+7"), Rational(7));
  EXPECT_THROW((void)Rational::from_string("-"), ContractError);
  EXPECT_THROW((void)Rational::from_string("+"), ContractError);
  EXPECT_THROW((void)Rational::from_string("."), ContractError);
}

/// An error's text cut at the " [expr at file:line]" suffix VRDF_REQUIRE
/// appends, which names the throwing source line.
std::string message(const Error& e) {
  const std::string what = e.what();
  return what.substr(0, what.find(" ["));
}

/// The message of the error `text` raises, or "" if it parses.
std::string rejection(const std::string& text) {
  try {
    (void)Rational::from_string(text);
  } catch (const Error& e) {
    return message(e);
  }
  return "";
}

TEST(Rational, FromStringGrammarPinned) {
  // Signs: a leading '+' is accepted on either component, as std::stoll
  // accepts it.
  EXPECT_EQ(Rational::from_string("+3"), Rational(3));
  EXPECT_EQ(Rational::from_string("3/+4"), Rational(3, 4));
  EXPECT_EQ(Rational::from_string("3/-4"), Rational(-3, 4));
  EXPECT_EQ(Rational::from_string("-0.5"), Rational(-1, 2));
  EXPECT_EQ(Rational::from_string("007"), Rational(7));
  EXPECT_EQ(Rational::from_string("12.340"), Rational(617, 50));
  // Decimal edges: the whole part may be empty, the fraction may not.
  EXPECT_EQ(Rational::from_string(".5"), Rational(1, 2));
  EXPECT_EQ(Rational::from_string("-.5"), Rational(-1, 2));
  EXPECT_THROW((void)Rational::from_string("5."), ContractError);
  EXPECT_EQ(rejection("5."),
            "contract violation: decimal literal needs digits after '.'");
  EXPECT_EQ(rejection("1.+5"),
            "contract violation: decimal fraction must be digits");
  // Bare symbols and missing parts.
  for (const char* text : {"+", "-", "/4", "4/", "+-3", "3/+-4", "+ 3"}) {
    EXPECT_THROW((void)Rational::from_string(text), ContractError) << text;
    EXPECT_EQ(rejection(text),
              std::string("malformed rational literal: '") + text + "'");
  }
  // Zero denominator.
  EXPECT_THROW((void)Rational::from_string("1/0"), ContractError);
  EXPECT_EQ(rejection("1/0"),
            "contract violation: rational denominator must be non-zero");
  // Whitespace is never skipped.
  EXPECT_THROW((void)Rational::from_string(" 3"), ContractError);
  EXPECT_THROW((void)Rational::from_string("3 "), ContractError);
  EXPECT_EQ(rejection(" 3"), "malformed rational literal: ' 3'");
  EXPECT_EQ(rejection("3 "),
            "malformed rational literal: '3 ' (trailing characters)");
  // Overflow: a component outside int64, and a decimal whose scale 10^19
  // does not fit.
  EXPECT_THROW((void)Rational::from_string("9223372036854775808"),
               OverflowError);
  EXPECT_EQ(rejection("9223372036854775808"),
            "rational literal out of range: '9223372036854775808'");
  EXPECT_THROW((void)Rational::from_string("0.0000000000000000001"),
               OverflowError);
  EXPECT_EQ(rejection("0.0000000000000000001"),
            "int64 overflow in multiplication");
  EXPECT_EQ(Rational::from_string("0.000000000000000001"),
            Rational(1, 1000000000000000000));
  EXPECT_EQ(Rational::from_string("-9223372036854775808"),
            Rational(std::numeric_limits<std::int64_t>::min()));
}

// ------------------------------------------------ reference parser
//
// A std::stoll-based from_string, the reference the parser is compared
// against: the same grammar, the same error types, the same messages.

Rational reference_from_string(const std::string& text) {
  VRDF_REQUIRE(!text.empty(), "cannot parse rational from empty string");
  const auto slash = text.find('/');
  const auto dot = text.find('.');
  const auto component = [&text](const std::string& part) {
    if (part.empty() ||
        std::isspace(static_cast<unsigned char>(part.front())) != 0) {
      throw ContractError("malformed rational literal: '" + text + "'");
    }
    std::size_t consumed = 0;
    const std::int64_t value = std::stoll(part, &consumed);
    if (consumed != part.size()) {
      throw ContractError("malformed rational literal: '" + text +
                          "' (trailing characters)");
    }
    return value;
  };
  try {
    if (slash != std::string::npos) {
      const std::int64_t n = component(text.substr(0, slash));
      const std::int64_t d = component(text.substr(slash + 1));
      return Rational(n, d);
    }
    if (dot != std::string::npos) {
      const std::string whole = text.substr(0, dot);
      const std::string frac = text.substr(dot + 1);
      VRDF_REQUIRE(!frac.empty(), "decimal literal needs digits after '.'");
      for (const char c : frac) {
        VRDF_REQUIRE(std::isdigit(static_cast<unsigned char>(c)) != 0,
                     "decimal fraction must be digits");
      }
      std::int64_t scale = 1;
      for (std::size_t i = 0; i < frac.size(); ++i) {
        scale = checked_mul(scale, 10);
      }
      const bool negative = !whole.empty() && whole[0] == '-';
      const std::int64_t w =
          (whole.empty() || whole == "-" || whole == "+") ? 0
                                                          : component(whole);
      const std::int64_t f = component(frac);
      const std::int64_t mag =
          checked_add(checked_mul(w < 0 ? checked_neg(w) : w, scale), f);
      return Rational(negative ? checked_neg(mag) : mag, scale);
    }
    return Rational(component(text));
  } catch (const std::invalid_argument&) {
    throw ContractError("malformed rational literal: '" + text + "'");
  } catch (const std::out_of_range&) {
    throw OverflowError("rational literal out of range: '" + text + "'");
  }
}

/// "=value", "!OverflowError: message" or "!ContractError: message".
template <typename Parse>
std::string outcome(Parse parse, const std::string& text) {
  std::string out;
  try {
    out = "=";
    out += parse(text).to_string();
  } catch (const OverflowError& e) {
    out = "!OverflowError: ";
    out += message(e);
  } catch (const ContractError& e) {
    out = "!ContractError: ";
    out += message(e);
  }
  return out;
}

TEST(Rational, FromStringMatchesReferenceParser) {
  // Every string of up to five characters over an alphabet of digits,
  // signs, separators, whitespace and junk, plus literals at the int64
  // and decimal-scale limits.
  const std::string alphabet = "019+-./ x";
  std::vector<std::string> corpus = {
      "9223372036854775807",    "9223372036854775808",
      "-9223372036854775808",   "-9223372036854775809",
      "99999999999999999999x",  "1/-9223372036854775808",
      "9223372036854775807/-1", "0.000000000000000001",
      "0.0000000000000000001",  "x.0000000000000000001",
      "9223372036854775807.5",  "922337203685477580.7",
      "-922337203685477580.8",  "-9223372036854775808.5",
      "1.999999999999999999",   "99999999999999999999.5",
      "3/4/5",                  "1\t2",
      "\t3",                    "3\n",
      "0x10",                   "1e3"};
  std::vector<std::string> frontier = {""};
  for (int length = 1; length <= 5; ++length) {
    std::vector<std::string> next;
    for (const std::string& prefix : frontier) {
      for (const char c : alphabet) {
        next.push_back(prefix + c);
      }
    }
    corpus.insert(corpus.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  corpus.push_back("");
  const auto parse = [](const std::string& text) {
    return Rational::from_string(text);
  };
  std::size_t accepted = 0;
  for (const std::string& text : corpus) {
    const std::string got = outcome(parse, text);
    ASSERT_EQ(got, outcome(reference_from_string, text))
        << "literal '" << text << "'";
    accepted += got.front() == '=' ? 1 : 0;
  }
  // The corpus exercises both sides of the grammar.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(corpus.size() - accepted, 10000u);
}

TEST(Rational, OverflowDetectedInAddition) {
  const Rational big(std::numeric_limits<std::int64_t>::max() / 2, 1);
  EXPECT_THROW((void)(big + big + big), OverflowError);
}

TEST(Rational, OverflowDetectedInMultiplication) {
  const Rational big(std::numeric_limits<std::int64_t>::max() / 2, 1);
  EXPECT_THROW((void)(big * big), OverflowError);
}

TEST(Rational, LargeIntermediatesThatCancelDoNotOverflow) {
  // (a/b) * (b/a) = 1 even when a*b would overflow int64 only after
  // normalization — 128-bit intermediates must absorb it.
  const std::int64_t a = 3'037'000'499;  // ~sqrt(INT64_MAX)
  const Rational r(a, a - 2);
  EXPECT_EQ(r * r.reciprocal(), Rational(1));
}

TEST(Rational, EqualDenominatorFastPathStaysNormalized) {
  // Equal denominators take the no-cross-multiply fast path; the result
  // must still be fully reduced.
  EXPECT_EQ(Rational(1, 6) + Rational(1, 6), Rational(1, 3));
  EXPECT_EQ(Rational(5, 8) - Rational(1, 8), Rational(1, 2));
  EXPECT_EQ(Rational(1, 4) + Rational(-1, 4), Rational(0));
  EXPECT_EQ(Rational(7) + Rational(-3), Rational(4));
  EXPECT_EQ(Rational(-5, 12) - Rational(7, 12), Rational(-1));
}

TEST(Rational, EqualDenominatorOverflowFallsToGeneralPath) {
  // The raw numerator sum 2·(3k−1) overflows int64, but 3k−1 with k = 2^61
  // is divisible by 5, so the normalized sum 2·(3k−1)/5 fits: the fast
  // path must hand over to the 128-bit path instead of wrapping.
  const std::int64_t k = std::int64_t{1} << 61;
  const Rational big(3 * k - 1, 5);
  EXPECT_EQ(big + big, Rational(2 * ((3 * k - 1) / 5)));
  // A sum whose normalized value does not fit must still throw.
  const Rational seven_k(7 * (k / 2) + 1, 5);
  EXPECT_THROW((void)(seven_k + seven_k), OverflowError);
  // And cancellation back into range must succeed exactly.
  const Rational half_max(std::numeric_limits<std::int64_t>::max() / 2, 7);
  EXPECT_EQ(half_max - half_max, Rational(0));
}

TEST(Rational, IntegerOperandMultiplicationFastPath) {
  // Integer operands cross-reduce against the other side's denominator.
  EXPECT_EQ(Rational(5, 6) * Rational(4), Rational(10, 3));
  EXPECT_EQ(Rational(4) * Rational(5, 6), Rational(10, 3));
  EXPECT_EQ(Rational(-9) * Rational(2, 3), Rational(-6));
  EXPECT_EQ(Rational(5, 6) / Rational(10), Rational(1, 12));
  EXPECT_EQ(Rational(10) / Rational(5, 6), Rational(12));
  EXPECT_EQ(Rational(7, 4) / Rational(-7), Rational(-1, 4));
  // Cross-reduction keeps in-range products exact even when the naive
  // num*num product would overflow.
  const std::int64_t a = 3'037'000'499;  // ~sqrt(INT64_MAX)
  EXPECT_EQ(Rational(a, 3) * Rational(6, a), Rational(2));
  EXPECT_EQ(Rational(a, 3) / Rational(a, 6), Rational(2));
}

// Differential check: the fast paths must agree bit-for-bit with the
// reference 128-bit normalize-after-the-fact implementation.
namespace reference {
__extension__ typedef __int128 Int128;

Int128 gcd128(Int128 a, Int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const Int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

Rational normalized(Int128 n, Int128 d) {
  if (d < 0) {
    n = -n;
    d = -d;
  }
  const Int128 g = n == 0 ? d : gcd128(n, d);
  return Rational(static_cast<std::int64_t>(n / g),
                  static_cast<std::int64_t>(d / g));
}
}  // namespace reference

TEST(Rational, FastPathsMatchReferenceArithmetic) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::int64_t> num(-100000, 100000);
  std::uniform_int_distribution<std::int64_t> den(1, 100000);
  std::uniform_int_distribution<int> pick(0, 3);
  for (int i = 0; i < 5000; ++i) {
    // Bias towards the fast-path shapes: equal denominators and integers.
    std::int64_t db = den(rng);
    const std::int64_t da = pick(rng) == 0 ? db : den(rng);
    if (pick(rng) == 1) {
      db = 1;
    }
    const Rational a(num(rng), da);
    const Rational b(num(rng), db);
    using reference::Int128;
    EXPECT_EQ(a + b, reference::normalized(
                         static_cast<Int128>(a.num()) * b.den() +
                             static_cast<Int128>(b.num()) * a.den(),
                         static_cast<Int128>(a.den()) * b.den()));
    EXPECT_EQ(a - b, reference::normalized(
                         static_cast<Int128>(a.num()) * b.den() -
                             static_cast<Int128>(b.num()) * a.den(),
                         static_cast<Int128>(a.den()) * b.den()));
    EXPECT_EQ(a * b, reference::normalized(
                         static_cast<Int128>(a.num()) * b.num(),
                         static_cast<Int128>(a.den()) * b.den()));
    if (!b.is_zero()) {
      EXPECT_EQ(a / b, reference::normalized(
                           static_cast<Int128>(a.num()) * b.den(),
                           static_cast<Int128>(a.den()) * b.num()));
    }
  }
}

TEST(Rational, MaxHelper) {
  EXPECT_EQ(max(Rational(1, 3), Rational(1, 2)), Rational(1, 2));
}

TEST(Rational, UserLiteral) {
  EXPECT_EQ(3_r, Rational(3));
}

// Property sweep: field axioms on random small rationals (exact, so the
// identities must hold bit-for-bit).
class RationalAxioms : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RationalAxioms, FieldIdentitiesHoldExactly) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::int64_t> num(-1000, 1000);
  std::uniform_int_distribution<std::int64_t> den(1, 1000);
  for (int i = 0; i < 200; ++i) {
    const Rational a(num(rng), den(rng));
    const Rational b(num(rng), den(rng));
    const Rational c(num(rng), den(rng));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) - b, a);
    if (!b.is_zero()) {
      EXPECT_EQ((a / b) * b, a);
    }
    EXPECT_EQ(a + Rational(0), a);
    EXPECT_EQ(a * Rational(1), a);
    EXPECT_EQ(a - a, Rational(0));
    // floor/ceil consistency.
    EXPECT_LE(Rational(a.floor()), a);
    EXPECT_GE(Rational(a.ceil()), a);
    EXPECT_LE(a.ceil() - a.floor(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalAxioms,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace vrdf
