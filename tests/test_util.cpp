// Unit tests for checked integers, time quantities and logging.
#include <gtest/gtest.h>

#include <limits>

#include "util/checked_int.hpp"
#include "util/time.hpp"

namespace vrdf {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(CheckedInt, AddDetectsOverflowBothDirections) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_THROW((void)checked_add(kMax, 1), OverflowError);
  EXPECT_THROW((void)checked_add(kMin, -1), OverflowError);
}

TEST(CheckedInt, SubDetectsOverflow) {
  EXPECT_EQ(checked_sub(2, 5), -3);
  EXPECT_THROW((void)checked_sub(kMin, 1), OverflowError);
  EXPECT_THROW((void)checked_sub(kMax, -1), OverflowError);
}

TEST(CheckedInt, MulDetectsOverflow) {
  EXPECT_EQ(checked_mul(-4, 5), -20);
  EXPECT_THROW((void)checked_mul(kMax, 2), OverflowError);
  EXPECT_THROW((void)checked_mul(kMin, -1), OverflowError);
}

TEST(CheckedInt, NegRejectsInt64Min) {
  EXPECT_EQ(checked_neg(5), -5);
  EXPECT_THROW((void)checked_neg(kMin), OverflowError);
}

TEST(CheckedInt, Gcd) {
  EXPECT_EQ(gcd64(2048, 960), 64);
  EXPECT_EQ(gcd64(1152, 480), 96);
  EXPECT_EQ(gcd64(441, 1), 1);
  EXPECT_EQ(gcd64(0, 7), 7);
  EXPECT_EQ(gcd64(0, 0), 0);
  EXPECT_EQ(gcd64(-12, 18), 6);
}

TEST(CheckedInt, FloorAndCeilDiv) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(8, 2), 4);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(8, 2), 4);
  EXPECT_THROW((void)floor_div(1, 0), ContractError);
  EXPECT_THROW((void)ceil_div(1, -2), ContractError);
}

TEST(Time, DurationArithmetic) {
  const Duration a = milliseconds(Rational(10));
  const Duration b = milliseconds(Rational(5));
  EXPECT_EQ((a + b).seconds(), Rational(15, 1000));
  EXPECT_EQ((a - b).seconds(), Rational(5, 1000));
  EXPECT_EQ((a * Rational(3)).seconds(), Rational(30, 1000));
  EXPECT_EQ((a / Rational(4)).seconds(), Rational(10, 4000));
  EXPECT_EQ(a / b, Rational(2));
}

TEST(Time, TimePointAndDurationInterplay) {
  const TimePoint t0;
  const TimePoint t1 = t0 + milliseconds(Rational(3));
  EXPECT_EQ((t1 - t0).seconds(), Rational(3, 1000));
  EXPECT_LT(t0, t1);
  EXPECT_EQ(t1 - milliseconds(Rational(3)), t0);
}

TEST(Time, PeriodOfHz) {
  EXPECT_EQ(period_of_hz(Rational(44100)).seconds(), Rational(1, 44100));
  EXPECT_THROW((void)period_of_hz(Rational(0)), ContractError);
  EXPECT_THROW((void)period_of_hz(Rational(-5)), ContractError);
}

TEST(Time, UnitHelpersAgree) {
  EXPECT_EQ(seconds(Rational(1, 1000)), milliseconds(Rational(1)));
}

TEST(Time, SignQueries) {
  EXPECT_TRUE(milliseconds(Rational(1)).is_positive());
  EXPECT_TRUE((milliseconds(Rational(1)) - milliseconds(Rational(2))).is_negative());
  EXPECT_TRUE(Duration().is_zero());
}

TEST(Time, Printing) {
  EXPECT_EQ(milliseconds(Rational(10)).to_string(), "1/100 s");
  EXPECT_EQ(TimePoint(Rational(2)).to_string(), "2 s");
}

TEST(Error, RequireMacroCarriesContext) {
  try {
    VRDF_REQUIRE(1 == 2, "the message");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace vrdf
