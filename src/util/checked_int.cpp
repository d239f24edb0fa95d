#include "util/checked_int.hpp"

#include <limits>

namespace vrdf {

namespace {
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
}  // namespace

namespace detail {
void throw_overflow(const char* op) {
  throw OverflowError(std::string("int64 overflow in ") + op);
}
}  // namespace detail

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  // std::gcd on int64 is fine except for INT64_MIN whose magnitude is not
  // representable; map it to its largest power-of-two divisor's behaviour by
  // rejecting it (no caller produces it legitimately).
  if (a == kMin || b == kMin) {
    throw OverflowError("gcd of INT64_MIN is not representable");
  }
  return std::gcd(a, b);
}

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  VRDF_REQUIRE(b > 0, "floor_div requires a positive divisor");
  std::int64_t q = a / b;
  if (a % b != 0 && a < 0) {
    --q;
  }
  return q;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  VRDF_REQUIRE(b > 0, "ceil_div requires a positive divisor");
  std::int64_t q = a / b;
  if (a % b != 0 && a > 0) {
    ++q;
  }
  return q;
}

}  // namespace vrdf
