// Overflow-checked 64-bit integer helpers.
//
// Buffer-capacity formulas multiply token quanta (up to a few thousand) by
// rate numerators; chains of such products can overflow int64 for synthetic
// stress inputs.  All arithmetic feeding a reported capacity goes through
// these helpers so that overflow is an exception, never a wrong number.
#pragma once

#include <cstdint>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace vrdf {

namespace detail {
[[noreturn]] void throw_overflow(const char* op);
}  // namespace detail

// The checked arithmetic helpers are inline: the tick-clock simulator runs
// every event-time addition and comparison through them, so a function call
// per operation would dominate the hot loop.  The overflow branch itself
// compiles to a single flag test.

/// Adds two int64 values; throws OverflowError when the sum is not
/// representable.
[[nodiscard]] inline std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    detail::throw_overflow("addition");
  }
  return out;
}

/// Subtracts b from a; throws OverflowError when the difference is not
/// representable.
[[nodiscard]] inline std::int64_t checked_sub(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out)) {
    detail::throw_overflow("subtraction");
  }
  return out;
}

/// Multiplies two int64 values; throws OverflowError when the product is not
/// representable.
[[nodiscard]] inline std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    detail::throw_overflow("multiplication");
  }
  return out;
}

/// Negates a; throws OverflowError for INT64_MIN.
[[nodiscard]] inline std::int64_t checked_neg(std::int64_t a) {
  if (a == std::numeric_limits<std::int64_t>::min()) {
    detail::throw_overflow("negation");
  }
  return -a;
}

/// Greatest common divisor of |a| and |b|; gcd(0, 0) == 0.
[[nodiscard]] std::int64_t gcd64(std::int64_t a, std::int64_t b);

/// Floor division a / b for b > 0 (rounds towards negative infinity).
[[nodiscard]] std::int64_t floor_div(std::int64_t a, std::int64_t b);

/// Ceiling division a / b for b > 0 (rounds towards positive infinity).
[[nodiscard]] std::int64_t ceil_div(std::int64_t a, std::int64_t b);

}  // namespace vrdf
