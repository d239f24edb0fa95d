#include "util/time.hpp"

#include "util/error.hpp"

namespace vrdf {

Duration seconds(Rational s) { return Duration(s); }

Duration milliseconds(Rational ms) { return Duration(ms / Rational(1000)); }

Duration period_of_hz(Rational hz) {
  VRDF_REQUIRE(hz.is_positive(), "frequency must be positive");
  return Duration(hz.reciprocal());
}

}  // namespace vrdf
