// Time quantities.
//
// All model time is an exact rational number of SECONDS.  TimePoint and
// Duration are distinct wrapper types so that "point + point" is a compile
// error while "point + duration" is not — response times and linear-bound
// offsets are durations, event times are points.
#pragma once

#include <string>

#include "util/rational.hpp"

namespace vrdf {

/// A span of model time in seconds (may be negative in intermediate
/// bound-distance arithmetic, e.g. Eq (1)-(3) slack terms).
class Duration {
public:
  constexpr Duration() = default;
  explicit Duration(Rational seconds) : seconds_(seconds) {}

  [[nodiscard]] const Rational& seconds() const { return seconds_; }
  [[nodiscard]] bool is_zero() const { return seconds_.is_zero(); }
  [[nodiscard]] bool is_negative() const { return seconds_.is_negative(); }
  [[nodiscard]] bool is_positive() const { return seconds_.is_positive(); }
  [[nodiscard]] double to_millis_double() const { return seconds_.to_double() * 1e3; }
  [[nodiscard]] std::string to_string() const { return seconds_.to_string() + " s"; }

  Duration& operator+=(const Duration& rhs) {
    seconds_ += rhs.seconds_;
    return *this;
  }
  Duration& operator-=(const Duration& rhs) {
    seconds_ -= rhs.seconds_;
    return *this;
  }
  Duration& operator*=(const Rational& k) {
    seconds_ *= k;
    return *this;
  }
  Duration& operator/=(const Rational& k) {
    seconds_ /= k;
    return *this;
  }

  friend Duration operator+(Duration a, const Duration& b) { return a += b; }
  friend Duration operator-(Duration a, const Duration& b) { return a -= b; }
  friend Duration operator*(Duration a, const Rational& k) { return a *= k; }
  friend Duration operator*(const Rational& k, Duration a) { return a *= k; }
  friend Duration operator/(Duration a, const Rational& k) { return a /= k; }
  friend Duration operator-(const Duration& a) { return Duration(-a.seconds()); }
  /// Ratio of two durations (dimensionless), e.g. Δ / (φ/π̂) token counts.
  friend Rational operator/(const Duration& a, const Duration& b) {
    return a.seconds() / b.seconds();
  }

  friend bool operator==(const Duration&, const Duration&) = default;
  friend auto operator<=>(const Duration& a, const Duration& b) {
    return a.seconds_ <=> b.seconds_;
  }

private:
  Rational seconds_;
};

/// An absolute point on the model timeline (seconds since simulation start).
class TimePoint {
public:
  constexpr TimePoint() = default;
  explicit TimePoint(Rational seconds) : seconds_(seconds) {}

  [[nodiscard]] const Rational& seconds() const { return seconds_; }
  [[nodiscard]] std::string to_string() const { return seconds_.to_string() + " s"; }

  TimePoint& operator+=(const Duration& d) {
    seconds_ += d.seconds();
    return *this;
  }
  TimePoint& operator-=(const Duration& d) {
    seconds_ -= d.seconds();
    return *this;
  }

  friend TimePoint operator+(TimePoint t, const Duration& d) { return t += d; }
  friend TimePoint operator+(const Duration& d, TimePoint t) { return t += d; }
  friend TimePoint operator-(TimePoint t, const Duration& d) { return t -= d; }
  friend Duration operator-(const TimePoint& a, const TimePoint& b) {
    return Duration(a.seconds() - b.seconds());
  }

  friend bool operator==(const TimePoint&, const TimePoint&) = default;
  friend auto operator<=>(const TimePoint& a, const TimePoint& b) {
    return a.seconds_ <=> b.seconds_;
  }

private:
  Rational seconds_;
};

/// Duration construction helpers.
[[nodiscard]] Duration seconds(Rational s);
[[nodiscard]] Duration milliseconds(Rational ms);
/// Period of a frequency given in hertz: period_of_hz(44100) == 1/44100 s.
[[nodiscard]] Duration period_of_hz(Rational hz);

}  // namespace vrdf
