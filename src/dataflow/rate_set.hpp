// Finite sets of token-transfer quanta.
//
// The paper types production/consumption quanta as values from Pf(N): a
// finite, non-empty subset of the naturals that is not {0} (Sec 3.1/3.2).
// Zero *may* be an element alongside positive values — a variable-length
// decoder is allowed firings that consume nothing (Sec 4.2, "Consumer
// Schedule").
//
// Two representations share one interface:
//  * Dense — every integer from min to max, stored as the two bounds: an
//    interval such as the MP3 decoder's bytes-per-frame n in [0, 960],
//    which would be wasteful to enumerate, and every singleton {v};
//  * Explicit — an enumerated set of two or more values such as {2, 3}
//    from Fig 1, the only representation that holds a heap array.
// The analysis only reads min/max; the simulator also samples members.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace vrdf::dataflow {

class RateSet {
public:
  /// The singleton set {value}; value must be positive (a {0} set is
  /// excluded by Pf(N)).
  [[nodiscard]] static RateSet singleton(std::int64_t value);

  /// An enumerated set; values are deduplicated and sorted.  Must contain at
  /// least one positive value.
  [[nodiscard]] static RateSet of(std::initializer_list<std::int64_t> values);
  [[nodiscard]] static RateSet of(std::vector<std::int64_t> values);

  /// The dense integer interval [lo, hi]; hi must be positive and >= lo >= 0.
  [[nodiscard]] static RateSet interval(std::int64_t lo, std::int64_t hi);

  /// Minimum element (the paper's checked quantity γ̌ / π̌).
  [[nodiscard]] std::int64_t min() const { return min_; }
  /// Maximum element (the paper's hatted quantity γ̂ / π̂).
  [[nodiscard]] std::int64_t max() const { return max_; }

  [[nodiscard]] bool is_singleton() const { return min_ == max_; }
  [[nodiscard]] bool contains_zero() const { return min_ == 0; }
  /// Inline: the simulator validates every drawn quantum against its rate
  /// set, so this sits on the per-firing hot path.
  [[nodiscard]] bool contains(std::int64_t value) const {
    if (value < min_ || value > max_) {
      return false;
    }
    return values_.empty() ||
           std::binary_search(values_.begin(), values_.end(), value);
  }

  /// Number of elements.  Inline: random quantum sources sample per firing.
  [[nodiscard]] std::size_t size() const {
    if (values_.empty()) {
      return static_cast<std::size_t>(max_ - min_ + 1);
    }
    return values_.size();
  }

  /// gcd of the positive elements (every set has one), without
  /// enumerating an interval: a dense set wider than one value holds two
  /// consecutive integers, or 1, so its gcd is 1.
  [[nodiscard]] std::int64_t positive_gcd() const;

  /// The i-th smallest element, 0-based; used for uniform sampling.
  [[nodiscard]] std::int64_t nth(std::size_t i) const;

  /// "{3}", "{2,3}" or "[0,960]".
  [[nodiscard]] std::string to_string() const;
  /// Appends to_string() to `out`.
  void append_to(std::string& out) const;

  friend bool operator==(const RateSet& a, const RateSet& b);

private:
  RateSet(std::vector<std::int64_t> values, std::int64_t lo, std::int64_t hi);

  /// Explicit: the elements, sorted and unique (two or more).  Dense:
  /// empty, the bounds say it all.
  std::vector<std::int64_t> values_;
  std::int64_t min_;
  std::int64_t max_;
};

std::ostream& operator<<(std::ostream& os, const RateSet& s);

}  // namespace vrdf::dataflow
