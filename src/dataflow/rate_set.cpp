#include "dataflow/rate_set.hpp"

#include <algorithm>
#include <ostream>

#include "util/checked_int.hpp"
#include "util/error.hpp"
#include "util/rational.hpp"

namespace vrdf::dataflow {

RateSet::RateSet(std::vector<std::int64_t> values, std::int64_t lo,
                 std::int64_t hi)
    : values_(std::move(values)), min_(lo), max_(hi) {}

RateSet RateSet::singleton(std::int64_t value) {
  VRDF_REQUIRE(value > 0, "a singleton rate set must hold a positive quantum");
  return RateSet({}, value, value);
}

RateSet RateSet::of(std::initializer_list<std::int64_t> values) {
  return of(std::vector<std::int64_t>(values));
}

RateSet RateSet::of(std::vector<std::int64_t> values) {
  VRDF_REQUIRE(!values.empty(), "a rate set must be non-empty");
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  VRDF_REQUIRE(values.front() >= 0, "rate quanta must be non-negative");
  VRDF_REQUIRE(values.back() > 0,
               "a rate set must contain a positive quantum (Pf(N) excludes {0})");
  const std::int64_t lo = values.front();
  const std::int64_t hi = values.back();
  if (lo == hi) {
    return RateSet({}, lo, hi);
  }
  return RateSet(std::move(values), lo, hi);
}

RateSet RateSet::interval(std::int64_t lo, std::int64_t hi) {
  VRDF_REQUIRE(lo >= 0, "rate quanta must be non-negative");
  VRDF_REQUIRE(hi >= lo, "rate interval must satisfy hi >= lo");
  VRDF_REQUIRE(hi > 0, "a rate set must contain a positive quantum");
  return RateSet({}, lo, hi);
}

std::int64_t RateSet::positive_gcd() const {
  if (values_.empty()) {
    return min_ == max_ ? max_ : 1;
  }
  std::int64_t g = 0;
  for (const std::int64_t v : values_) {
    g = gcd64(g, v);
  }
  return g;
}

std::int64_t RateSet::nth(std::size_t i) const {
  VRDF_REQUIRE(i < size(), "rate set index out of range");
  if (values_.empty()) {
    return min_ + static_cast<std::int64_t>(i);
  }
  return values_[i];
}

std::string RateSet::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void RateSet::append_to(std::string& out) const {
  if (is_singleton()) {
    out += '{';
    append_integer(out, min_);
    out += '}';
    return;
  }
  if (values_.empty()) {
    out += '[';
    append_integer(out, min_);
    out += ',';
    append_integer(out, max_);
    out += ']';
    return;
  }
  out += '{';
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    append_integer(out, values_[i]);
  }
  out += '}';
}

bool operator==(const RateSet& a, const RateSet& b) {
  if (a.min_ != b.min_ || a.max_ != b.max_) {
    return false;
  }
  if (a.values_.empty() == b.values_.empty()) {
    return a.values_ == b.values_;
  }
  // Mixed representations are equal iff the explicit one is the full range.
  const RateSet& explicit_set = a.values_.empty() ? b : a;
  return explicit_set.values_.size() ==
         static_cast<std::size_t>(explicit_set.max_ - explicit_set.min_ + 1);
}

std::ostream& operator<<(std::ostream& os, const RateSet& s) {
  return os << s.to_string();
}

}  // namespace vrdf::dataflow
