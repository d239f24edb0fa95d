#include "sched/arbiter.hpp"

#include "util/error.hpp"

namespace vrdf::sched {

Duration LatencyRateServer::response_time(Duration wcet) const {
  VRDF_REQUIRE(!latency.is_negative(), "latency must be non-negative");
  VRDF_REQUIRE(rate.is_positive() && rate <= Rational(1),
               "rate must be in (0, 1]");
  VRDF_REQUIRE(wcet.is_positive(), "WCET must be positive");
  return latency + wcet / rate;
}

Duration TdmAllocation::response_time(Duration wcet) const {
  VRDF_REQUIRE(slot.is_positive(), "TDM slot must be positive");
  VRDF_REQUIRE(period >= slot, "TDM period must be at least the slot");
  VRDF_REQUIRE(wcet.is_positive(), "WCET must be positive");
  const Rational chunks_needed = wcet.seconds() / slot.seconds();
  const Rational gaps = Rational(chunks_needed.ceil());
  return Duration((period - slot).seconds() * gaps + wcet.seconds());
}

LatencyRateServer TdmAllocation::as_latency_rate() const {
  VRDF_REQUIRE(slot.is_positive(), "TDM slot must be positive");
  VRDF_REQUIRE(period >= slot, "TDM period must be at least the slot");
  return LatencyRateServer{period - slot, slot.seconds() / period.seconds()};
}

Duration ServiceModel::response_time() const {
  return TdmAllocation{slot, wheel}.response_time(wcet);
}

std::int64_t ServiceModel::ceil_term() const {
  VRDF_REQUIRE(slot.is_positive(), "TDM slot must be positive");
  VRDF_REQUIRE(wcet.is_positive(), "WCET must be positive");
  return (wcet.seconds() / slot.seconds()).ceil();
}

LatencyRateServer ServiceModel::as_latency_rate() const {
  VRDF_REQUIRE(wcet.is_positive(), "WCET must be positive");
  return TdmAllocation{slot, wheel}.as_latency_rate();
}

}  // namespace vrdf::sched
