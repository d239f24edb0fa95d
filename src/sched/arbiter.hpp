// Run-time arbiters with rate-independent worst-case response times.
//
// The paper (Sec 3.1, citing [15]) assumes every shared resource has a
// run-time arbiter that guarantees a worst-case response time κ(w) given
// the task's worst-case execution time and the scheduler settings — a
// guarantee that must hold regardless of how often the task is enabled.
// Time-division multiplex (TDM) is the arbiter this module computes κ
// for, together with the generic latency-rate server abstraction that
// covers it.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace vrdf::sched {

/// A latency-rate server: a task receives service at least at `rate`
/// (fraction of the processor, 0 < rate <= 1) after an initial latency.
/// κ(C) = latency + C/rate.
struct LatencyRateServer {
  Duration latency;
  Rational rate;

  [[nodiscard]] Duration response_time(Duration wcet) const;
};

/// TDM wheel allocation: the task owns `slot` contiguous time out of every
/// `period` of wheel time.
struct TdmAllocation {
  Duration slot;
  Duration period;

  /// Slot-granular bound: each chunk of `slot` service can be preceded by a
  /// gap of (period - slot); κ = ceil(C/slot)·(period - slot) + C.
  [[nodiscard]] Duration response_time(Duration wcet) const;

  /// The latency-rate abstraction of this allocation
  /// (latency = period - slot, rate = slot/period); its κ is
  /// (period - slot) + C·period/slot, never smaller than response_time().
  [[nodiscard]] LatencyRateServer as_latency_rate() const;
};

/// The service derivation of one TDM binding: both the policy-exact
/// response-time bound and the latency-rate abstraction of the
/// allocation, which downstream layers (analysis/deployment,
/// certificates) choose between.
struct ServiceModel {
  /// The task's own worst-case execution time C.
  Duration wcet;
  Duration slot;
  Duration wheel;

  /// Policy-exact κ: the slot-granular TDM bound.
  [[nodiscard]] Duration response_time() const;

  /// ⌈C/slot⌉, the number of slot chunks the execution spans — the
  /// witness term recorded in certificate platform clauses.
  [[nodiscard]] std::int64_t ceil_term() const;

  /// The latency-rate abstraction (wheel − slot, slot/wheel).  Its κ is
  /// never smaller than response_time() — see the property test in
  /// tests/test_sched_io.cpp.
  [[nodiscard]] LatencyRateServer as_latency_rate() const;
};

}  // namespace vrdf::sched
