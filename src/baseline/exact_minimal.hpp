// Exact minimal buffer capacity for one producer-consumer pair, by search.
//
// For small pairs the true minimum capacity that sustains a periodic
// consumer can be found by binary search over the capacity, using the
// two-phase simulation check as the feasibility oracle (feasibility is
// monotone in the capacity by Def 1: more initial space can only make
// every start earlier).  This is the SDF3/Stuijk-style throughput-buffer
// trade-off oracle and serves two roles:
//  * grounding the Fig 1 pair under its throughput constraint: with
//    ρ(va) = ρ(vb) = τ the minimum is a double buffer, 6, for both n ≡ 3
//    and n ≡ 2.  The introduction's "3 when n ≡ 3 but 4 when n ≡ 2" is a
//    deadlock-freedom result that this throughput oracle does not
//    measure; Simulator.Fig1MinimalCapacities replays it;
//  * quantifying how tight Eq (4) is against the per-sequence optimum.
//
// The oracle simulates a finite horizon, so the result is exact for the
// supplied quantum sequences over that horizon (for constant rates the
// behaviour is eventually periodic and a modest horizon is conclusive).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "dataflow/rate_set.hpp"
#include "sim/quantum_source.hpp"
#include "sim/verify.hpp"
#include "util/time.hpp"

namespace vrdf::baseline {

struct PairSearchSpec {
  dataflow::RateSet production = dataflow::RateSet::singleton(1);   // π
  dataflow::RateSet consumption = dataflow::RateSet::singleton(1);  // γ
  Duration producer_response;
  Duration consumer_response;
  /// The consumer must execute strictly periodically with this period.
  Duration consumer_period;
  /// Quantum sequence factories (nullptr → set maximum, constant).
  /// Factories are invoked once per simulation so each run sees a fresh,
  /// identical stream.
  std::function<std::unique_ptr<sim::QuantumSource>()> producer_sequence;
  std::function<std::unique_ptr<sim::QuantumSource>()> consumer_sequence;
  /// Consumer firings simulated per feasibility probe.
  std::int64_t observe_firings = 512;
};

/// Smallest capacity in [1, upper_bound] that passes the two-phase check,
/// or nullopt when even upper_bound fails.
[[nodiscard]] std::optional<std::int64_t> exact_minimal_pair_capacity(
    const PairSearchSpec& spec, std::int64_t upper_bound);

}  // namespace vrdf::baseline
