// Deterministic fault injection — the adversarial counterpart of the
// model-conformant jitter hook.
//
// Every guarantee of the analysis holds only while actors respect their
// declared worst-case response times ρ(v).  A FaultPlan perturbs firings
// at the engine's response-time scheduling point (the instant start_firing
// fixes the firing's finish) so that affected firings take *longer* than
// ρ(v) — i.e. the actor violates its contract.  Two fault kinds, both
// lowering to per-firing extra durations:
//
//  * rho_overrun     — every firing in a window runs ρ·factor + extra;
//  * transient_stall — one firing is frozen for a window of `outage`
//                      before it produces (the actor is unresponsive for
//                      that long).
//
// Plans are composable per actor (extras add up per firing) and
// deterministic, so the two phases of the verification harness — and any
// clock representation — see bit-for-bit identical perturbations.
//
// Within-margin faults (extra per firing ≤ the actor's
// analysis::robustness_margins tolerable overrun) provably keep the
// installed capacities sufficient; beyond-margin faults are what the
// ConformanceMonitor (sim/monitor.hpp) exists to detect and name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/vrdf_graph.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace vrdf::sim {

/// One declared fault on one actor (the user-facing form; see FaultPlan).
struct FaultSpec {
  enum class Kind {
    /// Firings in [from_firing, from_firing+firings) run
    /// ρ·factor + extra instead of ρ.
    RhoOverrun,
    /// Firing `from_firing` is frozen for `extra` before producing.
    TransientStall,
  };

  Kind kind = Kind::RhoOverrun;
  dataflow::ActorId actor;
  /// Additive extra duration (RhoOverrun) or stall length
  /// (TransientStall).
  Duration extra;
  /// RhoOverrun only: multiplicative factor on ρ (>= 1).
  Rational factor{1};
  /// First affected firing (0-based).
  std::int64_t from_firing = 0;
  /// Affected firing count from from_firing; < 0 means "to the end".
  /// TransientStall always affects exactly one firing.
  std::int64_t firings = -1;
};

/// A deterministic, composable set of faults.  Build with the fluent
/// helpers, then `apply` to every simulator of a run (both phases of
/// verify_throughput via its configurer): identical plans replay
/// identically.  The seed only labels the plan in describe().
class FaultPlan {
public:
  explicit FaultPlan(std::uint64_t seed = 1) : seed_(seed) {}

  /// Firings [from, from+firings) of `actor` take ρ·factor + extra.
  FaultPlan& rho_overrun(dataflow::ActorId actor, Duration extra,
                         Rational factor = Rational(1),
                         std::int64_t from_firing = 0,
                         std::int64_t firings = -1);

  /// Firing `at_firing` of `actor` freezes for `outage` before producing.
  FaultPlan& transient_stall(dataflow::ActorId actor, std::int64_t at_firing,
                             Duration outage);

  /// Installs the plan on a simulator (resolves ρ factors against the
  /// simulator's graph).  Must be called before the simulator's first run,
  /// like every simulator setter; the plan's extras then join the tick
  /// scale.
  void apply(Simulator& sim) const;

  /// One line per spec, e.g. "rho_overrun on 'dec': +1/2 ms from firing 0".
  [[nodiscard]] std::string describe(const dataflow::VrdfGraph& graph) const;

private:
  std::uint64_t seed_;
  std::vector<FaultSpec> specs_;
};

}  // namespace vrdf::sim
