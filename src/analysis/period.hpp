// The inverse problem: fastest admissible period for *given* capacities.
//
// The paper computes capacities from a period; deployed systems often face
// the converse — buffers are already sized (silicon, legacy firmware) and
// the question is the fastest strictly periodic rate they support.  Within
// the paper's framework this has a closed form, because pacing is linear
// in the period: φ(v) = c_v·τ with a rate-only coefficient c_v from the
// Sec 4.3/4.4 propagation.  Per pair, sufficiency of capacity d (in the
// conservative Eq (4) sense x ≤ d − 1, or x ≤ d on a pair the rounding
// mode rounds to ⌈x⌉) turns into a lower bound on the pair's bound rate
// s = c·τ/γ̂ and hence on τ:
//
//     x = (ρ_a + ρ_b)/s + (π̂ − 1) + (γ̂ − 1) ≤ d − 1
//  ⇔  τ ≥ γ̂·(ρ_a + ρ_b) / (c · (d + 1 − π̂ − γ̂))        [literal form]
//
// plus the schedule-validity constraints ρ(v) ≤ φ(v) = c_v·τ.  The
// minimum admissible period is the maximum of all these bounds; a pair
// with d + 1 ≤ π̂ + γ̂ (d + 2 on the tight pair ≤ ...) cannot sustain any
// rate.
//
// Note on tightness: the forward rounding ⌊x⌋+1 ≤ d is the *open*
// condition x < d, which has no attained minimum period; this analysis
// uses the closed condition x ≤ d − 1 instead, so the returned period is
// attained, sound, and conservative by strictly less than one token's
// worth of rate.
//
// ω, the Δ terms, the back-edge credit and the rounding come from the
// forward analysis' own rules (analysis/sizing_core.hpp) over leads
// affine in τ; the solver adds the margins, bounds, infimum, fixed point
// and forward check.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/snapshot.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::analysis {

struct MinPeriodResult {
  bool ok = false;
  std::vector<std::string> diagnostics;
  /// Attained safe period: at min_period the conservative sufficiency
  /// criterion (x ≤ d − 1 on pairs that keep the Eq (4) +1; x ≤ d on the
  /// tight pair) holds with equality somewhere.  Always feasible.
  Duration min_period;
  /// Exact feasibility infimum of the *forward* analysis: for every
  /// τ > infimum_period, compute_buffer_capacities at τ yields capacities
  /// that fit the installed ones.  τ = infimum_period itself fits iff
  /// infimum_attained (the binding constraint is closed: a response time
  /// or a tight pair).  infimum_period ≤ min_period, with equality when x
  /// is integral at the binding pair (e.g. the MP3 chain).
  Duration infimum_period;
  bool infimum_attained = false;
  /// Which constraint was binding for min_period: "actor <name>" (response
  /// time), "buffer producer->consumer" (capacity), "cycle through
  /// back-edge producer->consumer" (cycle credit) or "flow-coupling at
  /// actor '<name>'" (a designated constraint coupled to fixed ones).
  std::string binding_constraint;
};

/// The solver.  Takes the structure from the captured `snapshot`, reads ρ
/// through `overlay` (empty = the graph's own values) and the installed
/// capacities (δ of each buffer's space and data edge) from the graph;
/// returns the fastest admissible strictly periodic rate of `designated`,
/// whose constraint must be in `constraints` (its period there is ignored).
///
/// With no other constraint in the set this is the closed form above: the
/// designated actor may be a data source, a sink or an interior pin.  On
/// cyclic graphs the result additionally honours the max-cycle-ratio
/// bound: period ≥ cycle latency / initial-token credit for every directed
/// cycle (the binding_constraint then names the back-edge).  Inadmissible
/// situations (zero capacity, capacity below the structural minimum
/// π̂+γ̂−1, rate-side zero quanta) yield ok == false with diagnostics.
///
/// With other constraints, those are held fixed.  Because constraint sets
/// must be flow-consistent (demands have to agree at every shared actor,
/// see analysis/pacing.hpp), a designated constraint that shares pacing
/// with a fixed one has exactly one admissible period — the flow-coupled
/// value; the solver derives it from the overlap of the two demand cones,
/// forward-verifies it against the installed capacities, and reports
/// infeasibility (with diagnostics) when the coupled value violates a
/// response time, a capacity, or a cycle bound.
[[nodiscard]] MinPeriodResult min_admissible_period(
    const TopologySnapshot& snapshot, const ConstraintSet& constraints,
    dataflow::ActorId designated, const AnalysisOptions& options = {},
    const ParameterOverlay& overlay = {});

/// The solver on a fresh snapshot of `graph` with an empty overlay.
[[nodiscard]] MinPeriodResult min_admissible_period(
    const dataflow::VrdfGraph& graph, const ConstraintSet& constraints,
    dataflow::ActorId designated, const AnalysisOptions& options = {});

/// Exactly `min_admissible_period(graph, {{actor, any period}}, actor,
/// options)`.  Kept because the repository benchmark calls it.
[[nodiscard]] MinPeriodResult min_admissible_period(
    const dataflow::VrdfGraph& graph, dataflow::ActorId actor,
    const AnalysisOptions& options = {});

}  // namespace vrdf::analysis
