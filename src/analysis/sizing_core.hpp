// Internal sizing primitives shared by the full analysis
// (buffer_sizing.cpp) and the incremental re-analysis engine
// (incremental.cpp).  Both paths MUST go through these helpers: the
// incremental engine promises field-for-field identical GraphAnalysis
// results, and the only way to keep that promise cheaply is to compute
// every lead and every pair with the same code and the same evaluation
// order as the full analysis.  The three result shapes (pacing failed,
// ρ-blocked, sized) are assembled in size_from_pacing alone: the engine
// takes its result on every full re-size and, between re-sizes, patches
// single pairs with analyse_pair and re-renders the starving back-edge
// diagnostics with append_starving_diagnostics.
//
// All helpers read parameters through a ParameterOverlay (an empty
// overlay reproduces the graph's own values bit for bit, since the
// overlay merely forwards to the graph accessor).
//
// Every helper takes a PacingResult and reads each pair's bound rate and
// quantum slacks from it (PacingResult::bound_rate, producer_slack,
// consumer_slack): they depend on φ alone, so a caller that holds a
// pacing — the incremental engine across ρ moves, the robustness joint
// probes, min-period's forward check on its rescaled unit pacing — sizes
// from it with size_from_pacing instead of propagating again.
#pragma once

#include <string>
#include <vector>

#include "analysis/pacing.hpp"
#include "analysis/snapshot.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::analysis::detail {

/// True when v carries a throughput constraint anchoring a region of the
/// given kind (sink-kind: data sinks and interior pins seen from
/// upstream; source-kind: data sources and interior pins seen from
/// downstream — an interior pin is both at once).
[[nodiscard]] bool constrained_kind(const PacingResult& pacing,
                                    dataflow::ActorId v, bool sink_kind);

/// Producer/consumer schedule validity (Sec 4.2): ρ(v) ≤ φ(v) for every
/// actor, in topological order.  Appends one diagnostic per violating
/// actor; returns false when any actor violates.
[[nodiscard]] bool check_schedule_validity(const dataflow::VrdfGraph& graph,
                                           const ParameterOverlay& overlay,
                                           const PacingResult& pacing,
                                           std::vector<std::string>& diagnostics);

/// ω(v) for a pass-A actor (sink-anchored, not a sink-kind constraint
/// anchor), given the leads of its sink-determined out-neighbours.
[[nodiscard]] Duration lead_pass_a_of(const dataflow::VrdfGraph& graph,
                                      const ParameterOverlay& overlay,
                                      const PacingResult& pacing,
                                      const std::vector<Duration>& lead,
                                      dataflow::ActorId v);

/// ω(v) for a pass-B actor (not sink-anchored, not a source-kind
/// constraint anchor), given the leads of its source-determined
/// in-neighbours.
[[nodiscard]] Duration lead_pass_b_of(const dataflow::VrdfGraph& graph,
                                      const ParameterOverlay& overlay,
                                      const PacingResult& pacing,
                                      const std::vector<Duration>& lead,
                                      dataflow::ActorId v);

/// Full two-pass schedule-alignment computation: pass A over the
/// sink-anchored region in reverse topological order, pass B over the
/// rest forward; constraint anchors stay pinned at ω = 0.  Indexed by
/// ActorId::index().
[[nodiscard]] std::vector<Duration> compute_alignment_leads(
    const dataflow::VrdfGraph& graph, const ParameterOverlay& overlay,
    const PacingResult& pacing);

/// Analyses the pair at position `pos` of pacing.buffers_in_order: bound
/// rate, Eq (1)–(4) capacity with the tight-adjacency rounding rule, and
/// — for back-edges — the max-cycle-ratio initial-token requirement.
[[nodiscard]] PairAnalysis analyse_pair(const dataflow::VrdfGraph& graph,
                                        const ParameterOverlay& overlay,
                                        const PacingResult& pacing,
                                        const std::vector<Duration>& lead,
                                        std::size_t pos,
                                        const AnalysisOptions& options);

/// True when the pair is a back-edge whose circulating tokens fall short
/// of its schedule-alignment credit: the period cannot be sustained.
[[nodiscard]] inline bool starves(const PairAnalysis& pair) {
  return pair.is_feedback &&
         pair.initial_tokens < pair.required_initial_tokens;
}

/// Appends one diagnostic per starving back-edge of `pairs`, in pair
/// order; returns true when none starves.  A sized analysis's diagnostics
/// are its pacing's followed by these.
bool append_starving_diagnostics(const dataflow::VrdfGraph& graph,
                                 const std::vector<PairAnalysis>& pairs,
                                 std::vector<std::string>& diagnostics);

/// Everything compute_buffer_capacities does after the propagation, on a
/// given pacing: the ρ ≤ φ check, the leads and every pair.  With the
/// pacing compute_pacing(snapshot, constraints) returns (or one
/// rescale_pacing made from it) the result is field for field what
/// compute_buffer_capacities(snapshot, constraints, options, overlay)
/// returns, which is exactly this call on a fresh propagation.
[[nodiscard]] GraphAnalysis size_from_pacing(const dataflow::VrdfGraph& graph,
                                             const PacingResult& pacing,
                                             const AnalysisOptions& options,
                                             const ParameterOverlay& overlay);

}  // namespace vrdf::analysis::detail
