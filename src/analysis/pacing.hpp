// Pacing propagation over the buffer graph (Sec 4.3 / 4.4, generalised
// from chains to fork-join DAGs, to cyclic graphs whose back-edges carry
// initial tokens, and to *sets* of simultaneous throughput constraints).
//
// A throughput constraint fixes the pacing of one end of the graph:
// φ(constrained actor) = τ.  Pacing then propagates per buffer edge, in
// the direction of the edge's rate-determining side:
//
//  * Sink-determined (Sec 4.3): the data-consuming task determines the
//    rate; the producer must be able to match the maximum consumption
//    rate even when producing its minimum quantum, so edge e_xy demands
//    φ(v_x) ≤ (φ(v_y)/γ̂(e_xy)) · π̌(e_xy).  Propagation walks the
//    reverse topological order of the data DAG; an actor with several
//    such out-edges must sustain the fastest demand, so its φ is the
//    *minimum* over its out-edges' demands (on a chain there is one
//    out-edge and this is exactly the paper's recurrence).
//  * Source-determined (Sec 4.4): mirrored — consumption is minimised and
//    production maximised: e_xy demands φ(v_y) ≤ (φ(v_x)/π̂(e_xy)) ·
//    γ̌(e_xy), moving downstream in topological order, minimum over
//    in-edges.
//
// With a single *end* constraint every edge inherits the constraint's
// side (the pre-PR-4 behaviour, reproduced bit for bit).  With a
// constraint *set* — or a constraint on an *interior* actor — the side
// is assigned per edge: a constrained actor may sit anywhere in the
// skeleton; it anchors a sink-kind region through its input buffers
// (everything with a skeleton path into it is paced upstream, exactly as
// if the pin were a data sink) and a source-kind region through its
// output buffers (everything it reaches is paced downstream, as if it
// were a data source) — a data sink anchors only the former, a data
// source only the latter, an interior pin both.  An edge whose consumer
// lies on a path into a sink-kind anchor is sink-determined, every other
// edge whose producer is reachable from a source-kind anchor is
// source-determined, and an edge paced by neither is rejected (no
// demand would relate its endpoints' rates).  Seeds propagate
// bidirectionally over the skeleton topological order — upstream through
// the sink-anchored region, downstream through the rest — taking the
// per-actor minimum over all demands, which flow consistency (below)
// collapses to the unique common value: a demand that differs is
// rejected, never silently minimised over.
//
// Flow consistency: because every actor runs ONE schedule, two demands
// that disagree at any actor describe realized flows that cannot balance:
// the branch toward the slower constraint receives tokens at a strictly
// higher rate than that constraint can ever drain (the demand already
// uses the producer's *minimum* and the consumer's *maximum* quanta), so
// some buffer on it fills at any finite capacity, back-pressure stalls
// the shared actor, and the faster constraint starves.  Disagreeing
// demands are therefore rejected with a diagnostic naming the binding
// constraint and the path it propagated along; in particular a
// constrained actor whose seeded period exceeds the φ another constraint
// propagates onto it (too slow — the other constraint starves), or
// undercuts it (too fast — tokens pile up until the actor itself blocks
// and misses its own deadline).
//
// φ(v) is simultaneously the minimal required difference between
// subsequent starts of v and the maximal admissible worst-case response
// time κ(w) (the paper derives the MP3 response times this way).
//
// Cyclic graphs: the propagation runs on the acyclic *skeleton* (the data
// edges minus the tokened back-edges) — equivalently, over the
// condensation DAG, since every SCC's cycles break at back-edges.  A
// back-edge imposes no propagation demand of its own (its endpoints are
// both paced through the skeleton), but its static rates must agree with
// the propagated pacing: π/φ(producer) = γ/φ(consumer), i.e. the
// circulating flow around every cycle must balance.  Inconsistent
// back-edges are rejected with diagnostics, mirroring the fork-join
// reconvergent-path rejection.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/snapshot.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {

struct PacingResult {
  bool ok = false;
  std::vector<std::string> diagnostics;
  /// Side of the primary (first) constraint; per-buffer sides live in
  /// `determined_by`.
  ConstraintSide side = ConstraintSide::Sink;
  /// The constraint set the propagation ran with.
  ConstraintSet constraints;
  /// True when the data edges form a chain (Sec 3.1 shape).
  bool is_chain = false;
  /// True when the data edges contain directed cycles (broken at tokened
  /// back-edges).
  bool is_cyclic = false;
  /// The buffer network the propagation ran on (valid whenever the graph
  /// passed validate_cyclic_model, even if pacing itself failed) — shared
  /// with the capacity and min-period computations so the topological
  /// structure is built once.  Aliases the TopologySnapshot's view when
  /// the snapshot entry point was used (no per-query copy).
  std::shared_ptr<const dataflow::VrdfGraph::BufferView> view;
  /// Actors in topological order of the data edges (chain order on
  /// chains, data source first).
  std::vector<dataflow::ActorId> actors_in_order;
  /// Buffers ordered by the producer's topological position (chain order
  /// on chains: buffers[i] connects actors[i] → actors[i+1]).
  std::vector<dataflow::BufferEdges> buffers_in_order;
  /// Per position in buffers_in_order: the pair's rate-determining side.
  std::vector<ConstraintSide> determined_by;
  /// Per actor index: true when the actor lies on a skeleton path into a
  /// sink-kind constrained actor — the region whose propagations (pacing
  /// and schedule alignment) run in reverse topological order; the rest
  /// of the graph propagates forward from source-kind constraints.
  std::vector<bool> sink_anchored;
  /// Per actor index: index into `constraints` when the actor is
  /// constrained, npos otherwise.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> constraint_of_actor;
  /// Per constraint index: true when the constrained actor anchors a
  /// sink-kind region, i.e. it has skeleton input buffers (data sinks and
  /// interior pins) / a source-kind region, i.e. it has skeleton output
  /// buffers (data sources and interior pins).  Exactly one holds at an
  /// end; both hold for an interior pin.
  std::vector<bool> constraint_is_sink_kind;
  std::vector<bool> constraint_is_source_kind;
  /// φ per position in actors_in_order.
  std::vector<Duration> pacing;
  /// φ indexed by ActorId::index() — the per-edge lookup the capacity
  /// computation uses.
  std::vector<Duration> pacing_by_actor;
  /// Per position in buffers_in_order, set with φ (compute_pacing,
  /// rescale_pacing): the pair's bound rate s = φ(near)/q̂ — time per token
  /// of its linear bounds, near = the rate-determining endpoint, q̂ = γ̂ on
  /// a sink-determined pair and π̂ on a source-determined one — and the
  /// quantum slacks s·(π̂ − 1) and s·(γ̂ − 1) of Eqs (1) and (2).  They
  /// depend on φ alone, so every lead pass and pair analysis on this
  /// pacing reads them instead of re-deriving them per ρ move.
  std::vector<Duration> bound_rate;
  std::vector<Duration> producer_slack;
  std::vector<Duration> consumer_slack;

  /// φ(actor).  Fails loudly (ContractError) on an out-of-range id or an
  /// actor the propagation never paced, instead of silently reading a
  /// default-constructed zero Duration.
  [[nodiscard]] const Duration& pacing_of(dataflow::ActorId actor) const {
    VRDF_REQUIRE(actor.index() < pacing_by_actor.size(),
                 "pacing_of: actor id out of range for this graph");
    const Duration& phi = pacing_by_actor[actor.index()];
    VRDF_REQUIRE(phi.is_positive(),
                 "pacing_of: actor was never paced by the propagation");
    return phi;
  }
};

/// Validates that the graph is a consistent buffer network whose cycles
/// break at tokened back-edges, and propagates pacing from the
/// constrained actors.  Constrained actors may be ends or interior pins,
/// every actor must be paced by at least one constraint, and all demands
/// must agree per actor (flow consistency — see the header comment).  A
/// lone end constraint must be the graph's unique data sink (sink mode)
/// or unique data source (source mode); an *interior* pin needs no
/// uniqueness — it paces its whole upstream cone like a sink and its
/// whole downstream cone like a source, and the coverage checks reject
/// any actor or edge left unpaced.  Produces diagnostics
/// instead of throwing for model-level infeasibility:
///  * a zero minimum quantum on the rate-determining side (would require
///    an infinite rate);
///  * data-dependent rate sets on a reconvergent fork-join edge — the
///    join drains sibling branches in lockstep, so variable realized
///    flows would diverge unboundedly and no finite capacity suffices;
///  * conflicting per-edge pacing demands at a fork (sink mode) or join
///    (source mode) — with static reconvergent rates this is exactly
///    rate inconsistency around an undirected cycle of the data graph,
///    which no capacities can buffer away;
///  * a back-edge whose static rates disagree with the skeleton-propagated
///    pacing of its endpoints — flow around the directed cycle would not
///    balance, so the circulating token count drifts and either the loop
///    starves or its buffer fills regardless of capacity.
[[nodiscard]] PacingResult compute_pacing(const dataflow::VrdfGraph& graph,
                                          const ConstraintSet& constraints);

/// Snapshot entry point: identical semantics and diagnostics, but the
/// model validation and buffer-network view come from the captured
/// TopologySnapshot instead of being rebuilt per call — the memoization
/// tier every incremental query sits on.  The graph entry point above is
/// exactly `compute_pacing(TopologySnapshot(graph), ...)`.
[[nodiscard]] PacingResult compute_pacing(const TopologySnapshot& snapshot,
                                          const ConstraintSet& constraints);

/// Scales an ok pacing in place to the same constraint set with every
/// period multiplied by `factor` (> 0): φ, the constraint periods and the
/// pair rates.  Each φ is a period times a product of rate ratios and
/// Rational arithmetic canonicalises, so the result is bit-identical to a
/// fresh compute_pacing of the scaled set; a uniform positive factor
/// cannot change which demand binds a minimum or whether demands agree.
void rescale_pacing(PacingResult& pacing, const dataflow::VrdfGraph& graph,
                    const Rational& factor);

/// Pacing restricted to the actors a constraint subset reaches, used by
/// the multi-constraint min-period solver: actors outside the subset's
/// demand cone keep no pacing instead of failing the propagation, and no
/// end-uniqueness / full-coverage checks are applied.  Conflicting
/// demands, zero rate-determining quanta and seed violations still
/// reject.
struct PartialPacing {
  bool ok = false;
  std::vector<std::string> diagnostics;
  /// φ by ActorId::index(); unset for actors the subset does not pace.
  std::vector<std::optional<Duration>> phi_by_actor;
};
[[nodiscard]] PartialPacing compute_partial_pacing(
    const TopologySnapshot& snapshot, const ConstraintSet& constraints);

}  // namespace vrdf::analysis
