// Internal sizing primitives: the one copy of the sizing rules (ω lead
// pass, Eq (1)–(3) pair rule and back-edge credit, Eq (4) rounding),
// shared by the full analysis, the incremental engine (whose promise of
// field-for-field identical GraphAnalysis results rests on computing
// every lead and pair with the same code and evaluation order),
// min-period (the same lead pass and pair rule over leads affine in τ),
// and the certificate and robustness hints (via tight_rounding).  Only
// the certificate checker keeps its own derivation.  The three result
// shapes (pacing failed, ρ-blocked, sized) are assembled in
// size_from_pacing alone; between re-sizes the engine patches single
// pairs with analyse_pair and re-renders starving back-edge diagnostics
// with append_starving_diagnostics.
//
// All helpers read ρ through a ParameterOverlay (an empty
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

/// A lead affine in the period τ: resp + rate·τ (seconds, and seconds per
/// unit period).  Over a unit-period pacing ρ is τ-independent and the
/// quantum slacks are coefficients of τ, so every ω and Eq (1)–(3) term
/// is affine in τ and a pair's sufficiency becomes a bound on τ.
struct AffineLead {
  Rational resp;
  Rational rate;

  [[nodiscard]] Rational at(const Rational& tau) const {
    return resp + rate * tau;
  }
  friend AffineLead operator+(const AffineLead& a, const AffineLead& b) {
    return {a.resp + b.resp, a.rate + b.rate};
  }
  friend AffineLead operator-(const AffineLead& a, const AffineLead& b) {
    return {a.resp - b.resp, a.rate - b.rate};
  }
  friend bool operator==(const AffineLead&, const AffineLead&) = default;
};

/// How the lead pass and the pair rule build leads of type Lead from a
/// response time ρ and a pacing's quantum slack s·(q̂ − 1) (local_term is
/// their sum, a pair's chain-local term), and which of two leads is
/// longer; leads add and subtract with + and −.  Duration: leads at the
/// pacing's own period.
template <class Lead>
struct LeadArithmetic {
  static Lead local_term(const Lead& rho, const Lead& slack) {
    return rho + slack;
  }
  static Lead plus_response(const Lead& lead, const Lead& rho) {
    return lead + rho;
  }
  static Lead plus_slack(const Lead& lead, const Lead& slack) {
    return lead + slack;
  }
  static bool longer(const Lead& a, const Lead& b) { return a > b; }
};

/// AffineLead: ρ enters the resp part and a slack the rate part.  The
/// max over a fork's edges can switch with τ, so leads are ordered by
/// their values at a candidate period.
template <>
struct LeadArithmetic<AffineLead> {
  Rational tau;

  static AffineLead local_term(const Duration& rho, const Duration& slack) {
    return {rho.seconds(), slack.seconds()};
  }
  static AffineLead plus_response(AffineLead lead, const Duration& rho) {
    lead.resp += rho.seconds();
    return lead;
  }
  static AffineLead plus_slack(AffineLead lead, const Duration& slack) {
    lead.rate += slack.seconds();
    return lead;
  }
  [[nodiscard]] bool longer(const AffineLead& a, const AffineLead& b) const {
    return a.at(tau) > b.at(tau);
  }
};

/// ω(v) for a pass-A actor (sink-anchored, not a sink-kind constraint
/// anchor), given the leads of its sink-determined out-neighbours.
template <class Lead>
[[nodiscard]] Lead lead_pass_a_of(const dataflow::VrdfGraph& graph,
                                  const ParameterOverlay& overlay,
                                  const PacingResult& pacing,
                                  const std::vector<Lead>& lead,
                                  dataflow::ActorId v,
                                  const LeadArithmetic<Lead>& arith = {});

/// ω(v) for a pass-B actor (not sink-anchored, not a source-kind
/// constraint anchor), given the leads of its source-determined
/// in-neighbours.
template <class Lead>
[[nodiscard]] Lead lead_pass_b_of(const dataflow::VrdfGraph& graph,
                                  const ParameterOverlay& overlay,
                                  const PacingResult& pacing,
                                  const std::vector<Lead>& lead,
                                  dataflow::ActorId v,
                                  const LeadArithmetic<Lead>& arith = {});

/// Full two-pass schedule-alignment computation: pass A over the
/// sink-anchored region in reverse topological order, pass B over the
/// rest forward; constraint anchors stay pinned at ω = 0.  Indexed by
/// ActorId::index().
template <class Lead>
[[nodiscard]] std::vector<Lead> compute_alignment_leads(
    const dataflow::VrdfGraph& graph, const ParameterOverlay& overlay,
    const PacingResult& pacing, const LeadArithmetic<Lead>& arith);

/// One pair's Eq (1)–(3) terms, its back-edge credit (zero elsewhere) and
/// its PairAnalysis::tight_rounding.
template <class Lead>
struct PairTerms {
  Lead delta_producer;
  Lead delta_consumer;
  Lead delta_total;
  Lead credit;
  bool tight_rounding = false;
};

/// The pair rule for the pair at position `pos` of pacing.buffers_in_order,
/// whose data edge is `data`.
template <class Lead>
[[nodiscard]] PairTerms<Lead> pair_terms(
    const dataflow::VrdfGraph& graph, const ParameterOverlay& overlay,
    const PacingResult& pacing, const std::vector<Lead>& lead,
    std::size_t pos, const dataflow::Edge& data,
    const LeadArithmetic<Lead>& arith = {});

/// True when the pair at `pos`, whose data edge is `data`, touches the
/// constrained anchor of its rate-determining side (its consumer on a
/// sink-determined pair, its producer on a source-determined one).
[[nodiscard]] inline bool adjacent_to_anchor(const PacingResult& pacing,
                                             const dataflow::Edge& data,
                                             std::size_t pos) {
  return pacing.determined_by[pos] == ConstraintSide::Sink
             ? constrained_kind(pacing, data.target, /*sink_kind=*/true)
             : constrained_kind(pacing, data.source, /*sink_kind=*/false);
}

/// The Eq (4) rounding rule: true when a pair with the given
/// tight_rounding takes ⌈x⌉ under `mode`, false when it takes ⌊x⌋ + 1.
[[nodiscard]] inline bool uses_ceiling(bool tight_rounding,
                                       RoundingMode mode) {
  switch (mode) {
    case RoundingMode::PaperLiteral:
      return false;
    case RoundingMode::Ceil:
      return true;
    case RoundingMode::PaperPublished:
      return tight_rounding;
  }
  throw ContractError("unknown rounding mode");
}

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
