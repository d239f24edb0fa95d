// Analysis-derived robustness margins — how far the run time may stray
// from the declared model before the installed buffer capacities stop
// being sufficient.
//
// The buffer-sizing theorem is conditional: capacities computed for
// response times ρ(v) are sufficient only while every firing of v
// finishes within ρ(v).  This module turns that condition into
// quantitative slack, against the capacities *installed in the graph*
// (which may exceed the analysed minimum):
//
//  * per-actor margin — the largest extra response time δ such that
//    re-analysing the graph with ρ(v)+δ (all other actors unchanged)
//    still fits the installed capacities.  Any fault plan whose
//    per-firing extra on v stays ≤ margin(v) provably keeps phase-2
//    verification starvation-free — the faulted run is dominated by the
//    self-timed run of the inflated model, which the installed
//    capacities cover (monotonicity, Sec 3.2).
//  * per-buffer headroom — installed capacity minus the analysed
//    requirement, in containers.
//  * joint safe fraction — per-actor margins do NOT compose (each is
//    measured with the others at their declared ρ), so we also report
//    the largest fraction f of its individual slack φ(v) − ρ(v) that
//    *every* actor may consume simultaneously.
//
// Both searches rely on the fits predicate (the re-analysis is admissible
// and every pair fits its installed capacity) being monotone along the
// search direction, so the largest fitting point of a 64-step grid of the
// slack is unique and gives the margin exactly to grid resolution.  That
// is measured on every grid point by
// Robustness.MarginIsTheLargestFittingGridPoint.  Per-pair capacities
// are not monotone in ρ: on fork-join seed 8 (sink mode), raising
// ρ(s0_b1_1) takes s0_pre_0 -> s0_b1_0 from 23 to 22.  Likewise
// joint_safe_fraction · slack(v) ≤ margin(v) is measured for every actor
// (Robustness.JointFractionBoundedByEachActorsMargin), not derived.
//
// Each search first probes the grid point the baseline predicts: the
// moved ρ enters Δ once per endpoint of a pair, so every pair's raw token
// count x rises by δ/s (s the pair's bound rate) and the hint is the last
// grid point at which every such pair still fits its installed capacity
// — the first-order form of parametric throughput analysis (Ghamarian et
// al., DATE 2008).  If the hint holds, the search probes the point after
// it, and the top if that holds too.  After a failed probe it probes the
// point a secant through that probe predicts, then bisects what is left
// (detail::largest_holding_point).  On a chain the first hint is exact.
// Any prediction yields the same margin; only the probe count depends on
// it.
//
// Cost: ρ enters neither the structural snapshot nor the pacing
// propagation, so one TopologySnapshot and one IncrementalAnalysis serve
// every probe.  A per-actor probe is a ρ-cone retune — only the ω leads
// and pairs the actor reaches are re-derived — and the actor is restored
// after its search; a joint probe moves every ρ at once and sizes the
// engine's pacing under one overlay (detail::size_from_pacing).  On the
// repo benchmark's 8–32-actor margins pool a report runs about 41
// probes, 1.9 per search (probing the top first ran 58, 2.7 per search;
// plain bisection 143, 6.8); RobustnessReport::probes counts them.
#pragma once

#include <string>
#include <vector>

#include "analysis/buffer_sizing.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::analysis {

/// Tolerable response-time overrun of one actor, installed capacities and
/// all other actors' declared ρ held fixed.
struct ActorMargin {
  dataflow::ActorId actor;
  /// Declared worst-case response time ρ(v).
  Duration response_time;
  /// Maximal admissible response time φ(v): the baseline analysis' pacing,
  /// the same value max_admissible_response_times reports.
  Duration max_response_time;
  /// Largest grid-resolved extra δ with capacities(ρ(v)+δ) ≤ installed.
  /// Zero when the actor has no slack (ρ = φ) or the baseline already
  /// exactly fills the installed capacities.
  Duration margin;
};

/// Installed-vs-required container count of one buffer.
struct BufferHeadroom {
  dataflow::BufferEdges buffer;
  dataflow::ActorId producer;
  dataflow::ActorId consumer;
  /// Analysed capacity requirement at the declared response times.
  std::int64_t required = 0;
  /// Capacity actually installed in the graph.
  std::int64_t installed = 0;
  /// installed − required (never negative when the report is ok).
  std::int64_t headroom = 0;
};

struct RobustnessReport {
  /// True when the baseline analysis is admissible and the installed
  /// capacities cover it; margins are only meaningful when true.
  bool ok = false;
  std::vector<std::string> diagnostics;
  ConstraintSet constraints;
  /// One entry per actor, in the analysis' topological order.
  std::vector<ActorMargin> actors;
  /// One entry per buffer, in the analysis' pair order.
  std::vector<BufferHeadroom> buffers;
  /// Largest fraction of its individual slack φ(v) − ρ(v) that every
  /// actor may consume at once (grid-resolved, in [0, 1]).
  Rational joint_safe_fraction;
  /// Search probes the margins cost: per-actor ρ retunes plus joint
  /// overlay analyses.  Observability only; no report renders it.
  std::int64_t probes = 0;
};

/// Computes robustness margins of `graph` (which must already carry the
/// installed capacities, e.g. via apply_capacities — possibly with extra
/// headroom) against `constraints`, at the default AnalysisOptions.
/// Never throws on model-level infeasibility; inspect ok/diagnostics.
[[nodiscard]] RobustnessReport robustness_margins(
    const dataflow::VrdfGraph& graph, const ConstraintSet& constraints);

}  // namespace vrdf::analysis
