// Buffer-capacity computation (Sec 4) — the paper's main contribution,
// generalised from chains to fork-join graphs and to cyclic graphs whose
// back-edges carry initial tokens: the per-pair bound below only needs
// the pacing of the buffer's own endpoints, so it applies to every buffer
// edge once pacing has been propagated per edge (see analysis/pacing.hpp).
// A back-edge's capacity additionally covers its circulating tokens (the
// δ initial tokens come on top of the schedule slack), and the throughput
// constraint is gated by the max-cycle-ratio bound: period ≥ cycle
// latency / initial-token credit for every directed cycle.
//
// For every producer-consumer pair of the graph the algorithm:
//  1. takes the pair's bound rate s = φ/γ̂ (sink mode) or φ/π̂ (source
//     mode) from pacing propagation;
//  2. forms the minimum distance between the linear upper bound on space
//     production times and the linear lower bound on space consumption
//     times, Eq (3):
//        Δ = ρ(v_a) + ρ(v_b) + s·(π̂ − 1) + s·(γ̂ − 1)
//     (the paper writes the slack terms as τ/π̂(e_ba)·(γ̂(e_ba)−1) and
//      τ/γ̂(e_ab)·(γ̂(e_ab)−1); with γ̂(e_ba) = π̂(e_ab) and
//      π̂(e_ba) = γ̂(e_ab) both reduce to the form above);
//  3. converts the time distance into tokens, Eq (4): x = Δ/s, and rounds
//     per RoundingMode.
//
// Sufficiency rests on two model properties (Sec 3.2): monotonicity (an
// earlier start never delays anything — so the self-timed run-time
// schedule is never later than the constructed one) and linearity (a
// consumer-side delay of Δ when it produces/consumes less than its maximum
// quantum delays every other firing by at most Δ — so the periodic sink
// schedule stays feasible).
#pragma once

#include "analysis/snapshot.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::analysis {

/// Computes buffer capacities for a VRDF graph (chain, fork-join DAG, or
/// cyclic with tokened back-edges) so that every throughput constraint of
/// the set is satisfied for *every* admissible sequence of
/// production/consumption quanta.  Several simultaneous constraints (e.g.
/// an audio and a video presenter, or a pinned source *and* sink) must be
/// mutually flow-consistent, and every actor must be paced by some
/// constraint; per pair the rate-determining side is assigned
/// individually (PairAnalysis::determined_by).  Returns an inadmissible
/// result with diagnostics (never throws) for model-level infeasibility:
///  * the graph is not a consistent network of buffers, or contains a
///    token-free directed cycle (validate_cyclic_model);
///  * a lone end constraint is not the graph's unique data source or sink;
///  * conflicting demands of the set, naming the binding constraint and
///    path (see analysis/pacing.hpp);
///  * a zero minimum quantum on the rate-determining side;
///  * a response time exceeding the actor's pacing, ρ(v) > φ(v)
///    (the producer/consumer schedule validity constraints of Sec 4.2);
///  * a directed cycle whose latency exceeds its initial-token credit —
///    the max-cycle-ratio bound period ≥ cycle latency / initial tokens.
[[nodiscard]] GraphAnalysis compute_buffer_capacities(
    const dataflow::VrdfGraph& graph, const ConstraintSet& constraints,
    const AnalysisOptions& options = {});

/// Exactly `compute_buffer_capacities(graph, {constraint}, options)`.
/// Kept because the repository benchmark's MP3 gate calls it.
[[nodiscard]] GraphAnalysis compute_buffer_capacities(
    const dataflow::VrdfGraph& graph,
    const ThroughputConstraint& constraint,  // det-lint: ok(benchmark-pinned)
    const AnalysisOptions& options = {});

/// Snapshot entry point: identical semantics and bit-identical results,
/// but the model validation and buffer-network view come from the
/// captured TopologySnapshot, and per-actor ρ reads go through the
/// ParameterOverlay (empty overlay = the graph's own values).  The graph
/// entry points above are exactly
/// `compute_buffer_capacities(TopologySnapshot(graph), ...)` with an
/// empty overlay.
[[nodiscard]] GraphAnalysis compute_buffer_capacities(
    const TopologySnapshot& snapshot, const ConstraintSet& constraints,
    const AnalysisOptions& options = {}, const ParameterOverlay& overlay = {});

/// Writes the computed capacities into the graph: δ(space edge) of every
/// analysed buffer is set to the pair's capacity minus the containers the
/// buffer's initial data tokens occupy.  Requires an admissible analysis
/// of this very graph.
void apply_capacities(dataflow::VrdfGraph& graph, const GraphAnalysis& analysis);

/// The first pair of `analysis` whose capacity exceeds the buffer's
/// installed total (δ(space) + δ(data)); nullptr when every pair fits.
[[nodiscard]] const PairAnalysis* first_over_installed(
    const dataflow::VrdfGraph& graph, const GraphAnalysis& analysis);

/// Maximal admissible worst-case response times (the paper derives the MP3
/// response times 51.2/24/10/0.0227 ms this way): κ(w) may be at most
/// φ(v) for the throughput constraint to be satisfiable.  Returned in
/// topological order together with the actor ids; inadmissible graphs
/// yield an empty vector plus diagnostics.
struct ResponseTimeBudget {
  bool ok = false;
  std::vector<std::string> diagnostics;
  std::vector<dataflow::ActorId> actors_in_order;
  std::vector<Duration> max_response_times;
};
[[nodiscard]] ResponseTimeBudget max_admissible_response_times(
    const dataflow::VrdfGraph& graph, const ConstraintSet& constraints);

}  // namespace vrdf::analysis
