// Structural validation of VRDF graphs against the paper's model rules.
//
// Sec 3.1 restricts task graphs to weakly connected chains; Sec 3.3 notes
// that graphs constructed from such task graphs are inherently strongly
// consistent because a task returns exactly the space it consumed and
// requires exactly the space it produces.  validate() re-checks those
// invariants on an arbitrary VRDF graph so that hand-built models get the
// same guarantees as converted task graphs.
//
// The analysis itself only needs the per-buffer invariants plus a data
// topology whose cycles all break at initial tokens — the per-pair bound
// of Eqs (1)-(4) propagates along each buffer edge, not along a global
// chain index.  validate_cyclic_model() admits weakly connected cyclic
// topologies whose back-edges carry initial tokens (rate-control loops,
// predictive decoders), validate_dag_model() restricts to acyclic
// fork-join topologies, and validate_chain_model() adds the Sec 3.1 chain
// restriction on top.
//
// All three run one structural pass over one compact adjacency of the data
// edges: weak connectivity and bridges (one undirected DFS), Tarjan SCC
// (which edges lie on directed cycles), the greedy feedback-edge
// classification and the skeleton topological order.  The pass also
// yields the buffer view (VrdfGraph::buffer_view() and chain_view() are
// projections of it), so a caller that validates gets the view for free.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dataflow/vrdf_graph.hpp"

namespace vrdf::dataflow {

struct ValidationReport {
  std::vector<std::string> errors;
  /// The buffer network view, present whenever every edge is paired and
  /// no directed data cycle is token-free — even when other errors fire.
  std::optional<VrdfGraph::BufferView> view;

  [[nodiscard]] bool ok() const { return errors.empty(); }
  /// All messages joined with "; " (empty string when ok).
  [[nodiscard]] std::string summary() const;
};

/// The widest model class the analysis accepts.  Checks, in order:
///  * the graph has at least one actor and is weakly connected;
///  * every edge belongs to an anti-parallel buffer pair;
///  * each pair satisfies π(data) == γ(space) and γ(data) == π(space)
///    (strong consistency of the buffer protocol);
///  * every directed cycle of the data edges carries at least one initial
///    token (a token-free cycle can never fire — deadlock at t=0 — and is
///    reported with the cycle's actors);
///  * every data edge on a directed cycle has static, positive rates
///    (singleton π and γ): a variable realized rate around a cycle makes
///    the circulating token count drift, so no finite capacity satisfies
///    a throughput constraint for every admissible sequence.
[[nodiscard]] ValidationReport validate_cyclic_model(const VrdfGraph& graph);

/// validate_cyclic_model() minus cycles: the data edges must form an
/// acyclic graph (fork-join generalisation of the Sec 3.1 restriction;
/// parallel buffers between one actor pair are allowed, directed data
/// cycles — with or without initial tokens — are not).
[[nodiscard]] ValidationReport validate_dag_model(const VrdfGraph& graph);

/// validate_dag_model() plus the Sec 3.1 chain restriction: the data edges
/// must form a single directed chain.
[[nodiscard]] ValidationReport validate_chain_model(const VrdfGraph& graph);

}  // namespace vrdf::dataflow
