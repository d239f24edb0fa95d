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
// chain index.  validate_cyclic_model() is the one validator: it admits
// weakly connected chains, fork-join DAGs and cyclic topologies whose
// back-edges carry initial tokens (rate-control loops, predictive
// decoders).  Narrower shapes are properties of the view it returns: the
// Sec 3.1 chain restriction is BufferView::is_chain, acyclicity is
// !BufferView::is_cyclic.
//
// It runs one structural pass over one compact adjacency of the data
// edges: weak connectivity and bridges (one undirected DFS), Tarjan SCC
// (which edges lie on directed cycles), the greedy feedback-edge
// classification and the skeleton topological order.  The pass also
// yields the buffer view (VrdfGraph::buffer_view() is a projection of
// it), so a caller that validates gets the view for free.
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

}  // namespace vrdf::dataflow
