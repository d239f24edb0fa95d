// Graphviz DOT export for task graphs and VRDF graphs.
#pragma once

#include <string>

#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "taskgraph/task_graph.hpp"

namespace vrdf::io {

/// DOT digraph: actors as boxes (name, ρ), data edges solid with
/// "π / γ" labels, space edges dashed with their initial-token count.
/// Back-edges of cyclic topologies (tokened data edges on a directed
/// cycle) render dashed with a "[feedback]" tag and their token count.
[[nodiscard]] std::string to_dot(const dataflow::VrdfGraph& graph);

/// Annotated variant: space edges of analysed buffers additionally carry
/// the computed capacity ζ (flagged when the installed δ differs), and
/// every constrained actor of the set is double-bordered with its own
/// period τ — so fork-join sizings can be checked visually.  Requires an
/// admissible analysis.
[[nodiscard]] std::string to_dot(const dataflow::VrdfGraph& graph,
                                 const analysis::ConstraintSet& constraints,
                                 const analysis::GraphAnalysis& analysis);

/// DOT digraph: tasks as boxes (name, κ), buffers as edges labelled
/// "ξ / λ [ζ]".
[[nodiscard]] std::string to_dot(const taskgraph::TaskGraph& graph);

}  // namespace vrdf::io
