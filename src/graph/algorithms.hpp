// Topology algorithms used by model validation.
//
// The paper restricts task graphs to *chains* (Sec 3.1): every task has at
// most one input and one output buffer, and the graph is weakly connected.
// chain_order() recognizes that shape and returns the tasks from source to
// sink.  The analysis pipeline itself now runs on any weakly connected
// acyclic topology (fork-join graphs) via topological_order() /
// reverse_topological_order(); chains remain the special case the paper
// treats and are detected for reporting.  The remaining algorithms support
// general-graph diagnostics (cycle detection, SCCs).
#pragma once

#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace vrdf::graph {

/// True when the underlying undirected graph is connected.  The empty graph
/// counts as connected.
[[nodiscard]] bool is_weakly_connected(const Digraph& g);

/// Nodes of a directed chain a1 -> a2 -> ... -> ak ordered from the unique
/// source to the unique sink, or nullopt when the graph is not a chain.
/// A single node with no edges is a chain of length one.  Edges are allowed
/// to come in anti-parallel pairs (forward data edge + reverse space edge);
/// `ignore_back_edges` treats an edge b->a as a back edge when a->b also
/// exists and a precedes b in the candidate order.
struct ChainOrder {
  std::vector<NodeId> nodes;                 // source first, sink last
  std::vector<EdgeId> forward_edges;         // forward_edges[i]: nodes[i]->nodes[i+1]
  std::vector<std::vector<EdgeId>> back_edges;  // back_edges[i]: nodes[i+1]->nodes[i]
};
[[nodiscard]] std::optional<ChainOrder> chain_order(const Digraph& g);

/// Topological order of a DAG, or nullopt when the graph has a directed
/// cycle.  Deterministic for a given construction order.
[[nodiscard]] std::optional<std::vector<NodeId>> topological_order(const Digraph& g);

/// topological_order() reversed: every node appears after all of its
/// successors — the traversal order of sink-anchored propagations.
[[nodiscard]] std::optional<std::vector<NodeId>> reverse_topological_order(
    const Digraph& g);

/// True when the graph contains a directed cycle.
[[nodiscard]] bool has_directed_cycle(const Digraph& g);

/// Per edge (indexed by EdgeId), true when the edge is a bridge of the
/// *undirected* multigraph: removing it disconnects its endpoints.
/// Parallel edges are never bridges; self-loops are never bridges.  In a
/// fork-join DAG the bridges are exactly the chain-segment edges — every
/// edge of a reconvergent region lies on an undirected cycle.
[[nodiscard]] std::vector<bool> undirected_bridges(const Digraph& g);

/// Strongly connected components (Tarjan); each component lists its nodes,
/// components are emitted in reverse topological order of the condensation.
[[nodiscard]] std::vector<std::vector<NodeId>> strongly_connected_components(
    const Digraph& g);

/// Edge classification against the SCC condensation: an edge lies on a
/// directed cycle exactly when it is a self-loop or its endpoints share a
/// strongly connected component.  `components` are in topological order of
/// the condensation (source components first), so cross-component edges
/// always point from a lower component index to a higher one.
struct FeedbackArcView {
  /// Condensation component per node (indexed by NodeId::index()).
  std::vector<std::size_t> component_of;
  /// Components in topological order of the condensation.
  std::vector<std::vector<NodeId>> components;
  /// Per edge (indexed by EdgeId::index()): true when the edge lies on a
  /// directed cycle (self-loop or intra-component edge).
  std::vector<bool> edge_on_cycle;
};
[[nodiscard]] FeedbackArcView feedback_arc_view(const Digraph& g);

/// Some directed cycle of the graph as a node sequence n0 -> n1 -> ... ->
/// n0 (the closing edge back to n0 is implied, n0 is not repeated), or
/// nullopt when the graph is acyclic.  A self-loop yields a one-node cycle.
[[nodiscard]] std::optional<std::vector<NodeId>> find_directed_cycle(
    const Digraph& g);

/// True when a directed path src ->* dst exists (src == dst counts as true).
[[nodiscard]] bool has_path(const Digraph& g, NodeId src, NodeId dst);

}  // namespace vrdf::graph
