// Immutable topology snapshot + parameter overlay — the caching substrate
// of the incremental re-analysis engine (analysis/incremental.hpp).
//
// A full capacity analysis spends a large share of its time on work that
// depends only on the graph's *structure* (connectivity, bridges, SCCs and
// feedback-edge classification, the skeleton topological order): none of
// it changes when an actor is retuned, a constraint's period moves, or a
// buffer is resized.  TopologySnapshot captures that structural artifact
// once — one validate_cyclic_model call, whose single structural pass over
// the data edges yields both the diagnostics and the buffer view — and
// every analysis entry point accepts it in place of the raw graph.
//
// The parameter that does change between queries, per-actor ρ, is
// layered on top as a ParameterOverlay: a sparse set of overrides
// consulted by the analysis instead of mutating the graph.  Constraint
// periods are not part of the overlay — they are inputs of each analysis
// call; initial tokens and installed capacities are read from the graph.
//
// Staleness: a snapshot records the graph's mutation revision at capture
// time.  Using a stale snapshot would silently answer from memoized
// structure that no longer matches the graph, so every consumer calls
// require_fresh(), which throws a ContractError naming the mutation (the
// actor or edge touched) instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/vrdf_graph.hpp"
#include "util/error.hpp"
#include "util/time.hpp"

namespace vrdf::analysis {

class TopologySnapshot {
public:
  /// Captures the structural artifact of `graph` in one
  /// validate_cyclic_model pass: connectivity/pairing validation, cycle
  /// classification and the buffer network view.  The graph must outlive
  /// the snapshot (the snapshot keeps a reference); mutations after
  /// capture are detected, not followed.
  explicit TopologySnapshot(const dataflow::VrdfGraph& graph);

  /// False when the graph is not a consistent buffer network whose cycles
  /// all break at tokened back-edges; diagnostics() then carries the
  /// validation errors (exactly the strings compute_pacing would emit).
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::vector<std::string>& diagnostics() const {
    return diagnostics_;
  }

  [[nodiscard]] const dataflow::VrdfGraph& graph() const { return *graph_; }
  /// The buffer network view (only when ok()).
  [[nodiscard]] const dataflow::VrdfGraph::BufferView& view() const {
    VRDF_REQUIRE(view_ != nullptr, "snapshot of an invalid model has no view");
    return *view_;
  }
  /// Shared ownership of the view, so PacingResult can alias it without
  /// copying the topological structure per query.
  [[nodiscard]] std::shared_ptr<const dataflow::VrdfGraph::BufferView>
  view_ptr() const {
    return view_;
  }

  /// Per actor index: positions (in view().buffers order) of every buffer
  /// the actor produces into or consumes from, *including* feedback
  /// buffers (which the view's in/out adjacency deliberately excludes).
  /// This is the pair-invalidation index of the incremental engine,
  /// built on first use so one-shot analyses never pay for it.
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& incident_pairs()
      const;

  /// Graph revision at capture time.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }
  /// True when the underlying graph was mutated after capture.
  [[nodiscard]] bool stale() const { return graph_->revision() != revision_; }
  /// Throws ContractError naming the offending mutation (actor/edge) when
  /// the snapshot is stale.  Every query of the incremental engine and the
  /// admission controller goes through this guard.
  void require_fresh() const;

private:
  const dataflow::VrdfGraph* graph_;
  std::uint64_t revision_;
  bool ok_ = false;
  std::vector<std::string> diagnostics_;
  std::shared_ptr<const dataflow::VrdfGraph::BufferView> view_;
  /// Lazily built by incident_pairs(); empty until the incremental engine
  /// first asks for it (analysis is single-threaded by contract).
  mutable std::vector<std::vector<std::size_t>> incident_pairs_;
  mutable bool incident_pairs_built_ = false;
};

/// Sparse per-actor response-time overrides applied on top of a
/// snapshot.  An empty overlay reproduces the graph's own values — the
/// graph-based analysis entry points are exactly snapshot + empty overlay.
struct ParameterOverlay {
  /// ρ override by ActorId::index(); empty vector = no overrides.
  std::vector<std::optional<Duration>> response_time;

  /// ρ(actor) with the override applied.
  [[nodiscard]] const Duration& response_time_of(
      const dataflow::VrdfGraph& graph, dataflow::ActorId actor) const;

  void set_response_time(dataflow::ActorId actor, Duration rho);
};

}  // namespace vrdf::analysis
