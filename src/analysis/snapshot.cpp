#include "analysis/snapshot.hpp"

#include "dataflow/validation.hpp"

namespace vrdf::analysis {

using dataflow::VrdfGraph;

TopologySnapshot::TopologySnapshot(const VrdfGraph& graph)
    : graph_(&graph), revision_(graph.revision()) {
  dataflow::ValidationReport validation = dataflow::validate_cyclic_model(graph);
  if (!validation.ok()) {
    diagnostics_ = std::move(validation.errors);
    return;
  }
  view_ = std::make_shared<const VrdfGraph::BufferView>(
      std::move(validation.view.value()));
  ok_ = true;
}

const std::vector<std::vector<std::size_t>>& TopologySnapshot::incident_pairs()
    const {
  if (!incident_pairs_built_) {
    VRDF_REQUIRE(ok_, "snapshot of an invalid model has no pair index");
    incident_pairs_.resize(graph_->actor_count());
    for (std::size_t pos = 0; pos < view_->buffers.size(); ++pos) {
      const dataflow::Edge& data = graph_->edge(view_->buffers[pos].data);
      incident_pairs_[data.source.index()].push_back(pos);
      if (data.target != data.source) {
        incident_pairs_[data.target.index()].push_back(pos);
      }
    }
    incident_pairs_built_ = true;
  }
  return incident_pairs_;
}

void TopologySnapshot::require_fresh() const {
  if (!stale()) {
    return;
  }
  throw ContractError(
      "topology snapshot is stale: the underlying graph was mutated (" +
      graph_->last_mutation() +
      ") after capture; re-capture the snapshot instead of querying "
      "memoized structure that no longer matches the graph");
}

const Duration& ParameterOverlay::response_time_of(
    const dataflow::VrdfGraph& graph, dataflow::ActorId actor) const {
  if (actor.index() < response_time.size() &&
      response_time[actor.index()].has_value()) {
    return *response_time[actor.index()];
  }
  return graph.actor(actor).response_time;
}

void ParameterOverlay::set_response_time(dataflow::ActorId actor,
                                         Duration rho) {
  VRDF_REQUIRE(rho.is_positive(), "overlay response time must be positive");
  if (actor.index() >= response_time.size()) {
    response_time.resize(actor.index() + 1);
  }
  response_time[actor.index()] = rho;
}

}  // namespace vrdf::analysis
