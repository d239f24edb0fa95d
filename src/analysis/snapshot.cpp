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

bool ParameterOverlay::empty() const {
  for (const auto& rho : response_time) {
    if (rho.has_value()) {
      return false;
    }
  }
  for (const auto& tokens : initial_tokens) {
    if (tokens.has_value()) {
      return false;
    }
  }
  return true;
}

const Duration& ParameterOverlay::response_time_of(
    const dataflow::VrdfGraph& graph, dataflow::ActorId actor) const {
  if (actor.index() < response_time.size() &&
      response_time[actor.index()].has_value()) {
    return *response_time[actor.index()];
  }
  return graph.actor(actor).response_time;
}

std::int64_t ParameterOverlay::initial_tokens_of(
    const dataflow::VrdfGraph& graph, dataflow::EdgeId edge) const {
  if (edge.index() < initial_tokens.size() &&
      initial_tokens[edge.index()].has_value()) {
    return *initial_tokens[edge.index()];
  }
  return graph.edge(edge).initial_tokens;
}

std::int64_t ParameterOverlay::buffer_capacity_of(
    const dataflow::VrdfGraph& graph,
    const dataflow::BufferEdges& buffer) const {
  return initial_tokens_of(graph, buffer.space) +
         initial_tokens_of(graph, buffer.data);
}

void ParameterOverlay::set_response_time(dataflow::ActorId actor,
                                         Duration rho) {
  VRDF_REQUIRE(rho.is_positive(), "overlay response time must be positive");
  if (actor.index() >= response_time.size()) {
    response_time.resize(actor.index() + 1);
  }
  response_time[actor.index()] = rho;
}

void ParameterOverlay::set_initial_tokens(dataflow::EdgeId edge,
                                          std::int64_t tokens) {
  VRDF_REQUIRE(tokens >= 0, "overlay initial tokens must be non-negative");
  if (edge.index() >= initial_tokens.size()) {
    initial_tokens.resize(edge.index() + 1);
  }
  initial_tokens[edge.index()] = tokens;
}

}  // namespace vrdf::analysis
