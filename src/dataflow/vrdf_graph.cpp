#include "dataflow/vrdf_graph.hpp"

#include "dataflow/validation.hpp"
#include "util/error.hpp"

namespace vrdf::dataflow {

void VrdfGraph::record_mutation(Mutation kind, std::size_t index) {
  ++revision_;
  last_mutation_ = kind;
  last_mutation_index_ = index;
}

std::string VrdfGraph::last_mutation() const {
  const auto endpoints = [this](std::size_t e) {
    return actors_[edges_[e].source.index()].name + " -> " +
           actors_[edges_[e].target.index()].name;
  };
  switch (last_mutation_) {
    case Mutation::None:
      return {};
    case Mutation::AddActor:
      return "add_actor '" + actors_[last_mutation_index_].name + "'";
    case Mutation::AddEdge:
      return "add_edge " + endpoints(last_mutation_index_);
    case Mutation::SetInitialTokens:
      return "set_initial_tokens on edge " + endpoints(last_mutation_index_);
  }
  return {};
}

ActorId VrdfGraph::add_actor(std::string name, Duration response_time) {
  VRDF_REQUIRE(!name.empty(), "actor name must be non-empty");
  VRDF_REQUIRE(response_time.is_positive(), "actor response time must be positive");
  const ActorId id(static_cast<ActorId::underlying_type>(actors_.size()));
  const bool fresh = names_.insert(id, name, actor_name());
  VRDF_REQUIRE(fresh, "actor name '" + name + "' is already in use");
  actors_.push_back(Actor{std::move(name), response_time});
  record_mutation(Mutation::AddActor, id.index());
  return id;
}

EdgeId VrdfGraph::add_edge(ActorId source, ActorId target, RateSet production,
                           RateSet consumption, std::int64_t initial_tokens) {
  VRDF_REQUIRE(source.index() < actors_.size(),
               "edge source actor does not exist");
  VRDF_REQUIRE(target.index() < actors_.size(),
               "edge target actor does not exist");
  VRDF_REQUIRE(initial_tokens >= 0, "initial tokens must be non-negative");
  const EdgeId id(static_cast<EdgeId::underlying_type>(edges_.size()));
  edges_.push_back(Edge{source, target, std::move(production),
                        std::move(consumption), initial_tokens,
                        EdgeId::invalid()});
  record_mutation(Mutation::AddEdge, id.index());
  return id;
}

BufferEdges VrdfGraph::add_buffer(ActorId producer, ActorId consumer,
                                  RateSet production, RateSet consumption,
                                  std::int64_t capacity,
                                  std::int64_t initial_tokens) {
  VRDF_REQUIRE(initial_tokens >= 0, "initial tokens must be non-negative");
  VRDF_REQUIRE(capacity == 0 || capacity >= initial_tokens,
               "buffer capacity must cover its initial tokens");
  const EdgeId data =
      add_edge(producer, consumer, production, consumption, initial_tokens);
  const EdgeId space =
      add_edge(consumer, producer, consumption, production,
               capacity == 0 ? 0 : capacity - initial_tokens);
  edges_[data.index()].paired = space;
  edges_[space.index()].paired = data;
  const BufferEdges pair{data, space};
  buffers_.push_back(pair);
  return pair;
}

const Actor& VrdfGraph::actor(ActorId id) const {
  VRDF_REQUIRE(id.index() < actors_.size(), "actor id out of range");
  return actors_[id.index()];
}

const Edge& VrdfGraph::edge(EdgeId id) const {
  VRDF_REQUIRE(id.index() < edges_.size(), "edge id out of range");
  return edges_[id.index()];
}

std::int64_t VrdfGraph::buffer_capacity(const BufferEdges& buffer) const {
  return edge(buffer.space).initial_tokens + edge(buffer.data).initial_tokens;
}

std::optional<ActorId> VrdfGraph::find_actor(std::string_view name) const {
  return names_.find(name, actor_name());
}

std::optional<VrdfGraph::BufferView> VrdfGraph::buffer_view() const {
  return validate_cyclic_model(*this).view;
}

void VrdfGraph::set_initial_tokens(EdgeId id, std::int64_t tokens) {
  VRDF_REQUIRE(id.index() < edges_.size(), "edge id out of range");
  VRDF_REQUIRE(tokens >= 0, "initial tokens must be non-negative");
  edges_[id.index()].initial_tokens = tokens;
  record_mutation(Mutation::SetInitialTokens, id.index());
}

}  // namespace vrdf::dataflow
