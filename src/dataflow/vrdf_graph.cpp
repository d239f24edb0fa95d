#include "dataflow/vrdf_graph.hpp"

#include <algorithm>

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
    case Mutation::SetResponseTime:
      return "set_response_time on actor '" +
             actors_[last_mutation_index_].name + "'";
  }
  return {};
}

ActorId VrdfGraph::add_actor(std::string name, Duration response_time) {
  VRDF_REQUIRE(!name.empty(), "actor name must be non-empty");
  VRDF_REQUIRE(response_time.is_positive(), "actor response time must be positive");
  VRDF_REQUIRE(!find_actor(name).has_value(),
               "actor name '" + name + "' is already in use");
  const ActorId id = topology_.add_node();
  actors_.push_back(Actor{std::move(name), response_time});
  record_mutation(Mutation::AddActor, id.index());
  return id;
}

EdgeId VrdfGraph::add_edge(ActorId source, ActorId target, RateSet production,
                           RateSet consumption, std::int64_t initial_tokens) {
  VRDF_REQUIRE(topology_.contains(source), "edge source actor does not exist");
  VRDF_REQUIRE(topology_.contains(target), "edge target actor does not exist");
  VRDF_REQUIRE(initial_tokens >= 0, "initial tokens must be non-negative");
  const EdgeId id = topology_.add_edge(source, target);
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
  VRDF_REQUIRE(topology_.contains(id), "actor id out of range");
  return actors_[id.index()];
}

const Edge& VrdfGraph::edge(EdgeId id) const {
  VRDF_REQUIRE(topology_.contains(id), "edge id out of range");
  return edges_[id.index()];
}

std::int64_t VrdfGraph::buffer_capacity(const BufferEdges& buffer) const {
  return edge(buffer.space).initial_tokens + edge(buffer.data).initial_tokens;
}

std::optional<ActorId> VrdfGraph::find_actor(std::string_view name) const {
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (actors_[i].name == name) {
      return ActorId(static_cast<ActorId::underlying_type>(i));
    }
  }
  return std::nullopt;
}

std::optional<VrdfGraph::ChainView> VrdfGraph::chain_view() const {
  // Every edge must belong to a buffer pair; chain recognition then runs on
  // the reduced digraph that has one edge per buffer, in data direction.
  for (const Edge& e : edges_) {
    if (!e.paired.is_valid()) {
      return std::nullopt;
    }
  }
  graph::Digraph data_only;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    (void)data_only.add_node();
  }
  for (const BufferEdges& b : buffers_) {
    const Edge& data = edges_[b.data.index()];
    (void)data_only.add_edge(data.source, data.target);
  }
  const auto order = graph::chain_order(data_only);
  if (!order.has_value()) {
    return std::nullopt;
  }
  // Reject orders that require reversed buffers: every consecutive pair must
  // be connected by a buffer whose data edge points forward.
  ChainView view;
  view.actors = order->nodes;
  view.buffers.reserve(order->forward_edges.size());
  for (std::size_t pos = 0; pos < order->forward_edges.size(); ++pos) {
    // Buffers were added to `data_only` in buffers_ order, so the reduced
    // edge index is the buffer index.
    const BufferEdges& b = buffers_[order->forward_edges[pos].index()];
    const Edge& data = edges_[b.data.index()];
    if (data.source != view.actors[pos] || data.target != view.actors[pos + 1]) {
      return std::nullopt;
    }
    view.buffers.push_back(b);
  }
  return view;
}

std::optional<VrdfGraph::BufferView> VrdfGraph::buffer_view() const {
  for (const Edge& e : edges_) {
    if (!e.paired.is_valid()) {
      return std::nullopt;
    }
  }
  // Reduced digraph with one edge per buffer, in data direction; the
  // reduced edge index is the buffer index.
  graph::Digraph data_only;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    (void)data_only.add_node();
  }
  for (const BufferEdges& b : buffers_) {
    const Edge& data = edges_[b.data.index()];
    (void)data_only.add_edge(data.source, data.target);
  }
  // Feedback classification: a *minimal* set of tokened on-cycle data
  // edges whose removal leaves the skeleton acyclic.  Token-free edges
  // always belong to the skeleton — a cycle whose edges are all
  // token-free keeps it cyclic and is rejected (deadlock at t=0).
  // Tokened on-cycle edges are then re-admitted greedily in insertion
  // order: an edge stays in the skeleton unless it would close a
  // directed cycle, in which case it is the cycle's back-edge.  (A cycle
  // carrying several tokened edges thus breaks at the last-inserted one
  // — deterministic — and the others keep ordering the skeleton instead
  // of orphaning their endpoints.)
  const graph::FeedbackArcView arcs = graph::feedback_arc_view(data_only);
  std::vector<bool> feedback(buffers_.size(), false);
  graph::Digraph skeleton;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    (void)skeleton.add_node();
  }
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    const Edge& data = edges_[buffers_[i].data.index()];
    if (!arcs.edge_on_cycle[i] || data.initial_tokens == 0) {
      (void)skeleton.add_edge(data.source, data.target);
    }
  }
  if (graph::has_directed_cycle(skeleton)) {
    return std::nullopt;  // directed cycle with no initial token on any edge
  }
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    const Edge& data = edges_[buffers_[i].data.index()];
    if (!arcs.edge_on_cycle[i] || data.initial_tokens == 0) {
      continue;
    }
    feedback[i] = data.source == data.target ||
                  graph::has_path(skeleton, data.target, data.source);
    if (!feedback[i]) {
      (void)skeleton.add_edge(data.source, data.target);
    }
  }
  const auto order = graph::topological_order(skeleton);
  // The greedy pass only admitted cycle-free insertions.
  VRDF_REQUIRE(order.has_value(), "feedback classification left a cycle");

  BufferView view;
  view.actors = *order;
  std::vector<std::size_t> position(actors_.size());
  for (std::size_t i = 0; i < view.actors.size(); ++i) {
    position[view.actors[i].index()] = i;
  }
  // Stable sort keeps insertion order among buffers sharing a producer.
  std::vector<std::size_t> by_producer(buffers_.size());
  for (std::size_t i = 0; i < by_producer.size(); ++i) {
    by_producer[i] = i;
  }
  std::stable_sort(by_producer.begin(), by_producer.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Edge& ea = edges_[buffers_[a].data.index()];
                     const Edge& eb = edges_[buffers_[b].data.index()];
                     return position[ea.source.index()] <
                            position[eb.source.index()];
                   });
  view.buffers.reserve(buffers_.size());
  view.in_buffers.resize(actors_.size());
  view.out_buffers.resize(actors_.size());
  const std::vector<bool> bridge = graph::undirected_bridges(data_only);
  view.on_reconvergent_path.reserve(buffers_.size());
  view.on_cycle.reserve(buffers_.size());
  view.is_feedback.reserve(buffers_.size());
  for (std::size_t pos = 0; pos < by_producer.size(); ++pos) {
    const std::size_t index = by_producer[pos];
    const BufferEdges& b = buffers_[index];
    const Edge& data = edges_[b.data.index()];
    view.buffers.push_back(b);
    if (feedback[index]) {
      view.feedback_buffers.push_back(pos);
    } else {
      view.out_buffers[data.source.index()].push_back(pos);
      view.in_buffers[data.target.index()].push_back(pos);
    }
    // Buffers were added to `data_only` in buffers_ order.
    view.on_reconvergent_path.push_back(!bridge[index]);
    view.on_cycle.push_back(arcs.edge_on_cycle[index]);
    view.is_feedback.push_back(feedback[index]);
  }
  view.is_cyclic = !view.feedback_buffers.empty();
  bool degrees_chain_like = true;
  for (const ActorId a : view.actors) {
    if (view.in_buffers[a.index()].empty()) {
      view.data_sources.push_back(a);
    }
    if (view.out_buffers[a.index()].empty()) {
      view.data_sinks.push_back(a);
    }
    degrees_chain_like = degrees_chain_like &&
                         view.in_buffers[a.index()].size() <= 1 &&
                         view.out_buffers[a.index()].size() <= 1;
  }
  view.is_chain = degrees_chain_like && !view.is_cyclic &&
                  graph::is_weakly_connected(data_only);
  return view;
}

void VrdfGraph::set_initial_tokens(EdgeId id, std::int64_t tokens) {
  VRDF_REQUIRE(topology_.contains(id), "edge id out of range");
  VRDF_REQUIRE(tokens >= 0, "initial tokens must be non-negative");
  edges_[id.index()].initial_tokens = tokens;
  record_mutation(Mutation::SetInitialTokens, id.index());
}

void VrdfGraph::set_response_time(ActorId id, Duration response_time) {
  VRDF_REQUIRE(topology_.contains(id), "actor id out of range");
  VRDF_REQUIRE(response_time.is_positive(),
               "actor response time must be positive");
  actors_[id.index()].response_time = response_time;
  record_mutation(Mutation::SetResponseTime, id.index());
}

}  // namespace vrdf::dataflow
