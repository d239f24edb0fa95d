// Variable-Rate Dataflow (VRDF) graphs — the paper's analysis model
// (Sec 3.2).
//
// A VRDF graph G = (V, E, π, γ, δ, ρ):
//  * actors V fire with response time ρ(v); tokens are consumed atomically
//    at the start of a firing and produced atomically ρ(v) later;
//  * per edge e, each firing's production quantum is some element of π(e)
//    and its consumption quantum some element of γ(e);
//  * δ(e) initial tokens.
//
// A FIFO buffer of the task layer maps to a pair of anti-parallel edges
// (data edge + space edge); such pairs are recorded so that analysis and
// simulation can enforce the task-level coupling "space returned equals
// data consumed" that makes chains strongly consistent (Sec 3.3).
//
// The graph owns its topology: each Edge stores its source and target, and
// an ActorId/EdgeId is valid exactly when it indexes the actor/edge array.
// actors() and edges() are non-allocating ranges over those ids, in
// insertion order.  Actor names are found by binary search over the ids
// sorted by name.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/rate_set.hpp"
#include "graph/ids.hpp"
#include "util/time.hpp"

namespace vrdf::dataflow {

struct ActorTag {};
struct EdgeTag {};
using ActorId = graph::Id<ActorTag>;
using EdgeId = graph::Id<EdgeTag>;

struct Actor {
  std::string name;
  Duration response_time;  // ρ(v) > 0
};

struct Edge {
  ActorId source;
  ActorId target;
  RateSet production;          // π(e), quanta produced per source firing
  RateSet consumption;         // γ(e), quanta consumed per target firing
  std::int64_t initial_tokens = 0;  // δ(e)
  /// The anti-parallel partner edge when this edge is half of a buffer,
  /// invalid otherwise.
  EdgeId paired = EdgeId::invalid();
};

/// The two edges modelling one task-level buffer: `data` carries full
/// containers producer→consumer, `space` carries empty containers back.
struct BufferEdges {
  EdgeId data;
  EdgeId space;
};

class VrdfGraph {
public:
  /// Adds an actor; names must be unique and non-empty, ρ must be positive.
  ActorId add_actor(std::string name, Duration response_time);

  /// Adds a bare edge (no buffer pairing).
  EdgeId add_edge(ActorId source, ActorId target, RateSet production,
                  RateSet consumption, std::int64_t initial_tokens = 0);

  /// Adds a buffer from `producer` to `consumer` as an anti-parallel edge
  /// pair (Sec 3.3): data edge with (π=production, γ=consumption,
  /// δ=initial_tokens) and space edge with (π=consumption, γ=production,
  /// δ=capacity − initial_tokens).  `capacity` is the buffer's *total*
  /// container count; the containers holding initial data are occupied at
  /// t=0.  capacity == 0 leaves the buffer unsized (no free space) until
  /// apply_capacities installs one.  Non-zero `initial_tokens` is how
  /// back-edges of cyclic topologies carry their circulating tokens.
  BufferEdges add_buffer(ActorId producer, ActorId consumer, RateSet production,
                         RateSet consumption, std::int64_t capacity = 0,
                         std::int64_t initial_tokens = 0);

  [[nodiscard]] std::size_t actor_count() const { return actors_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] const Actor& actor(ActorId id) const;
  [[nodiscard]] const Edge& edge(EdgeId id) const;

  /// Actor ids 0..actor_count()-1 in insertion order, as a range over the
  /// count at the time of the call (it allocates nothing).
  [[nodiscard]] auto actors() const {
    return graph::ids_below<ActorId>(actors_.size());
  }
  /// Edge ids 0..edge_count()-1 in insertion order, likewise.
  [[nodiscard]] auto edges() const {
    return graph::ids_below<EdgeId>(edges_.size());
  }

  /// Actor lookup by unique name, O(log n).
  [[nodiscard]] std::optional<ActorId> find_actor(std::string_view name) const;

  /// Replaces δ(e); used to install computed buffer capacities.
  void set_initial_tokens(EdgeId id, std::int64_t tokens);

  /// All buffers (each anti-parallel pair reported once, as it was added).
  [[nodiscard]] const std::vector<BufferEdges>& buffers() const {
    return buffers_;
  }

  /// Total installed container count of a buffer: δ(space edge) free
  /// containers plus δ(data edge) containers occupied by initial tokens.
  [[nodiscard]] std::int64_t buffer_capacity(const BufferEdges& buffer) const;

  /// Monotonic mutation counter: bumped by every mutator (add_actor,
  /// add_edge/add_buffer, set_initial_tokens).  Captured
  /// by analysis::TopologySnapshot so that a query against a snapshot of a
  /// since-mutated graph fails loudly instead of answering from stale
  /// memoized structure.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }
  /// Human-readable description of the mutation that produced the current
  /// revision (names the actor or edge), empty on a freshly constructed
  /// graph.  Mutators record only a kind and an index; the sentence is
  /// rendered here, on demand, for the stale-snapshot diagnostic.
  [[nodiscard]] std::string last_mutation() const;

  /// A VRDF graph seen as a network of buffers — the general view the
  /// analysis pipeline runs on.  Buffers are keyed per data edge; chains
  /// are the degenerate case with every fan-in/fan-out equal to one.
  ///
  /// Cyclic topologies are admitted when every directed cycle of the data
  /// edges carries at least one initial token: a minimal set of tokened
  /// intra-SCC data edges — one per cycle, chosen deterministically by
  /// insertion order when a cycle carries several — are the *feedback*
  /// (back) edges, and removing them leaves the acyclic skeleton the
  /// topological structure is built on.  A cycle without initial tokens
  /// can never fire (deadlock at t=0) and makes buffer_view() fail.
  struct BufferView {
    /// Actors in a topological order of the skeleton DAG — the data edges
    /// minus the feedback edges (for a chain this is exactly the chain
    /// order, data source first).
    std::vector<ActorId> actors;
    /// Buffers ordered by (topological position of the producer, insertion
    /// index) — deterministic, and equal to chain order on chains.
    /// Feedback buffers are included.
    std::vector<BufferEdges> buffers;
    /// Per actor (indexed by ActorId::index()): positions in `buffers` of
    /// the *skeleton* buffers the actor consumes from / produces into.
    /// Feedback buffers are listed separately in `feedback_buffers` so the
    /// topological propagations never walk a back-edge.
    std::vector<std::vector<std::size_t>> in_buffers;
    std::vector<std::vector<std::size_t>> out_buffers;
    /// Actors with no incoming / no outgoing *skeleton* data edge, in
    /// topological order.  A single unconnected actor is both.
    std::vector<ActorId> data_sources;
    std::vector<ActorId> data_sinks;
    /// Per position in `buffers`: true when the buffer's data edge lies on
    /// an undirected cycle of the data graph — i.e. inside a reconvergent
    /// fork-join region, where sibling branches must stay flow-balanced.
    /// False exactly on the bridge (chain-segment) edges.
    std::vector<bool> on_reconvergent_path;
    /// Per position in `buffers`: true when the buffer's data edge lies on
    /// a *directed* cycle of the data graph (self-loop or intra-SCC edge).
    /// Cycle edges must carry static rates.
    std::vector<bool> on_cycle;
    /// Per position in `buffers`: true for feedback (back) edges — data
    /// edges on a directed cycle that carry the cycle's initial tokens and
    /// are excluded from the skeleton order.
    std::vector<bool> is_feedback;
    /// Positions in `buffers` of the feedback buffers, in `buffers` order.
    std::vector<std::size_t> feedback_buffers;
    /// True when the data edges contain a directed cycle (equivalently:
    /// feedback_buffers is non-empty).
    bool is_cyclic = false;
    /// True when the data edges form a chain (at least one actor, every
    /// fan-in and fan-out at most one, weakly connected, acyclic) — the
    /// Sec 3.1 shape.  Space edges are the anti-parallel buffer partners
    /// and do not count towards it.
    bool is_chain = false;
  };

  /// Buffer-network recognition over data edges: the view computed by
  /// validate_cyclic_model's structural pass.  Returns nullopt when the
  /// graph contains unpaired edges or a directed data cycle with no
  /// initial token on any of its edges (a token-free cycle deadlocks).
  [[nodiscard]] std::optional<BufferView> buffer_view() const;

private:
  enum class Mutation : std::uint8_t {
    None,
    AddActor,          // index: the actor
    AddEdge,           // index: the edge
    SetInitialTokens,  // index: the edge
  };
  void record_mutation(Mutation kind, std::size_t index);
  [[nodiscard]] auto actor_name() const {
    return [this](ActorId id) -> const std::string& {
      return actors_[id.index()].name;
    };
  }

  std::vector<Actor> actors_;
  graph::NameIndex<ActorId> names_;
  std::vector<Edge> edges_;
  std::vector<BufferEdges> buffers_;
  std::uint64_t revision_ = 0;
  Mutation last_mutation_ = Mutation::None;
  std::size_t last_mutation_index_ = 0;
};

}  // namespace vrdf::dataflow
