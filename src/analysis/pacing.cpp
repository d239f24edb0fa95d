#include "analysis/pacing.hpp"

#include <algorithm>
#include <sstream>

#include "dataflow/validation.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {

using dataflow::ActorId;
using dataflow::BufferEdges;
using dataflow::Edge;
using dataflow::VrdfGraph;

namespace {

constexpr std::size_t kNone = PacingResult::npos;

/// Rethrows an int64 overflow in the pacing arithmetic of `actor` (its
/// demand, or the rates of the buffer that paces it) naming the actor.
[[noreturn]] void overflow_at(const VrdfGraph& graph, ActorId actor,
                              const OverflowError& error) {
  throw OverflowError("the rate product leaves int64 at actor '" +
                      graph.actor(actor).name + "' (" + error.what() + ")");
}

/// Everything the shared propagation computes; compute_pacing and
/// compute_partial_pacing wrap it with their respective coverage rules.
struct CoreResult {
  bool ok = false;
  std::vector<std::string> diagnostics;
  ConstraintSide primary_side = ConstraintSide::Sink;
  bool primary_side_known = false;
  /// φ by actor index (meaningful where `paced`).
  std::vector<Duration> phi;
  std::vector<bool> paced;
  /// Per buffer position: rate-determining side (where `edge_paced`).
  std::vector<ConstraintSide> edge_side;
  std::vector<bool> edge_paced;
  std::vector<bool> sink_anchored;
  std::vector<std::size_t> constraint_of;       // by actor index
  std::vector<bool> constraint_is_sink_kind;    // by constraint index
  std::vector<bool> constraint_is_source_kind;  // by constraint index
};

/// The bidirectional demand propagation over the skeleton topological
/// order.  `partial` relaxes the coverage rules (actors outside the
/// constraint subset's demand cone stay unpaced); with a single
/// constraint and !partial this reproduces the pre-PR-4 single-constraint
/// behaviour — checks, diagnostics and values — bit for bit.
CoreResult propagate_core(const VrdfGraph& graph,
                          const VrdfGraph::BufferView& view,
                          const ConstraintSet& constraints, bool partial) {
  CoreResult core;
  const bool single = !partial && constraints.size() == 1;
  const char* const shape = view.is_chain ? "chains" : "graphs";

  // Constraint kinds: a constrained actor may sit anywhere in the
  // skeleton.  Nothing in the sufficiency argument of Sec 4 requires the
  // strictly periodic actor to be an end — pinning an interior actor
  // splits the graph at an exactly periodic schedule: everything with a
  // skeleton path *into* the pin is paced upstream exactly like a
  // sink-constrained graph (the pin anchors a sink-kind region), and
  // everything the pin reaches is paced downstream like a
  // source-constrained graph (a source-kind region).  A data sink
  // anchors only the former, a data source only the latter, an interior
  // pin both.
  core.constraint_of.assign(graph.actor_count(), kNone);
  core.constraint_is_sink_kind.assign(constraints.size(), false);
  core.constraint_is_source_kind.assign(constraints.size(), false);
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    const ActorId actor = constraints[c].actor;
    if (core.constraint_of[actor.index()] != kNone) {
      core.diagnostics.push_back("duplicate throughput constraint on actor '" +
                                 graph.actor(actor).name + "'");
      return core;
    }
    core.constraint_of[actor.index()] = c;
    // A buffer-less actor (single-actor graph) counts as a data sink so
    // its cone — itself — still receives the seed.
    core.constraint_is_sink_kind[c] =
        !view.in_buffers[actor.index()].empty() ||
        view.out_buffers[actor.index()].empty();
    core.constraint_is_source_kind[c] =
        !view.out_buffers[actor.index()].empty();
  }
  core.primary_side = core.constraint_is_sink_kind[0] ? ConstraintSide::Sink
                                                      : ConstraintSide::Source;
  core.primary_side_known = true;

  const bool single_end =
      single && (!core.constraint_is_sink_kind[0] ||
                 !core.constraint_is_source_kind[0]);
  if (single_end) {
    // Every unconstrained actor must receive a pacing demand, so the
    // constrained end must be the *only* end of its kind: a second data
    // sink (sink mode) or data source (source mode) would be left unpaced.
    const bool sink_mode = core.constraint_is_sink_kind[0];
    const auto& ends = sink_mode ? view.data_sinks : view.data_sources;
    for (const ActorId end : ends) {
      if (end != constraints[0].actor) {
        std::ostringstream os;
        os << (sink_mode
                   ? "sink-constrained analysis requires a unique data sink; '"
                   : "source-constrained analysis requires a unique data "
                     "source; '")
           << graph.actor(end).name << "' has no "
           << (sink_mode ? "output" : "input") << " buffers either";
        core.diagnostics.push_back(os.str());
        return core;
      }
    }
  }

  if (!partial) {
    // Data-dependent rates are only sound on chain-segment (bridge) edges:
    // a reconvergent region's join drains its sibling branches in
    // lockstep, so a variable realized flow on any internal edge lets the
    // branches' cumulative flows diverge — the surplus branch's buffer
    // then fills without bound and no finite capacity satisfies the
    // constraint for every admissible sequence.
    for (std::size_t pos = 0; pos < view.buffers.size(); ++pos) {
      if (!view.on_reconvergent_path[pos]) {
        continue;
      }
      const Edge& data = graph.edge(view.buffers[pos].data);
      if (!data.production.is_singleton() || !data.consumption.is_singleton()) {
        std::ostringstream os;
        os << "buffer " << graph.actor(data.source).name << " -> "
           << graph.actor(data.target).name
           << ": data-dependent rates (pi=" << data.production
           << ", gamma=" << data.consumption
           << ") on a reconvergent fork-join path; sibling branch flows "
              "could diverge unboundedly, so variable quanta are only "
              "supported on chain-segment edges";
        core.diagnostics.push_back(os.str());
        return core;
      }
    }
  }

  // Sink-anchored region S: actors with a skeleton path into a sink-kind
  // anchor (a constrained data sink, or an interior pin seen from
  // upstream).  Closed under predecessors, so sink-determined edges
  // (consumer in S) live entirely inside it; the complement is closed
  // under successors and paces forward from source-kind anchors
  // (constrained data sources, or an interior pin seen from downstream).
  // The split makes the bidirectional propagation a plain two-pass walk:
  // reverse topological order over S, then forward over the rest — no
  // demand is read before it is final.  Counting the *distinct*
  // constraints per actor (not just membership) also feeds the
  // constraint-coupling rule below; an interior pin counts on BOTH sides
  // (for its downstream it is exactly a pinned source, for its upstream a
  // pinned sink).
  std::vector<std::size_t> sink_count(graph.actor_count(), 0);
  std::vector<std::size_t> src_count(graph.actor_count(), 0);
  const auto walk_cone = [&](std::size_t c, bool sink_kind) {
    std::vector<bool> seen(graph.actor_count(), false);
    std::vector<ActorId> stack{constraints[c].actor};
    seen[constraints[c].actor.index()] = true;
    while (!stack.empty()) {
      const ActorId v = stack.back();
      stack.pop_back();
      (sink_kind ? sink_count : src_count)[v.index()] += 1;
      const auto& ports =
          sink_kind ? view.in_buffers[v.index()] : view.out_buffers[v.index()];
      for (const std::size_t pos : ports) {
        const Edge& data = graph.edge(view.buffers[pos].data);
        const ActorId next = sink_kind ? data.source : data.target;
        if (!seen[next.index()]) {
          seen[next.index()] = true;
          stack.push_back(next);
        }
      }
    }
  };
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    if (core.constraint_is_sink_kind[c]) {
      walk_cone(c, /*sink_kind=*/true);
    }
    if (core.constraint_is_source_kind[c]) {
      walk_cone(c, /*sink_kind=*/false);
    }
  }
  core.sink_anchored.assign(graph.actor_count(), false);
  std::vector<bool> source_reached(graph.actor_count(), false);
  for (const ActorId v : view.actors) {
    core.sink_anchored[v.index()] = sink_count[v.index()] > 0;
    source_reached[v.index()] = src_count[v.index()] > 0;
  }

  // Per-pair rate-determining side: sink-anchored consumers pace upstream;
  // everything else paces downstream from a source-kind constraint.
  core.edge_side.assign(view.buffers.size(), ConstraintSide::Sink);
  core.edge_paced.assign(view.buffers.size(), false);
  for (std::size_t pos = 0; pos < view.buffers.size(); ++pos) {
    const Edge& data = graph.edge(view.buffers[pos].data);
    if (core.sink_anchored[data.target.index()]) {
      core.edge_side[pos] = ConstraintSide::Sink;
      core.edge_paced[pos] = true;
    } else if (source_reached[data.source.index()]) {
      core.edge_side[pos] = ConstraintSide::Source;
      core.edge_paced[pos] = true;
    }
  }
  if (!partial) {
    // Full coverage: every actor must be paced by some constraint.  With
    // one end constraint the uniqueness check above already guarantees
    // this; with an interior pin this is the active guard (an actor that
    // neither reaches the pin nor hangs off it — e.g. a sibling branch
    // bypassing the pin — receives no demand).
    for (const ActorId v : view.actors) {
      if (!core.sink_anchored[v.index()] && !source_reached[v.index()]) {
        std::ostringstream os;
        os << "actor '" << graph.actor(v).name
           << "' receives no pacing demand from any throughput constraint "
              "(it neither reaches a constrained data sink nor is fed by a "
              "constrained data source); pin the graph end it hangs off";
        core.diagnostics.push_back(os.str());
        return core;
      }
    }
    // Per-edge coverage: actor coverage alone is not enough — a skeleton
    // edge can connect a sink-anchored producer to a source-reached
    // consumer (each covered through *other* edges) and then no demand
    // relates their rates across this very buffer, leaving its realized
    // flow unconstrained.  Feedback edges are exempt: both endpoints are
    // skeleton-paced and the back-edge flow-consistency check below pins
    // their rates (static + balanced, so either side gives the same
    // bound rate).
    for (std::size_t pos = 0; pos < view.buffers.size(); ++pos) {
      if (core.edge_paced[pos] || view.is_feedback[pos]) {
        continue;
      }
      const Edge& data = graph.edge(view.buffers[pos].data);
      std::ostringstream os;
      os << "buffer " << graph.actor(data.source).name << " -> "
         << graph.actor(data.target).name
         << " is paced by no throughput constraint (its consumer reaches "
            "no constrained data sink and its producer is fed by no "
            "constrained data source), so no demand relates its endpoints' "
            "rates; pin an end whose pacing covers it";
      core.diagnostics.push_back(os.str());
      return core;
    }
    for (const std::size_t pos : view.feedback_buffers) {
      // Covered but direction-less back-edges size with the consumer as
      // the rate-determining side; flow balance makes the choice
      // immaterial (φ(cons)/γ = φ(prod)/π).
      core.edge_paced[pos] = true;
    }

    // Constraint coupling: with several constraints, variable quanta are
    // only sound on *shared* chain segments — stretches whose flow feeds
    // every coupled constraint through the same buffers.  Anywhere else a
    // data-dependent realized flow can fill a buffer whose back-pressure
    // blocks an actor that another constraint depends on (a fork serving
    // two sinks, or the chain up to a pinned source), and the worst-case
    // sequence then starves that constraint at ANY finite capacity:
    //  * a sink-determined edge must be static when its producer reaches
    //    more constrained sinks than its consumer (the fork's own
    //    out-edges), when some ancestor does (a fill deeper in the branch
    //    back-pressures its way up to the fork), or when a pinned source
    //    lies upstream (the fill would space-starve its periodic grid);
    //  * mirrored for source-determined edges and joins of several
    //    constrained sources.
    // With one constraint every count is 1 on its side and 0 on the
    // other, so no rule fires and the single-constraint behaviour is
    // untouched.
    std::vector<std::size_t> anc_max_sink(graph.actor_count(), 0);
    std::vector<std::size_t> desc_max_src(graph.actor_count(), 0);
    for (const ActorId v : view.actors) {
      std::size_t best = sink_count[v.index()];
      for (const std::size_t pos : view.in_buffers[v.index()]) {
        best = std::max(
            best, anc_max_sink[graph.edge(view.buffers[pos].data).source.index()]);
      }
      anc_max_sink[v.index()] = best;
    }
    for (auto it = view.actors.rbegin(); it != view.actors.rend(); ++it) {
      const ActorId v = *it;
      std::size_t best = src_count[v.index()];
      for (const std::size_t pos : view.out_buffers[v.index()]) {
        best = std::max(
            best, desc_max_src[graph.edge(view.buffers[pos].data).target.index()]);
      }
      desc_max_src[v.index()] = best;
    }
    for (std::size_t pos = 0; pos < view.buffers.size(); ++pos) {
      if (view.is_feedback[pos] || !core.edge_paced[pos]) {
        continue;  // cycle edges are already static (validate_cyclic_model)
      }
      const Edge& data = graph.edge(view.buffers[pos].data);
      if (data.production.is_singleton() && data.consumption.is_singleton()) {
        continue;
      }
      const std::size_t x = data.source.index();
      const std::size_t y = data.target.index();
      const bool coupled =
          core.edge_side[pos] == ConstraintSide::Sink
              ? (sink_count[x] > sink_count[y] ||
                 anc_max_sink[x] > sink_count[x] || src_count[x] > 0)
              : (src_count[y] > src_count[x] ||
                 desc_max_src[y] > src_count[y]);
      if (coupled) {
        std::ostringstream os;
        os << "buffer " << graph.actor(data.source).name << " -> "
           << graph.actor(data.target).name
           << ": data-dependent rates (pi=" << data.production
           << ", gamma=" << data.consumption
           << ") on a constraint-coupled path; a variable realized flow "
              "could back-pressure an actor another throughput constraint "
              "depends on and starve it, so multi-constraint sets only "
              "support variable quanta on shared chain segments";
        core.diagnostics.push_back(os.str());
        return core;
      }
    }
  }

  core.phi.assign(graph.actor_count(), Duration());
  core.paced.assign(graph.actor_count(), false);
  // Per actor: the buffer position its binding demand propagated through
  // (kNone at seeds), for path reconstruction in diagnostics.
  std::vector<std::size_t> binding_pred(graph.actor_count(), kNone);
  for (const ThroughputConstraint& c : constraints) {
    core.phi[c.actor.index()] = c.period;
    core.paced[c.actor.index()] = true;
  }

  // Path from `v` towards the constraint whose demand arrived via buffer
  // `via_pos`, rendered as actor names in propagation-hop order; returns
  // the anchoring constraint index through `anchor`.
  const auto demand_path = [&](ActorId v, std::size_t via_pos,
                               std::size_t& anchor) {
    std::string path = graph.actor(v).name;
    std::size_t pos = via_pos;
    ActorId at = v;
    while (true) {
      const Edge& data = graph.edge(view.buffers[pos].data);
      at = core.sink_anchored[at.index()] ? data.target : data.source;
      path += " -> " + graph.actor(at).name;
      if (core.constraint_of[at.index()] != kNone &&
          binding_pred[at.index()] == kNone) {
        anchor = core.constraint_of[at.index()];
        return path;
      }
      pos = binding_pred[at.index()];
      VRDF_REQUIRE(pos != kNone, "binding chain must end at a constraint");
    }
  };

  // A seeded actor must pace exactly as fast as every demand arriving at
  // it: slower and the demanding constraint starves; faster and tokens
  // pile up on the slower path until the actor blocks on space and misses
  // its own periodic deadline.  Either way no finite capacities help.
  const auto check_seed = [&](ActorId v, const Duration& demand,
                              std::size_t via_pos) {
    const Duration& tau = core.phi[v.index()];
    if (demand == tau) {
      return true;
    }
    std::size_t anchor = kNone;
    const std::string path = demand_path(v, via_pos, anchor);
    const ThroughputConstraint& other = constraints[anchor];
    std::ostringstream os;
    os << "throughput constraint on '" << graph.actor(v).name << "' (period "
       << tau.seconds().to_string() << " s) "
       << (tau > demand ? "exceeds" : "undercuts") << " the pacing phi="
       << demand.seconds().to_string() << " s that the constraint on '"
       << graph.actor(other.actor).name << "' (period "
       << other.period.seconds().to_string() << " s) propagates onto it via "
       << path << "; "
       << (tau > demand
               ? "'" + graph.actor(other.actor).name + "' would starve"
               : "tokens would accumulate without bound — the constraint set "
                 "is not flow-consistent");
    core.diagnostics.push_back(os.str());
    return false;
  };

  // Demands that disagree at an unconstrained actor: the realized flows of
  // the two paths cannot balance (the demand already pairs the producer's
  // minimum quantum with the consumer's maximum), so the slower path's
  // buffer fills at any finite capacity and back-pressure starves the
  // faster constraint.
  const auto demand_conflict = [&](ActorId v, const Duration& phi,
                                   std::size_t phi_pos, const Duration& demand,
                                   std::size_t via_pos) {
    if (single) {
      std::ostringstream os;
      os << "actor '" << graph.actor(v).name
         << "': conflicting pacing demands from its "
         << (core.sink_anchored[v.index()] ? "output" : "input")
         << " buffers (" << phi.seconds().to_string() << " s vs "
         << demand.seconds().to_string()
         << " s); the reconvergent branches impose inconsistent rates and "
            "no finite capacity can satisfy the constraint";
      core.diagnostics.push_back(os.str());
      return;
    }
    std::size_t anchor_a = kNone;
    std::size_t anchor_b = kNone;
    const std::string path_a = demand_path(v, phi_pos, anchor_a);
    const std::string path_b = demand_path(v, via_pos, anchor_b);
    std::ostringstream os;
    os << "actor '" << graph.actor(v).name << "': conflicting pacing demands ("
       << phi.seconds().to_string() << " s via the constraint on '"
       << graph.actor(constraints[anchor_a].actor).name << "' along "
       << path_a << " vs " << demand.seconds().to_string()
       << " s via the constraint on '"
       << graph.actor(constraints[anchor_b].actor).name << "' along "
       << path_b
       << "); the constraint set is not flow-consistent and no finite "
          "capacities can satisfy it";
    core.diagnostics.push_back(os.str());
  };

  // Pass A — sink-anchored region, reverse topological order: every
  // consumer's φ is final before its producers.
  for (auto it = view.actors.rbegin(); it != view.actors.rend(); ++it) {
    const ActorId v = *it;
    if (!core.sink_anchored[v.index()]) {
      continue;
    }
    const bool seeded = core.constraint_of[v.index()] != kNone;
    Duration phi;
    std::size_t phi_pos = kNone;
    for (const std::size_t pos : view.out_buffers[v.index()]) {
      if (!core.edge_paced[pos] ||
          core.edge_side[pos] != ConstraintSide::Sink) {
        continue;
      }
      const Edge& data = graph.edge(view.buffers[pos].data);
      const std::int64_t gamma_max = data.consumption.max();
      const std::int64_t pi_min = data.production.min();
      if (pi_min == 0) {
        std::ostringstream os;
        os << "buffer " << graph.actor(data.source).name << " -> "
           << graph.actor(data.target).name
           << ": minimum production quantum is zero; the producer cannot "
              "sustain the consumer's maximum rate (sink-constrained "
           << shape << " only tolerate zero *consumption* quanta)";
        core.diagnostics.push_back(os.str());
        return core;
      }
      // Demand of e_xy: φ(v_x) ≤ (φ(v_y)/γ̂(e_xy)) · π̌(e_xy).
      Duration demand;
      try {
        demand = core.phi[data.target.index()] * Rational(pi_min, gamma_max);
      } catch (const OverflowError& e) {
        overflow_at(graph, v, e);
      }
      if (seeded) {
        if (!check_seed(v, demand, pos)) {
          return core;
        }
      } else if (!phi.is_positive()) {
        // The per-actor minimum over all demands degenerates to the
        // unique common value: flow consistency rejects any demand that
        // differs, so the first demand *is* the minimum.
        phi = demand;
        phi_pos = pos;
      } else if (demand != phi) {
        demand_conflict(v, phi, phi_pos, demand, pos);
        return core;
      }
    }
    if (!seeded) {
      VRDF_REQUIRE(phi.is_positive(), "unpaced actor in sink propagation");
      core.phi[v.index()] = phi;
      core.paced[v.index()] = true;
      binding_pred[v.index()] = phi_pos;
    }
  }

  // Pass B — the rest of the graph, forward topological order: every
  // producer's φ is final before its consumers.
  for (const ActorId v : view.actors) {
    if (core.sink_anchored[v.index()]) {
      continue;
    }
    if (partial && !source_reached[v.index()]) {
      continue;  // outside the subset's demand cone
    }
    const bool seeded = core.constraint_of[v.index()] != kNone;
    Duration phi;
    std::size_t phi_pos = kNone;
    for (const std::size_t pos : view.in_buffers[v.index()]) {
      if (!core.edge_paced[pos] ||
          core.edge_side[pos] != ConstraintSide::Source) {
        continue;
      }
      const Edge& data = graph.edge(view.buffers[pos].data);
      const std::int64_t pi_max = data.production.max();
      const std::int64_t gamma_min = data.consumption.min();
      if (gamma_min == 0) {
        std::ostringstream os;
        os << "buffer " << graph.actor(data.source).name << " -> "
           << graph.actor(data.target).name
           << ": minimum consumption quantum is zero; the consumer cannot "
              "keep up with the source's maximum rate (source-constrained "
           << shape << " only tolerate zero *production* quanta)";
        core.diagnostics.push_back(os.str());
        return core;
      }
      // Demand of e_xy: φ(v_y) ≤ (φ(v_x)/π̂(e_xy)) · γ̌(e_xy).
      Duration demand;
      try {
        demand = core.phi[data.source.index()] * Rational(gamma_min, pi_max);
      } catch (const OverflowError& e) {
        overflow_at(graph, v, e);
      }
      if (seeded) {
        if (!check_seed(v, demand, pos)) {
          return core;
        }
      } else if (!phi.is_positive()) {
        // See the sink pass: flow consistency makes the first demand the
        // per-actor minimum.
        phi = demand;
        phi_pos = pos;
      } else if (demand != phi) {
        demand_conflict(v, phi, phi_pos, demand, pos);
        return core;
      }
    }
    if (!seeded) {
      VRDF_REQUIRE(phi.is_positive(), "unpaced actor in source propagation");
      core.phi[v.index()] = phi;
      core.paced[v.index()] = true;
      binding_pred[v.index()] = phi_pos;
    }
  }

  // Back-edge flow consistency: a tokened back-edge adds no propagation
  // demand (both endpoints are paced through the skeleton), but the
  // circulating flow around its cycle must balance: tokens produced per
  // second (π/φ(producer)) must equal tokens consumed per second
  // (γ/φ(consumer)).  Rates on cycle edges are static (validated), so an
  // imbalance is a modeling error no capacity can absorb.
  for (const std::size_t pos : view.feedback_buffers) {
    const Edge& data = graph.edge(view.buffers[pos].data);
    if (partial && (!core.paced[data.source.index()] ||
                    !core.paced[data.target.index()])) {
      continue;
    }
    const Duration produced_side =
        core.phi[data.target.index()] * Rational(data.production.min());
    const Duration consumed_side =
        core.phi[data.source.index()] * Rational(data.consumption.min());
    if (produced_side != consumed_side) {
      std::ostringstream os;
      os << "back-edge " << graph.actor(data.source).name << " -> "
         << graph.actor(data.target).name << ": static rates (pi="
         << data.production << ", gamma=" << data.consumption
         << ") are flow-inconsistent with the propagated pacing ("
         << core.phi[data.source.index()].seconds().to_string() << " s vs "
         << core.phi[data.target.index()].seconds().to_string()
         << " s); the cycle's circulating token count would drift";
      core.diagnostics.push_back(os.str());
      return core;
    }
  }

  core.ok = true;
  return core;
}

/// Constraint-set sanity checks shared by every entry point; the model
/// validation itself lives in TopologySnapshot.
bool validate_constraints(const ConstraintSet& constraints,
                          std::vector<std::string>& diagnostics) {
  if (constraints.empty()) {
    diagnostics.push_back("throughput constraint set must not be empty");
    return false;
  }
  for (const ThroughputConstraint& c : constraints) {
    if (!c.period.is_positive()) {
      diagnostics.push_back("throughput period must be positive");
      return false;
    }
  }
  return true;
}

/// Fills the pair rates of an ok pacing from its φ (see PacingResult).
void derive_pair_rates(PacingResult& pacing, const VrdfGraph& graph) {
  const std::size_t pairs = pacing.buffers_in_order.size();
  pacing.bound_rate.resize(pairs);
  pacing.producer_slack.resize(pairs);
  pacing.consumer_slack.resize(pairs);
  for (std::size_t pos = 0; pos < pairs; ++pos) {
    const Edge& data = graph.edge(pacing.buffers_in_order[pos].data);
    const std::int64_t pi_max = data.production.max();
    const std::int64_t gamma_max = data.consumption.max();
    const bool sink = pacing.determined_by[pos] == ConstraintSide::Sink;
    Duration& s = pacing.bound_rate[pos];
    try {
      s = sink ? pacing.pacing_by_actor[data.target.index()] /
                     Rational(gamma_max)
               : pacing.pacing_by_actor[data.source.index()] /
                     Rational(pi_max);
      pacing.producer_slack[pos] = s * Rational(pi_max - 1);
      pacing.consumer_slack[pos] = s * Rational(gamma_max - 1);
    } catch (const OverflowError& e) {
      // The pair paces its far endpoint.
      overflow_at(graph, sink ? data.source : data.target, e);
    }
  }
}

}  // namespace

PacingResult compute_pacing(const VrdfGraph& graph,
                            const ConstraintSet& constraints) {
  return compute_pacing(TopologySnapshot(graph), constraints);
}

PacingResult compute_pacing(const TopologySnapshot& snapshot,
                            const ConstraintSet& constraints) {
  PacingResult result;
  if (!snapshot.ok()) {
    result.diagnostics = snapshot.diagnostics();
    return result;
  }
  if (!validate_constraints(constraints, result.diagnostics)) {
    return result;
  }
  const VrdfGraph& graph = snapshot.graph();

  // The snapshot already guaranteed a buffer network whose cycles all
  // break at tokened back-edges, so the skeleton is acyclic.
  result.view = snapshot.view_ptr();
  result.is_chain = result.view->is_chain;
  result.is_cyclic = result.view->is_cyclic;
  result.actors_in_order = result.view->actors;
  result.buffers_in_order = result.view->buffers;
  result.constraints = constraints;

  CoreResult core =
      propagate_core(graph, *result.view, constraints, /*partial=*/false);
  for (std::string& d : core.diagnostics) {
    result.diagnostics.push_back(std::move(d));
  }
  if (core.primary_side_known) {
    result.side = core.primary_side;
  }
  result.determined_by = std::move(core.edge_side);
  result.sink_anchored = std::move(core.sink_anchored);
  result.constraint_of_actor = std::move(core.constraint_of);
  result.constraint_is_sink_kind = std::move(core.constraint_is_sink_kind);
  result.constraint_is_source_kind = std::move(core.constraint_is_source_kind);
  if (!core.ok) {
    return result;
  }

  result.pacing_by_actor = std::move(core.phi);
  result.pacing.reserve(result.actors_in_order.size());
  for (const ActorId v : result.actors_in_order) {
    result.pacing.push_back(result.pacing_by_actor[v.index()]);
  }
  derive_pair_rates(result, graph);
  result.ok = true;
  return result;
}

void rescale_pacing(PacingResult& pacing, const VrdfGraph& graph,
                    const Rational& factor) {
  VRDF_REQUIRE(pacing.ok && factor.is_positive(),
               "rescale_pacing: needs an ok pacing and a positive factor");
  for (ThroughputConstraint& c : pacing.constraints) {
    c.period = Duration(c.period.seconds() * factor);
  }
  for (Duration& phi : pacing.pacing) {
    phi = Duration(phi.seconds() * factor);
  }
  for (Duration& phi : pacing.pacing_by_actor) {
    phi = Duration(phi.seconds() * factor);
  }
  derive_pair_rates(pacing, graph);
}

PartialPacing compute_partial_pacing(const TopologySnapshot& snapshot,
                                     const ConstraintSet& constraints) {
  PartialPacing partial;
  if (!snapshot.ok()) {
    partial.diagnostics = snapshot.diagnostics();
    return partial;
  }
  if (!validate_constraints(constraints, partial.diagnostics)) {
    return partial;
  }
  const VrdfGraph& graph = snapshot.graph();
  CoreResult core =
      propagate_core(graph, snapshot.view(), constraints, /*partial=*/true);
  for (std::string& d : core.diagnostics) {
    partial.diagnostics.push_back(std::move(d));
  }
  if (!core.ok) {
    return partial;
  }
  partial.phi_by_actor.assign(graph.actor_count(), std::nullopt);
  for (std::size_t i = 0; i < core.paced.size(); ++i) {
    if (core.paced[i]) {
      partial.phi_by_actor[i] = core.phi[i];
    }
  }
  partial.ok = true;
  return partial;
}

}  // namespace vrdf::analysis
