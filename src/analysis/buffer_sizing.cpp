#include "analysis/buffer_sizing.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/pacing.hpp"
#include "analysis/sizing_core.hpp"
#include "util/checked_int.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {

using dataflow::Edge;
using dataflow::VrdfGraph;

namespace {

std::int64_t round_capacity(const Rational& raw, bool tight_pair,
                            RoundingMode mode) {
  switch (mode) {
    case RoundingMode::PaperLiteral:
      return checked_add(raw.floor(), 1);
    case RoundingMode::Ceil:
      return raw.ceil();
    case RoundingMode::PaperPublished:
      return tight_pair ? raw.ceil() : checked_add(raw.floor(), 1);
  }
  throw ContractError("unknown rounding mode");
}

// Bound rate s: time per token of the pair's linear bounds.
Duration bound_rate_of(const PacingResult& pacing, std::size_t pos,
                       const Edge& data) {
  return pacing.determined_by[pos] == ConstraintSide::Sink
             ? pacing.pacing_of(data.target) / Rational(data.consumption.max())
             : pacing.pacing_of(data.source) / Rational(data.production.max());
}

}  // namespace

namespace detail {

bool constrained_kind(const PacingResult& pacing, dataflow::ActorId v,
                      bool sink_kind) {
  const std::size_t c = pacing.constraint_of_actor[v.index()];
  return c != PacingResult::npos &&
         (sink_kind ? pacing.constraint_is_sink_kind[c]
                    : pacing.constraint_is_source_kind[c]);
}

bool check_schedule_validity(const VrdfGraph& graph,
                             const ParameterOverlay& overlay,
                             const PacingResult& pacing,
                             std::vector<std::string>& diagnostics) {
  // Producer/consumer schedule validity (Sec 4.2): every actor must finish
  // a firing within its pacing, ρ(v) <= φ(v).  For constrained actors
  // φ = τ; for the others φ is the propagated value.
  bool admissible = true;
  for (std::size_t i = 0; i < pacing.actors_in_order.size(); ++i) {
    const dataflow::ActorId v = pacing.actors_in_order[i];
    const Duration& rho = overlay.response_time_of(graph, v);
    if (rho > pacing.pacing[i]) {
      std::ostringstream os;
      os << "actor '" << graph.actor(v).name << "': response time "
         << rho.seconds() << " s exceeds pacing " << pacing.pacing[i].seconds()
         << " s; no valid schedule exists at the required rate";
      diagnostics.push_back(os.str());
      admissible = false;
    }
  }
  return admissible;
}

Duration lead_pass_a_of(const VrdfGraph& graph, const ParameterOverlay& overlay,
                        const PacingResult& pacing,
                        const std::vector<Duration>& lead,
                        dataflow::ActorId v) {
  const dataflow::VrdfGraph::BufferView& view = *pacing.view;
  Duration longest;
  for (const std::size_t pos : view.out_buffers[v.index()]) {
    if (pacing.determined_by[pos] != ConstraintSide::Sink) {
      continue;
    }
    const Edge& data = graph.edge(view.buffers[pos].data);
    const Duration candidate =
        lead[data.target.index()] +
        bound_rate_of(pacing, pos, data) * Rational(data.production.max() - 1);
    if (candidate > longest) {
      longest = candidate;
    }
  }
  return overlay.response_time_of(graph, v) + longest;
}

Duration lead_pass_b_of(const VrdfGraph& graph, const ParameterOverlay& overlay,
                        const PacingResult& pacing,
                        const std::vector<Duration>& lead,
                        dataflow::ActorId v) {
  const dataflow::VrdfGraph::BufferView& view = *pacing.view;
  Duration longest;
  for (const std::size_t pos : view.in_buffers[v.index()]) {
    if (pacing.determined_by[pos] != ConstraintSide::Source) {
      continue;
    }
    const Edge& data = graph.edge(view.buffers[pos].data);
    const Duration candidate =
        lead[data.source.index()] +
        overlay.response_time_of(graph, data.source) +
        bound_rate_of(pacing, pos, data) * Rational(data.production.max() - 1);
    if (candidate > longest) {
      longest = candidate;
    }
  }
  return longest;
}

std::vector<Duration> compute_alignment_leads(const VrdfGraph& graph,
                                              const ParameterOverlay& overlay,
                                              const PacingResult& pacing) {
  // Schedule alignment ω(v): the worst-case lead (sink-determined region)
  // or lag (source-determined region) of v's constructed schedule
  // relative to its anchoring constrained actor.  An actor shared by
  // several paths — a fork's producer, a join's consumer — runs ONE
  // schedule, pinned to its most demanding path; on every other incident
  // edge the buffer must absorb the gap.  Propagated as a longest path
  // over the data DAG, following each edge's rate-determining side:
  //   sink-determined:   ω(a) = ρ(a) + max over such out-edges e
  //                      (ω(cons(e)) + s_e·(π̂(e) − 1)),
  //                      ω(sink-kind constrained actor) = 0;
  //   source-determined: ω(y) = max over such in-edges e (ω(prod(e)) +
  //                      ρ(prod(e)) + s_e·(π̂(e) − 1)),
  //                      ω(source-kind constrained actor) = 0.
  // On a chain the max ranges over the single incident edge and
  // ω(far) − ω(near) collapses to Eq (1)'s ρ + s·(π̂ − 1) exactly.  On
  // mixed constraint sets the source-determined region hangs off the
  // sink-anchored one: a boundary producer enters pass B with the pass-A
  // lead it already carries, so the dangling region's buffers absorb its
  // misalignment on top of their own (the fork sibling-slack argument,
  // composed across the two passes).  An interior pin anchors BOTH
  // passes at ω = 0 — its enforced schedule is the exact periodic grid
  // its upstream (pass A) and downstream (pass B) regions each align to,
  // which is what decouples the two sides.
  std::vector<Duration> lead(graph.actor_count());
  // Pass A — sink-anchored region, reverse topological order.
  for (auto it = pacing.actors_in_order.rbegin();
       it != pacing.actors_in_order.rend(); ++it) {
    const dataflow::ActorId v = *it;
    if (!pacing.sink_anchored[v.index()] || constrained_kind(pacing, v, true)) {
      continue;
    }
    lead[v.index()] = lead_pass_a_of(graph, overlay, pacing, lead, v);
  }
  // Pass B — the rest, forward topological order.
  for (const dataflow::ActorId v : pacing.actors_in_order) {
    if (pacing.sink_anchored[v.index()] || constrained_kind(pacing, v, false)) {
      continue;
    }
    lead[v.index()] = lead_pass_b_of(graph, overlay, pacing, lead, v);
  }
  return lead;
}

PairAnalysis analyse_pair(const VrdfGraph& graph,
                          const ParameterOverlay& overlay,
                          const PacingResult& pacing,
                          const std::vector<Duration>& lead, std::size_t pos,
                          const AnalysisOptions& options,
                          std::vector<std::string>& diagnostics,
                          bool& admissible) {
  const dataflow::VrdfGraph::BufferView& view = *pacing.view;
  const dataflow::BufferEdges buffer = pacing.buffers_in_order[pos];
  const Edge& data = graph.edge(buffer.data);
  const ConstraintSide pair_side = pacing.determined_by[pos];

  PairAnalysis pair;
  pair.producer = data.source;
  pair.consumer = data.target;
  pair.buffer = buffer;
  pair.determined_by = pair_side;
  pair.is_static =
      data.production.is_singleton() && data.consumption.is_singleton();

  const std::int64_t pi_max = data.production.max();
  const std::int64_t gamma_max = data.consumption.max();

  if (pair_side == ConstraintSide::Sink) {
    pair.pacing_basis = pacing.pacing_of(data.target);  // φ(consumer)
    pair.bound_rate = pair.pacing_basis / Rational(gamma_max);
  } else {
    pair.pacing_basis = pacing.pacing_of(data.source);  // φ(producer)
    pair.bound_rate = pair.pacing_basis / Rational(pi_max);
  }

  pair.is_feedback = view.is_feedback[pos];
  pair.initial_tokens = overlay.initial_tokens_of(graph, buffer.data);

  const Duration& rho_b = overlay.response_time_of(graph, pair.consumer);
  // Eq (1): the upper bound on data production must cover token x while
  // the lower bound on space consumption covers token x + π̂ - 1 of the
  // same firing, consumed ρ(v_a) earlier than the production — plus, on
  // fork-join graphs, the alignment gap to the far endpoint's actual
  // schedule.  On a chain this is exactly ρ(v_a) + s·(π̂ − 1); on a
  // skeleton edge the alignment gap is always ≥ that chain-local value,
  // so the max below reproduces the acyclic analysis bit-for-bit.  On a
  // back-edge the consumer *leads* the producer (the gap is ≤ 0) and
  // the chain-local term is the binding one.
  const Duration alignment_gap =
      pair_side == ConstraintSide::Sink
          ? lead[pair.producer.index()] - lead[pair.consumer.index()]
          : lead[pair.consumer.index()] - lead[pair.producer.index()];
  const Duration chain_local =
      overlay.response_time_of(graph, pair.producer) +
      pair.bound_rate * Rational(pi_max - 1);
  pair.delta_producer = std::max(alignment_gap, chain_local);
  // Eq (2): symmetric for the consumer with its maximum quantum γ̂.
  pair.delta_consumer = rho_b + pair.bound_rate * Rational(gamma_max - 1);
  // Eq (3).
  pair.delta_total = pair.delta_producer + pair.delta_consumer;
  // Eq (4): horizontal distance between the space-edge bounds in tokens.
  pair.raw_tokens = pair.delta_total / pair.bound_rate;
  // The tight value x (without the +1) is sound exactly when the pair is
  // static and sits at a constrained end of the graph on its
  // rate-determining side: the constrained actor's transfer times are
  // exactly periodic, so the delay slack the +1 provides cannot be
  // needed.  Back-edges never qualify — their consumer's schedule is
  // pinned to the whole loop, not to the constrained actor alone.
  const bool adjacent_to_constrained =
      pair_side == ConstraintSide::Sink
          ? constrained_kind(pacing, data.target, /*sink_kind=*/true)
          : constrained_kind(pacing, data.source, /*sink_kind=*/false);
  pair.capacity = round_capacity(
      pair.raw_tokens,
      pair.is_static && adjacent_to_constrained && !pair.is_feedback,
      options.rounding);
  // Cycle throughput bound (the max-cycle-ratio constraint, period ≥
  // cycle latency / initial tokens, in its schedule-aligned form).  On
  // a back-edge the consumer's constructed schedule *leads* the
  // producer's by the reversed alignment gap, consuming from the δ
  // circulating tokens that far ahead of replenishment; the tokens must
  // also cover the producer's transfer slack ρ(p) + s·(π̂−1) (its
  // production lands that late against its linear bound) and the
  // consumer's per-firing jump s·(γ̂−1).  δ below ⌈that credit⌉ cannot
  // sustain the period — diagnose instead of emitting starving
  // capacities (the leads are δ-independent, so the requirement can be
  // used to size a loop's tokens).
  if (pair.is_feedback) {
    const Duration reverse_gap =
        pair_side == ConstraintSide::Sink
            ? lead[pair.consumer.index()] - lead[pair.producer.index()]
            : lead[pair.producer.index()] - lead[pair.consumer.index()];
    pair.required_initial_tokens =
        ((reverse_gap + chain_local + pair.bound_rate * Rational(gamma_max - 1)) /
         pair.bound_rate)
            .ceil();
    if (pair.initial_tokens < pair.required_initial_tokens) {
      std::ostringstream os;
      os << "cycle through back-edge " << graph.actor(pair.producer).name
         << " -> " << graph.actor(pair.consumer).name << ": delta="
         << pair.initial_tokens
         << " initial tokens cannot sustain the period; the cycle's "
            "schedule-alignment credit requires at least "
         << pair.required_initial_tokens
         << " (the max-cycle-ratio bound period >= cycle latency / "
            "initial tokens) — add initial tokens or relax the period";
      diagnostics.push_back(os.str());
      admissible = false;
    }
  }
  // The containers holding the initial tokens come on top of the
  // schedule slack: a back-edge's capacity covers its circulating
  // tokens plus the cycle's alignment slack.
  pair.capacity = checked_add(pair.capacity, pair.initial_tokens);
  return pair;
}

}  // namespace detail

GraphAnalysis compute_buffer_capacities(const VrdfGraph& graph,
                                        const ThroughputConstraint& constraint,
                                        const AnalysisOptions& options) {
  return compute_buffer_capacities(graph, ConstraintSet{constraint}, options);
}

GraphAnalysis compute_buffer_capacities(const VrdfGraph& graph,
                                        const ConstraintSet& constraints,
                                        const AnalysisOptions& options) {
  return compute_buffer_capacities(TopologySnapshot(graph), constraints,
                                   options);
}

GraphAnalysis compute_buffer_capacities(const TopologySnapshot& snapshot,
                                        const ConstraintSet& constraints,
                                        const AnalysisOptions& options,
                                        const ParameterOverlay& overlay) {
  GraphAnalysis analysis;
  analysis.rounding = options.rounding;

  PacingResult pacing = compute_pacing(snapshot, constraints);
  analysis.diagnostics = pacing.diagnostics;
  if (!pacing.ok) {
    return analysis;
  }
  const VrdfGraph& graph = snapshot.graph();
  analysis.side = pacing.side;
  analysis.constraints = pacing.constraints;
  analysis.constraint_is_sink_kind = pacing.constraint_is_sink_kind;
  analysis.constraint_is_source_kind = pacing.constraint_is_source_kind;
  analysis.is_chain = pacing.is_chain;
  analysis.is_cyclic = pacing.is_cyclic;
  analysis.actors_in_order = pacing.actors_in_order;
  analysis.pacing = pacing.pacing;

  if (!detail::check_schedule_validity(graph, overlay, pacing,
                                       analysis.diagnostics)) {
    return analysis;
  }

  const std::vector<Duration> lead =
      detail::compute_alignment_leads(graph, overlay, pacing);
  analysis.leads.reserve(pacing.actors_in_order.size());
  for (const dataflow::ActorId v : pacing.actors_in_order) {
    analysis.leads.push_back(lead[v.index()]);
  }

  bool admissible = true;
  analysis.pairs.reserve(pacing.buffers_in_order.size());
  for (std::size_t i = 0; i < pacing.buffers_in_order.size(); ++i) {
    PairAnalysis pair =
        detail::analyse_pair(graph, overlay, pacing, lead, i, options,
                             analysis.diagnostics, admissible);
    analysis.total_capacity =
        checked_add(analysis.total_capacity, pair.capacity);
    analysis.pairs.push_back(pair);
  }

  analysis.admissible = admissible;
  return analysis;
}

void apply_capacities(VrdfGraph& graph, const GraphAnalysis& analysis) {
  VRDF_REQUIRE(analysis.admissible,
               "cannot apply capacities of an inadmissible analysis");
  for (const PairAnalysis& pair : analysis.pairs) {
    // δ(space) holds the *free* containers: the ones occupied by initial
    // data tokens (back-edges) are already in circulation.
    graph.set_initial_tokens(
        pair.buffer.space,
        checked_sub(pair.capacity,
                    graph.edge(pair.buffer.data).initial_tokens));
  }
}

ResponseTimeBudget max_admissible_response_times(
    const VrdfGraph& graph, const ConstraintSet& constraints) {
  ResponseTimeBudget budget;
  PacingResult pacing = compute_pacing(graph, constraints);
  budget.diagnostics = pacing.diagnostics;
  if (!pacing.ok) {
    return budget;
  }
  budget.ok = true;
  budget.actors_in_order = std::move(pacing.actors_in_order);
  budget.max_response_times = std::move(pacing.pacing);
  return budget;
}

}  // namespace vrdf::analysis
