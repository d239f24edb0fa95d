#include "analysis/period.hpp"

#include <sstream>

#include "analysis/buffer_sizing.hpp"
#include "analysis/pacing.hpp"
#include "analysis/sizing_core.hpp"
#include "util/checked_int.hpp"

namespace vrdf::analysis {

using dataflow::Edge;
using dataflow::VrdfGraph;

namespace {

/// "a->b" for a data edge.
std::string endpoints(const VrdfGraph& graph, const Edge& data) {
  return graph.actor(data.source).name + "->" + graph.actor(data.target).name;
}

/// What bound min_period: a kind plus a position in the pacing's
/// actors_in_order (Actor) or buffers_in_order (Buffer, Cycle), rendered
/// once, when the fixed point is reached.  Every response time is
/// positive, so some actor always binds first.
struct Binding {
  enum class Kind { Actor, Buffer, Cycle };
  Kind kind = Kind::Actor;
  std::size_t index = 0;

  [[nodiscard]] std::string label(const VrdfGraph& graph,
                                  const PacingResult& unit) const {
    if (kind == Kind::Actor) {
      return "actor " + graph.actor(unit.actors_in_order[index]).name;
    }
    return (kind == Kind::Buffer ? "buffer " : "cycle through back-edge ") +
           endpoints(graph, graph.edge(unit.buffers_in_order[index].data));
  }
};

/// The single-constraint solver: the closed form below, forward-verified.
MinPeriodResult solve_single(const TopologySnapshot& snapshot,
                             dataflow::ActorId actor,
                             const AnalysisOptions& options,
                             const ParameterOverlay& overlay) {
  MinPeriodResult result;

  // Pacing is linear in τ: run the propagation with a unit period and
  // read φ(v) as the coefficient c_v, and each pair's bound rate
  // s_e = c_near/q_e and quantum slacks as coefficients of τ (per-edge
  // since an interior pin splits the graph into a sink-determined
  // upstream cone and a source-determined downstream cone).
  PacingResult unit = compute_pacing(
      snapshot, {ThroughputConstraint{actor, seconds(Rational(1))}});
  if (!unit.ok) {
    result.diagnostics = unit.diagnostics;
    return result;
  }
  const VrdfGraph& graph = snapshot.graph();
  const dataflow::VrdfGraph::BufferView& view = *unit.view;

  // Response-time constraints ρ(v) ≤ c_v·τ (closed, attained) do not
  // depend on the alignment: their largest bound is a floor on τ that
  // every iteration below starts from.
  Rational actor_floor(0);
  std::size_t floor_actor = 0;
  for (std::size_t i = 0; i < unit.actors_in_order.size(); ++i) {
    const Rational bound =
        overlay.response_time_of(graph, unit.actors_in_order[i]).seconds() /
        unit.pacing[i].seconds();
    if (bound > actor_floor) {
      actor_floor = bound;
      floor_actor = i;
    }
  }

  // ω(v) and the pair terms, affine in τ, from the forward analysis' own
  // lead pass and pair rule.  Their maxima can switch with τ, so the
  // binding structure is taken at a candidate period and iterated to a
  // fixed point below; the final answer is forward-verified.
  detail::LeadArithmetic<detail::AffineLead> at_candidate{Rational(1)};
  std::vector<detail::AffineLead> lead =
      detail::compute_alignment_leads(graph, overlay, unit, at_candidate);
  for (int iteration = 0; iteration < 8; ++iteration) {
    Rational min_tau = actor_floor;
    Rational infimum_tau = actor_floor;
    bool infimum_attained = true;
    Binding binding{Binding::Kind::Actor, floor_actor};
    const auto tighten = [&](const Rational& cand, Binding what) {
      if (cand > min_tau) {
        min_tau = cand;
        binding = what;
      }
    };
    const auto tighten_infimum = [&](const Rational& cand, bool attained) {
      if (cand > infimum_tau) {
        infimum_tau = cand;
        infimum_attained = attained;
      } else if (cand == infimum_tau && !attained) {
        infimum_attained = false;
      }
    };

    // Capacity constraints per pair: with delta_total = R + C·τ and
    // bound rate s·τ, sufficiency x = delta_total/(s·τ) ≤ d − adj becomes
    //   τ ≥ R / (s·(d − adj − C/s)),  with s = c/q.
    bool diagnosed = false;
    for (std::size_t i = 0; i < unit.buffers_in_order.size(); ++i) {
      const dataflow::BufferEdges buffer = unit.buffers_in_order[i];
      const Edge& data = graph.edge(buffer.data);
      const std::int64_t d = graph.edge(buffer.space).initial_tokens;
      const std::int64_t delta = data.initial_tokens;
      const Rational& s = unit.bound_rate[i].seconds();
      const detail::PairTerms<detail::AffineLead> terms = detail::pair_terms(
          graph, overlay, unit, lead, i, data, at_candidate);
      const bool tight =
          detail::uses_ceiling(terms.tight_rounding, options.rounding);

      // R, and C/s — the τ-independent token count.
      const Rational& resp_part = terms.delta_total.resp;
      const Rational rate_tokens = terms.delta_total.rate / s;
      // Sufficiency margin in tokens: x ≤ d − 1 in general (the +1 of
      // Eq (4)); x ≤ d when the rounding mode grants the tight value.
      const Rational margin =
          Rational(d) - rate_tokens - Rational(tight ? 0 : 1);
      if (!margin.is_positive()) {
        // Stated in installed containers: the circulating tokens of a
        // back-edge occupy containers on top of the free ones.
        std::ostringstream os;
        os << "buffer " << endpoints(graph, data) << ": capacity "
           << checked_add(d, delta)
           << " cannot sustain any rate (needs more than "
           << (rate_tokens + Rational(tight ? 0 : 1) + Rational(delta))
                  .to_string()
           << " containers)";
        result.diagnostics.push_back(os.str());
        diagnosed = true;
        break;
      }
      // R/(s·τ) ≤ margin  ⇔  τ ≥ R/(s·margin).
      const Rational bound = resp_part / (s * margin);
      tighten(bound, {Binding::Kind::Buffer, i});
      // The forward rounding ⌊x⌋+1 ≤ d is the open condition x < d, one
      // token looser than the attained criterion: margin+1, not attained.
      // On tight pairs the forward condition ⌈x⌉ ≤ d equals x ≤ d and the
      // bound is attained.
      if (tight) {
        tighten_infimum(bound, true);
      } else {
        tighten_infimum(resp_part / (s * (margin + Rational(1))), false);
      }

      // Back-edges additionally carry the cycle bound: the δ circulating
      // tokens must cover the credit R' + C'·τ,
      //   R'/(s·τ) + C'/s ≤ δ  ⇔  τ ≥ R' / (s·(δ − C'/s)).
      if (view.is_feedback[i]) {
        const Rational token_margin = Rational(delta) - terms.credit.rate / s;
        if (!token_margin.is_positive()) {
          std::ostringstream os;
          os << "cycle through back-edge " << endpoints(graph, data)
             << ": delta=" << delta
             << " initial tokens cannot sustain any rate (the cycle's "
                "transfer slack alone consumes the credit)";
          result.diagnostics.push_back(os.str());
          diagnosed = true;
          break;
        }
        const Rational cycle_bound = terms.credit.resp / (s * token_margin);
        tighten(cycle_bound, {Binding::Kind::Cycle, i});
        tighten_infimum(cycle_bound, true);
      }
    }
    if (diagnosed) {
      return result;
    }

    // The binding structure of the alignment max may differ at the solved
    // period; iterate until it reproduces itself (`lead` is exactly the
    // leads at the candidate period, carried over from the previous check).
    const detail::LeadArithmetic<detail::AffineLead> at_min{min_tau};
    std::vector<detail::AffineLead> next =
        detail::compute_alignment_leads(graph, overlay, unit, at_min);
    if (next == lead) {
      result.ok = true;
      result.min_period = Duration(min_tau);
      result.infimum_period = Duration(infimum_tau);
      result.infimum_attained = infimum_attained;
      result.binding_constraint = binding.label(graph, unit);
      break;
    }
    at_candidate = at_min;
    lead = std::move(next);
  }
  if (!result.ok) {
    result.diagnostics.push_back(
        "alignment binding structure did not converge");
    return result;
  }

  // Soundness check: the forward analysis at min_period must fit the
  // installed capacities (guards the fixed-binding closed form on
  // fork-join graphs; never triggers on chains, whose max is trivial).
  // The unit pacing scaled by min_period is, bit for bit, the pacing a
  // fresh propagation at min_period returns (see rescale_pacing).
  rescale_pacing(unit, graph, result.min_period.seconds());
  const GraphAnalysis forward =
      detail::size_from_pacing(graph, unit, options, overlay);
  if (!forward.admissible ||
      first_over_installed(graph, forward) != nullptr) {
    result.ok = false;
    result.diagnostics.push_back(
        "closed-form period failed forward verification");
  }
  return result;
}

}  // namespace

MinPeriodResult min_admissible_period(const VrdfGraph& graph,
                                      dataflow::ActorId actor,
                                      const AnalysisOptions& options) {
  return min_admissible_period(graph, {{actor, Duration()}}, actor, options);
}

MinPeriodResult min_admissible_period(const VrdfGraph& graph,
                                      const ConstraintSet& constraints,
                                      dataflow::ActorId designated,
                                      const AnalysisOptions& options) {
  return min_admissible_period(TopologySnapshot(graph), constraints,
                               designated, options);
}

MinPeriodResult min_admissible_period(const TopologySnapshot& snapshot,
                                      const ConstraintSet& constraints,
                                      dataflow::ActorId designated,
                                      const AnalysisOptions& options,
                                      const ParameterOverlay& overlay) {
  MinPeriodResult result;
  // The split below would silently drop a second constraint on
  // `designated`; reject duplicates up front, as compute_pacing does.
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    for (std::size_t j = i + 1; j < constraints.size(); ++j) {
      if (constraints[i].actor == constraints[j].actor) {
        result.diagnostics.push_back(
            "duplicate throughput constraint on actor '" +
            snapshot.graph().actor(constraints[i].actor).name + "'");
        return result;
      }
    }
  }
  ConstraintSet others;
  bool found = false;
  for (const ThroughputConstraint& c : constraints) {
    if (c.actor == designated) {
      found = true;
    } else {
      others.push_back(c);
    }
  }
  if (!found) {
    result.diagnostics.push_back(
        "designated actor carries no constraint in the set");
    return result;
  }
  if (others.empty()) {
    return solve_single(snapshot, designated, options, overlay);
  }
  const VrdfGraph& graph = snapshot.graph();

  // The designated constraint's demand cone with a unit period gives the
  // rate-only coefficients c_v; the fixed constraints' cone gives the φ
  // values they pin.  Flow consistency forces c_v·τ = φ_fixed(v) on every
  // overlap actor, so the overlap determines τ — and must determine it
  // consistently.
  const PartialPacing unit = compute_partial_pacing(
      snapshot, ConstraintSet{{designated, seconds(Rational(1))}});
  if (!unit.ok) {
    result.diagnostics = unit.diagnostics;
    return result;
  }
  const PartialPacing fixed = compute_partial_pacing(snapshot, others);
  if (!fixed.ok) {
    result.diagnostics = fixed.diagnostics;
    return result;
  }
  const auto name_at = [&graph](std::size_t i) {
    using Index = dataflow::ActorId::underlying_type;
    return graph.actor(dataflow::ActorId(static_cast<Index>(i))).name;
  };
  std::optional<Rational> tau;
  std::size_t pin = 0;
  for (std::size_t i = 0; i < unit.phi_by_actor.size(); ++i) {
    if (!unit.phi_by_actor[i].has_value() ||
        !fixed.phi_by_actor[i].has_value()) {
      continue;
    }
    const Rational candidate =
        fixed.phi_by_actor[i]->seconds() / unit.phi_by_actor[i]->seconds();
    if (!tau.has_value()) {
      tau = candidate;
      pin = i;
    } else if (candidate != *tau) {
      std::ostringstream os;
      os << "the fixed constraints pin incompatible periods for '"
         << graph.actor(designated).name << "' (" << tau->to_string()
         << " s at actor '" << name_at(pin) << "' vs "
         << candidate.to_string() << " s at actor '" << name_at(i)
         << "'); the constraint set is not flow-consistent at any period";
      result.diagnostics.push_back(os.str());
      return result;
    }
  }
  if (!tau.has_value()) {
    result.diagnostics.push_back(
        "the designated constraint shares no pacing with the fixed ones; "
        "no flow coupling determines its period (analyse it with the "
        "single-constraint solver instead)");
    return result;
  }

  // Forward verification: the coupled period must be admissible for the
  // full set and fit the installed capacities.
  ConstraintSet full = others;
  full.push_back(ThroughputConstraint{designated, Duration(*tau)});
  const GraphAnalysis forward =
      compute_buffer_capacities(snapshot, full, options, overlay);
  if (!forward.admissible) {
    result.diagnostics = forward.diagnostics;
    result.diagnostics.push_back(
        "the flow-coupled period " + tau->to_string() +
        " s is not admissible for the full constraint set");
    return result;
  }
  if (const PairAnalysis* over =
          first_over_installed(graph, forward)) {
    std::ostringstream os;
    os << "buffer " << endpoints(graph, graph.edge(over->buffer.data))
       << ": installed capacity "
       << graph.buffer_capacity(over->buffer)
       << " cannot sustain the flow-coupled period " << tau->to_string()
       << " s (needs " << over->capacity << " containers)";
    result.diagnostics.push_back(os.str());
    return result;
  }
  result.ok = true;
  result.min_period = Duration(*tau);
  result.infimum_period = Duration(*tau);
  result.infimum_attained = true;
  result.binding_constraint = "flow-coupling at actor '" + name_at(pin) + "'";
  return result;
}

}  // namespace vrdf::analysis
