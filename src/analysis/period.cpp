#include "analysis/period.hpp"

#include <sstream>

#include "analysis/buffer_sizing.hpp"
#include "analysis/pacing.hpp"

namespace vrdf::analysis {

using dataflow::Edge;
using dataflow::VrdfGraph;

namespace {

/// A lead-time value that is affine in the period: resp + rate·τ.  The
/// schedule-alignment propagation of compute_buffer_capacities only mixes
/// response times (τ-independent) and bound-rate terms (proportional to
/// τ), so tracking the two components separately turns each pair's
/// sufficiency condition into a closed-form bound on τ.
struct AffineLead {
  Rational resp;  // seconds
  Rational rate;  // seconds per unit period

  [[nodiscard]] Rational at(const Rational& tau) const {
    return resp + rate * tau;
  }

  friend bool operator==(const AffineLead& a, const AffineLead& b) {
    return a.resp == b.resp && a.rate == b.rate;
  }
};

}  // namespace

MinPeriodResult min_admissible_period(const VrdfGraph& graph,
                                      dataflow::ActorId actor,
                                      const AnalysisOptions& options) {
  return min_admissible_period(TopologySnapshot(graph), actor, options);
}

MinPeriodResult min_admissible_period(const TopologySnapshot& snapshot,
                                      dataflow::ActorId actor,
                                      const AnalysisOptions& options,
                                      const ParameterOverlay& overlay) {
  MinPeriodResult result;

  // Pacing coefficients c_v are rate-only: run the propagation with a unit
  // period and read φ(v) as c_v.
  const PacingResult unit = compute_pacing(
      snapshot, {ThroughputConstraint{actor, seconds(Rational(1))}});
  if (!unit.ok) {
    result.diagnostics = unit.diagnostics;
    return result;
  }
  const VrdfGraph& graph = snapshot.graph();
  const dataflow::VrdfGraph::BufferView& view = *unit.view;

  // Per-edge bound-rate coefficient: s_e = (c_near / q_e)·τ, where the
  // near endpoint is the pair's rate-determining side (per-edge since an
  // interior pin splits the graph into a sink-determined upstream cone
  // and a source-determined downstream cone; with an end constraint every
  // edge carries the constraint's global side, as before).
  const auto rate_coefficient = [&](std::size_t pos, const Edge& data) {
    return unit.determined_by[pos] == ConstraintSide::Sink
               ? unit.pacing_of(data.target).seconds() /
                     Rational(data.consumption.max())
               : unit.pacing_of(data.source).seconds() /
                     Rational(data.production.max());
  };

  // Schedule alignment ω(v) as an affine function of τ (see
  // compute_buffer_capacities): the two-pass split of the forward
  // analysis — reverse topological order over the sink-anchored region,
  // forward over the rest — with the constrained actor anchoring both
  // passes at ω = 0.  The max over a fork's edges can switch with τ, so
  // the binding structure is taken at a candidate period and iterated to
  // a fixed point below; the final answer is forward-verified.
  const auto leads_at = [&](const Rational& tau) {
    std::vector<AffineLead> lead(graph.actor_count());
    const auto consider = [&](AffineLead& longest, const AffineLead& candidate) {
      if (candidate.at(tau) > longest.at(tau)) {
        longest = candidate;
      }
    };
    // Pass A — sink-anchored region.
    for (auto it = unit.actors_in_order.rbegin();
         it != unit.actors_in_order.rend(); ++it) {
      const dataflow::ActorId v = *it;
      if (!unit.sink_anchored[v.index()] || v == actor) {
        continue;
      }
      AffineLead longest;
      for (const std::size_t pos : view.out_buffers[v.index()]) {
        if (unit.determined_by[pos] != ConstraintSide::Sink) {
          continue;
        }
        const Edge& data = graph.edge(view.buffers[pos].data);
        const AffineLead& down = lead[data.target.index()];
        consider(longest,
                 AffineLead{down.resp,
                            down.rate + rate_coefficient(pos, data) *
                                            Rational(data.production.max() - 1)});
      }
      longest.resp =
          longest.resp + overlay.response_time_of(graph, v).seconds();
      lead[v.index()] = longest;
    }
    // Pass B — the rest, forward order.
    for (const dataflow::ActorId v : unit.actors_in_order) {
      if (unit.sink_anchored[v.index()] || v == actor) {
        continue;
      }
      AffineLead longest;
      for (const std::size_t pos : view.in_buffers[v.index()]) {
        if (unit.determined_by[pos] != ConstraintSide::Source) {
          continue;
        }
        const Edge& data = graph.edge(view.buffers[pos].data);
        const AffineLead& up = lead[data.source.index()];
        consider(longest,
                 AffineLead{up.resp + overlay
                                          .response_time_of(graph, data.source)
                                          .seconds(),
                            up.rate + rate_coefficient(pos, data) *
                                          Rational(data.production.max() - 1)});
      }
      lead[v.index()] = longest;
    }
    return lead;
  };

  Rational candidate_tau(1);
  for (int iteration = 0; iteration < 8; ++iteration) {
    const std::vector<AffineLead> lead = leads_at(candidate_tau);

    Rational min_tau(0);
    Rational infimum_tau(0);
    bool infimum_attained = true;
    std::string binding = "(none)";
    const auto tighten = [&](const Rational& cand, const std::string& what) {
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

    // Response-time constraints ρ(v) ≤ c_v·τ (closed).
    for (std::size_t i = 0; i < unit.actors_in_order.size(); ++i) {
      const dataflow::ActorId v = unit.actors_in_order[i];
      const Rational rho = overlay.response_time_of(graph, v).seconds();
      const Rational c_v = unit.pacing[i].seconds();
      tighten(rho / c_v, "actor " + graph.actor(v).name);
      tighten_infimum(rho / c_v, true);
    }


    // Capacity constraints per pair: with delta_total = R + C·τ and
    // s = (c/q)·τ, sufficiency x = delta_total/s ≤ d − adj becomes
    //   τ ≥ q·R / (c·(d − adj − q·C/c)).
    bool diagnosed = false;
    for (std::size_t i = 0; i < unit.buffers_in_order.size(); ++i) {
      const dataflow::BufferEdges buffer = unit.buffers_in_order[i];
      const Edge& data = graph.edge(buffer.data);
      const std::int64_t d = overlay.initial_tokens_of(graph, buffer.space);
      const std::int64_t pi_max = data.production.max();
      const std::int64_t gamma_max = data.consumption.max();
      const std::string label = "buffer " + graph.actor(data.source).name +
                                "->" + graph.actor(data.target).name;

      const ConstraintSide pair_side = unit.determined_by[i];
      const bool is_static =
          data.production.is_singleton() && data.consumption.is_singleton();
      const bool adjacent = pair_side == ConstraintSide::Sink
                                ? data.target == actor
                                : data.source == actor;
      // Back-edges never qualify for the tight rounding (see the forward
      // analysis), so their slack keeps the Eq (4) +1.
      const bool tight = options.rounding == RoundingMode::Ceil ||
                         (options.rounding == RoundingMode::PaperPublished &&
                          is_static && adjacent && !view.is_feedback[i]);

      // Δ_producer = max(alignment gap, chain-local ρ_a + s·(π̂−1)) — the
      // affine branch is chosen at the candidate period, like the
      // alignment max itself, and validated by forward verification.
      const AffineLead aligned =
          pair_side == ConstraintSide::Sink
              ? AffineLead{lead[data.source.index()].resp -
                               lead[data.target.index()].resp,
                           lead[data.source.index()].rate -
                               lead[data.target.index()].rate}
              : AffineLead{lead[data.target.index()].resp -
                               lead[data.source.index()].resp,
                           lead[data.target.index()].rate -
                               lead[data.source.index()].rate};
      const AffineLead chain_local{
          overlay.response_time_of(graph, data.source).seconds(),
          rate_coefficient(i, data) * Rational(pi_max - 1)};
      // Ties keep `aligned`, which on skeleton edges is always ≥ the
      // chain-local value — acyclic graphs reproduce the pre-cyclic
      // results exactly.
      const AffineLead gap =
          chain_local.at(candidate_tau) > aligned.at(candidate_tau)
              ? chain_local
              : aligned;
      const Rational c = pair_side == ConstraintSide::Sink
                             ? unit.pacing_of(data.target).seconds()
                             : unit.pacing_of(data.source).seconds();
      const std::int64_t q = pair_side == ConstraintSide::Sink ? gamma_max
                                                               : pi_max;
      // delta_total = R + C·τ with the consumer-side Eq (2) terms added.
      const Rational resp_part =
          gap.resp + overlay.response_time_of(graph, data.target).seconds();
      const Rational rate_tokens =  // (C·q/c): τ-independent token count
          (gap.rate + (c / Rational(q)) * Rational(gamma_max - 1)) *
          Rational(q) / c;
      // Sufficiency margin in tokens: x ≤ d − 1 in general (the +1 of
      // Eq (4)); x ≤ d when the rounding mode grants the tight value.
      const Rational margin =
          Rational(d) - rate_tokens - Rational(tight ? 0 : 1);
      if (!margin.is_positive()) {
        std::ostringstream os;
        os << label << ": capacity " << d
           << " cannot sustain any rate (needs more than "
           << (rate_tokens + Rational(tight ? 0 : 1)).to_string()
           << " containers)";
        result.diagnostics.push_back(os.str());
        diagnosed = true;
        break;
      }
      // R·q/(c·τ) ≤ margin  ⇔  τ ≥ q·R/(c·margin).
      tighten(Rational(q) * resp_part / (c * margin), label);
      // The forward rounding ⌊x⌋+1 ≤ d is the open condition x < d, one
      // token looser than the attained criterion: margin+1, not attained.
      // On tight pairs the forward condition ⌈x⌉ ≤ d equals x ≤ d and the
      // bound is attained.
      if (tight) {
        tighten_infimum(Rational(q) * resp_part / (c * margin), true);
      } else {
        tighten_infimum(
            Rational(q) * resp_part / (c * (margin + Rational(1))), false);
      }

      // Back-edges additionally carry the cycle bound (see the forward
      // analysis): the δ circulating tokens must cover the reversed
      // alignment gap plus the transfer slack,
      //   (rev + ρ_p)/s + (π̂−1) + (γ̂−1) ≤ δ,  s = (c/q)·τ
      // ⇔ τ ≥ q·(rev.resp + ρ_p) / (c·(δ − (π̂−1) − (γ̂−1) − q·rev.rate/c)).
      if (view.is_feedback[i]) {
        const std::int64_t delta =
            overlay.initial_tokens_of(graph, buffer.data);
        const AffineLead reverse{-aligned.resp, -aligned.rate};
        const Rational token_margin =
            Rational(delta) - Rational(pi_max - 1) -
            Rational(gamma_max - 1) - reverse.rate * Rational(q) / c;
        const Rational cycle_resp =
            reverse.resp +
            overlay.response_time_of(graph, data.source).seconds();
        const std::string cycle_label = "cycle through back-edge " +
                                        graph.actor(data.source).name + "->" +
                                        graph.actor(data.target).name;
        if (!token_margin.is_positive()) {
          std::ostringstream os;
          os << cycle_label << ": delta=" << delta
             << " initial tokens cannot sustain any rate (the cycle's "
                "transfer slack alone consumes the credit)";
          result.diagnostics.push_back(os.str());
          diagnosed = true;
          break;
        }
        tighten(Rational(q) * cycle_resp / (c * token_margin), cycle_label);
        tighten_infimum(Rational(q) * cycle_resp / (c * token_margin), true);
      }
    }
    if (diagnosed) {
      return result;
    }

    // The binding structure of the alignment max may differ at the solved
    // period; iterate until it reproduces itself (`lead` is exactly
    // leads_at(candidate_tau)).
    if (leads_at(min_tau) == lead) {
      result.ok = true;
      result.min_period = Duration(min_tau);
      result.infimum_period = Duration(infimum_tau);
      result.infimum_attained = infimum_attained;
      result.binding_constraint = binding;
      break;
    }
    candidate_tau = min_tau;
  }
  if (!result.ok) {
    result.diagnostics.push_back(
        "alignment binding structure did not converge");
    return result;
  }

  // Soundness check: the forward analysis at min_period must fit the
  // installed capacities (guards the fixed-binding closed form on
  // fork-join graphs; never triggers on chains, whose max is trivial).
  const GraphAnalysis forward = compute_buffer_capacities(
      snapshot, ConstraintSet{{actor, result.min_period}}, options, overlay);
  bool fits = forward.admissible;
  if (fits) {
    for (const PairAnalysis& pair : forward.pairs) {
      // pair.capacity is the *total* container count; compare against the
      // installed total (free containers + containers holding initial
      // tokens).
      fits = fits && pair.capacity <= overlay.buffer_capacity_of(graph,
                                                                 pair.buffer);
    }
  }
  if (!fits) {
    result.ok = false;
    result.diagnostics.push_back(
        "closed-form period failed forward verification");
  }
  return result;
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
    return min_admissible_period(snapshot, designated, options, overlay);
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
  std::optional<Rational> tau;
  dataflow::ActorId pin_actor;
  for (std::size_t i = 0; i < unit.phi_by_actor.size(); ++i) {
    if (!unit.phi_by_actor[i].has_value() ||
        !fixed.phi_by_actor[i].has_value()) {
      continue;
    }
    const Rational candidate =
        fixed.phi_by_actor[i]->seconds() / unit.phi_by_actor[i]->seconds();
    if (!tau.has_value()) {
      tau = candidate;
      pin_actor = dataflow::ActorId(
          static_cast<dataflow::ActorId::underlying_type>(i));
    } else if (candidate != *tau) {
      std::ostringstream os;
      os << "the fixed constraints pin incompatible periods for '"
         << graph.actor(designated).name << "' (" << tau->to_string()
         << " s at actor '" << graph.actor(pin_actor).name << "' vs "
         << candidate.to_string() << " s at actor '"
         << graph
                .actor(dataflow::ActorId(
                    static_cast<dataflow::ActorId::underlying_type>(i)))
                .name
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
  for (const PairAnalysis& pair : forward.pairs) {
    const std::int64_t installed =
        overlay.buffer_capacity_of(graph, pair.buffer);
    if (pair.capacity > installed) {
      std::ostringstream os;
      os << "buffer " << graph.actor(pair.producer).name << "->"
         << graph.actor(pair.consumer).name << ": installed capacity "
         << installed << " cannot sustain the "
         << "flow-coupled period " << tau->to_string() << " s (needs "
         << pair.capacity << " containers)";
      result.diagnostics.push_back(os.str());
      return result;
    }
  }
  result.ok = true;
  result.min_period = Duration(*tau);
  result.infimum_period = Duration(*tau);
  result.infimum_attained = true;
  result.binding_constraint =
      "flow-coupling at actor '" + graph.actor(pin_actor).name + "'";
  return result;
}

}  // namespace vrdf::analysis
