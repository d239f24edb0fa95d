#include "analysis/robustness.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/grid_search.hpp"
#include "analysis/incremental.hpp"
#include "analysis/sizing_core.hpp"
#include "analysis/snapshot.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {

namespace {

/// Margin search resolution: margins are multiples of slack/kGridSteps.
constexpr std::int64_t kGridSteps = 64;

/// One pair of the baseline, fixed before the searches: its endpoints,
/// its bound rate s, its raw token count x at the declared ρ (grid point
/// 0) and what its installed capacity admits.
struct PairLine {
  dataflow::ActorId producer;
  dataflow::ActorId consumer;
  Duration bound_rate;
  Rational x0;
  /// Installed capacity minus δ(data): the most the rounded x may reach.
  std::int64_t room = 0;
  /// The pair rounds to ⌈x⌉ (fits while x ≤ room) rather than ⌊x⌋+1
  /// (fits while x < room).
  bool tight = false;
};

/// The largest grid point k at which x0 + step·k still fits the line's
/// room (step > 0).
[[nodiscard]] std::int64_t last_fitting(const PairLine& line,
                                        const Rational& step) {
  const Rational t = (Rational(line.room) - line.x0) / step;
  return line.tight ? t.floor() : t.ceil() - 1;
}

/// The first-order prediction of a search's threshold from the baseline
/// alone.  `lift(line)` is how much the pair's Δ grows over the whole
/// slack — the moved ρ enters Δ once per endpoint — so its x rises by
/// lift/s over kGridSteps grid points.  The hint is the smallest last
/// fitting k over the pairs that rise; on a chain it is exact.  Pairs
/// whose Δ moves only through the ω leads, and back-edge credits, are
/// not predicted; the search corrects for them.
template <typename Lift>
[[nodiscard]] std::int64_t predicted_hint(const std::vector<PairLine>& lines,
                                          Lift&& lift) {
  std::int64_t hint = kGridSteps;
  try {
    for (const PairLine& line : lines) {
      const Duration rise = lift(line);
      if (rise.is_positive()) {
        hint = std::min(hint, last_fitting(line, rise / line.bound_rate /
                                                     Rational(kGridSteps)));
      }
    }
  } catch (const OverflowError&) {
    return kGridSteps / 2;
  }
  return hint;
}

/// The secant prediction after a failed probe of grid point `failed`:
/// every pair over its installed capacity there is taken as linear in k
/// between grid point 0 and that probe, and the hint is the smallest last
/// fitting k among them.  With no pair to extrapolate (the probe failed
/// only on a back-edge's credit) or on overflow, the hint is the midpoint
/// below the failed point; it only steers the search, never its result.
[[nodiscard]] std::int64_t secant_hint(const std::vector<PairLine>& lines,
                                       const GraphAnalysis& probe,
                                       std::int64_t failed) {
  const std::int64_t midpoint = failed / 2;
  if (probe.pairs.size() != lines.size()) {
    return midpoint;
  }
  std::int64_t hint = failed;
  try {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const PairLine& line = lines[i];
      const PairAnalysis& pair = probe.pairs[i];
      const Rational rise = pair.raw_tokens - line.x0;
      if (pair.capacity - pair.initial_tokens > line.room &&
          rise.is_positive()) {
        hint = std::min(hint, last_fitting(line, rise / Rational(failed)));
      }
    }
  } catch (const OverflowError&) {
    return midpoint;
  }
  return hint == failed ? midpoint : hint;
}

/// ρ(v) + slack·k/kGridSteps: the response time of grid point k.
[[nodiscard]] Duration grid_point(const ActorMargin& m, std::int64_t k) {
  return m.response_time +
         (m.max_response_time - m.response_time) * Rational(k, kGridSteps);
}

}  // namespace

RobustnessReport robustness_margins(const dataflow::VrdfGraph& graph,
                                    const ConstraintSet& constraints) {
  RobustnessReport report;
  report.constraints = constraints;

  // Every probe below moves only response times, which enter neither the
  // structural snapshot nor the pacing propagation: both are built once.
  const TopologySnapshot snapshot(graph);
  IncrementalAnalysis engine(snapshot, constraints);
  const GraphAnalysis& baseline = engine.analysis();
  if (!baseline.admissible) {
    report.diagnostics = baseline.diagnostics;
    report.diagnostics.push_back(
        "robustness margins undefined: baseline analysis inadmissible");
    return report;
  }

  // Buffer headroom, and the precondition for every margin below: the
  // graph's installed capacities must cover the baseline requirement.
  bool installed_ok = true;
  report.buffers.reserve(baseline.pairs.size());
  for (const PairAnalysis& pair : baseline.pairs) {
    BufferHeadroom headroom;
    headroom.buffer = pair.buffer;
    headroom.producer = pair.producer;
    headroom.consumer = pair.consumer;
    headroom.required = pair.capacity;
    headroom.installed = graph.buffer_capacity(pair.buffer);
    headroom.headroom = headroom.installed - headroom.required;
    if (headroom.headroom < 0) {
      installed_ok = false;
      std::ostringstream os;
      os << "installed capacity of buffer "
         << graph.actor(pair.producer).name << "->"
         << graph.actor(pair.consumer).name << " (" << headroom.installed
         << ") is below the analysed requirement (" << headroom.required
         << ")";
      report.diagnostics.push_back(os.str());
    }
    report.buffers.push_back(headroom);
  }

  // An admissible baseline carries the pacing φ(v), which is the maximal
  // admissible response time of each actor.
  report.actors.reserve(baseline.actors_in_order.size());
  for (std::size_t i = 0; i < baseline.actors_in_order.size(); ++i) {
    const dataflow::ActorId v = baseline.actors_in_order[i];
    report.actors.push_back(ActorMargin{v, graph.actor(v).response_time,
                                        baseline.pacing[i], Duration()});
  }
  if (!installed_ok) {
    // Report zero margins (honest: nothing extra is tolerable) but keep
    // ok=false so callers do not inject "within-margin" faults.
    return report;
  }

  // A probe holds when it is admissible and every pair fits the graph's
  // installed capacities (probes move only response times).
  const auto fits = [&graph](const GraphAnalysis& probe) {
    return probe.admissible && first_over_installed(graph, probe) == nullptr;
  };

  // Grid point 0 of every search, kept for the hints: `baseline` is the
  // engine's live analysis, which the retunes below overwrite.
  std::vector<PairLine> lines;
  lines.reserve(baseline.pairs.size());
  for (const PairAnalysis& pair : baseline.pairs) {
    lines.push_back(PairLine{
        pair.producer, pair.consumer, pair.bound_rate, pair.raw_tokens,
        graph.buffer_capacity(pair.buffer) - pair.initial_tokens,
        detail::uses_ceiling(pair.tight_rounding, baseline.rounding)});
  }

  // Per actor: retune its ρ on the engine under a checkpoint, which
  // re-derives only the ω cone and pairs the actor reaches, then roll the
  // probes back to the baseline.
  std::vector<Duration> slack_of(graph.actor_count());
  for (ActorMargin& margin : report.actors) {
    const Duration slack = margin.max_response_time - margin.response_time;
    if (slack.is_positive()) {
      slack_of[margin.actor.index()] = slack;
      const std::int64_t hint = predicted_hint(lines, [&](const PairLine& l) {
        return l.producer == margin.actor || l.consumer == margin.actor
                   ? slack
                   : Duration();
      });
      engine.checkpoint();
      const std::int64_t best = detail::largest_holding_point(
          kGridSteps, hint,
          [&](std::int64_t k) {
            ++report.probes;
            engine.retune(margin.actor, grid_point(margin, k));
            return fits(engine.analysis());
          },
          [&](std::int64_t failed) {
            return secant_hint(lines, engine.analysis(), failed);
          });
      engine.rollback();
      margin.margin = slack * Rational(best, kGridSteps);
    }
  }

  // Per-actor margins hold the *other* actors at their declared ρ and do
  // not compose; the joint fraction is what all actors may take at once.
  // Every ρ moves, so each probe sizes the engine's pacing (which no ρ
  // move changes) under one overlay, and a pair's Δ grows by both its
  // endpoints' slack.
  ParameterOverlay overlay;
  GraphAnalysis probe;
  const std::int64_t joint = detail::largest_holding_point(
      kGridSteps,
      predicted_hint(lines,
                     [&](const PairLine& l) {
                       return slack_of[l.producer.index()] +
                              slack_of[l.consumer.index()];
                     }),
      [&](std::int64_t k) {
        ++report.probes;
        for (const ActorMargin& m : report.actors) {
          if (m.max_response_time > m.response_time) {
            overlay.set_response_time(m.actor, grid_point(m, k));
          }
        }
        probe = detail::size_from_pacing(graph, engine.pacing(), {}, overlay);
        return fits(probe);
      },
      [&](std::int64_t failed) { return secant_hint(lines, probe, failed); });
  report.joint_safe_fraction = Rational(joint, kGridSteps);

  report.ok = true;
  return report;
}

}  // namespace vrdf::analysis
