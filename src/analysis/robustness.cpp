#include "analysis/robustness.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/incremental.hpp"
#include "analysis/sizing_core.hpp"
#include "analysis/snapshot.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace vrdf::analysis {

namespace {

/// Margin search resolution: margins are multiples of slack/kGridSteps.
constexpr std::int64_t kGridSteps = 64;

/// Largest k in [0, grid] such that holds(k), assuming the predicate is
/// monotone (true at 0, and once false stays false) — the capacity of
/// every pair is monotone nondecreasing in every ρ(v).  After the top
/// probe fails, the search probes hint() and, if that holds, the point
/// after it, then bisects what is left of the bracket.  Monotonicity makes
/// the threshold unique, so any hint returns what plain bisection
/// returns; a good hint ends the search in three probes, a wrong one
/// costs at most two extra.
template <typename Predicate, typename Hint>
[[nodiscard]] std::int64_t max_true(std::int64_t grid, Predicate&& holds,
                                    Hint&& hint) {
  if (holds(grid)) {
    return grid;
  }
  std::int64_t lo = 0;  // known true (caller checks the baseline)
  std::int64_t hi = grid;  // known false
  const std::int64_t guess = std::clamp<std::int64_t>(hint(), 1, grid - 1);
  if (holds(guess)) {
    lo = guess;
    if (guess + 1 < hi) {
      (holds(guess + 1) ? lo : hi) = guess + 1;
    }
  } else {
    hi = guess;
  }
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (holds(mid) ? lo : hi) = mid;
  }
  return lo;
}

/// One pair's side of the secant hint, fixed before the searches: its raw
/// token count at the declared ρ (grid point 0) and what its installed
/// capacity admits.
struct PairLine {
  Rational x0;
  /// Installed capacity minus δ(data): the most the rounded x may reach.
  std::int64_t room = 0;
  /// The pair rounds to ⌈x⌉ (fits while x ≤ room) rather than ⌊x⌋+1
  /// (fits while x < room).
  bool tight = false;
};

/// The secant prediction of the largest fitting grid point, from grid
/// point 0 and the failing top probe: every pair over its installed
/// capacity at the top is taken as linear in k between the two, and the
/// hint is the smallest largest-fitting k among them.  On a chain x is
/// affine in one ρ, so the hint is exact.  With no pair to extrapolate
/// (the top failed only on a back-edge's credit) or on overflow, the hint
/// is the midpoint; it only steers the search, never its result.
[[nodiscard]] std::int64_t secant_hint(const std::vector<PairLine>& lines,
                                       const GraphAnalysis& top) {
  constexpr std::int64_t kMidpoint = kGridSteps / 2;
  if (top.pairs.size() != lines.size()) {
    return kMidpoint;
  }
  std::int64_t hint = kGridSteps;
  try {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const PairLine& line = lines[i];
      const PairAnalysis& pair = top.pairs[i];
      const Rational rise = pair.raw_tokens - line.x0;
      if (pair.capacity - pair.initial_tokens <= line.room ||
          !rise.is_positive()) {
        continue;
      }
      // x0 + rise·k/kGridSteps reaches the room at k = t.
      const Rational t =
          (Rational(line.room) - line.x0) * Rational(kGridSteps) / rise;
      hint = std::min(hint, line.tight ? t.floor() : t.ceil() - 1);
    }
  } catch (const OverflowError&) {
    return kMidpoint;
  }
  return hint == kGridSteps ? kMidpoint : hint;
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

  // Grid point 0 of every search, kept for the secant hints: `baseline`
  // is the engine's live analysis, which the retunes below overwrite.
  std::vector<PairLine> lines;
  lines.reserve(baseline.pairs.size());
  for (const PairAnalysis& pair : baseline.pairs) {
    lines.push_back(PairLine{
        pair.raw_tokens,
        graph.buffer_capacity(pair.buffer) - pair.initial_tokens,
        detail::uses_ceiling(pair.tight_rounding, baseline.rounding)});
  }

  // Per actor: retune its ρ on the engine under a checkpoint, which
  // re-derives only the ω cone and pairs the actor reaches, then roll the
  // probes back to the baseline.
  for (ActorMargin& margin : report.actors) {
    const Duration slack = margin.max_response_time - margin.response_time;
    if (slack.is_positive()) {
      engine.checkpoint();
      const std::int64_t best = max_true(
          kGridSteps,
          [&](std::int64_t k) {
            ++report.probes;
            engine.retune(margin.actor, grid_point(margin, k));
            return fits(engine.analysis());
          },
          [&] { return secant_hint(lines, engine.analysis()); });
      engine.rollback();
      margin.margin = slack * Rational(best, kGridSteps);
    }
    VRDF_LOG(Trace) << "robustness: actor '" << graph.actor(margin.actor).name
                    << "' rho=" << margin.response_time.to_string()
                    << " phi=" << margin.max_response_time.to_string()
                    << " margin=" << margin.margin.to_string();
  }

  // Per-actor margins hold the *other* actors at their declared ρ and do
  // not compose; the joint fraction is what all actors may take at once.
  // Every ρ moves, so each probe sizes the engine's pacing (which no ρ
  // move changes) under one overlay.
  ParameterOverlay overlay;
  GraphAnalysis probe;
  const std::int64_t joint = max_true(
      kGridSteps,
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
      [&] { return secant_hint(lines, probe); });
  report.joint_safe_fraction = Rational(joint, kGridSteps);

  report.ok = true;
  return report;
}

}  // namespace vrdf::analysis
