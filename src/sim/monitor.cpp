#include "sim/monitor.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"

namespace vrdf::sim {

using dataflow::ActorId;
using dataflow::EdgeId;

namespace {

/// Cap on stored RhoViolation events (the total count keeps counting).
constexpr std::size_t kMaxRhoEvents = 256;
/// Firing-record cap installed per actor by attach().
constexpr std::size_t kRecordCap = std::size_t{1} << 18;
/// Starts later than this past their grid slot count as late for
/// non-periodic (anchored-grid) lateness tracking.
constexpr Duration kLatenessTolerance;

/// "producer->consumer" of the buffer the edge belongs to (bare edges name
/// themselves); space halves are labelled in the buffer's data direction.
[[nodiscard]] std::string buffer_label(const dataflow::VrdfGraph& graph,
                                       EdgeId edge, bool space) {
  EdgeId data = edge;
  if (space) {
    data = graph.edge(edge).paired;
  }
  const dataflow::Edge& e = graph.edge(data);
  return graph.actor(e.source).name + "->" + graph.actor(e.target).name;
}

[[nodiscard]] std::string wait_phrase(const dataflow::VrdfGraph& graph,
                                      const BlockedWait& wait) {
  std::ostringstream os;
  os << "'" << graph.actor(wait.actor).name << "' waits for " << wait.needed
     << (wait.waiting_for_space ? " free containers" : " tokens")
     << " on buffer " << buffer_label(graph, wait.edge, wait.waiting_for_space)
     << " (has " << wait.available << ")";
  return os.str();
}

}  // namespace

BlockageReport diagnose_blockage(const dataflow::VrdfGraph& graph,
                                 const std::vector<BlockedWait>& blocked) {
  BlockageReport report;
  report.waits = blocked;
  if (blocked.empty()) {
    return report;
  }
  report.blocked = true;

  // Wait-for relation: the waiter waits for the producer of its missing
  // edge (for a space edge that is the buffer's consumer — back-pressure).
  // One representative wait per actor (the first listed) keeps the walk
  // deterministic.
  std::unordered_map<std::uint32_t, std::size_t> first_wait;
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    first_wait.emplace(blocked[i].actor.value(), i);
  }
  // Follow the relation until it revisits an actor: at a true deadlock
  // every wait chain closes into a cycle.  rank = position in the current
  // walk; a revisit inside the walk yields the cycle suffix.
  std::unordered_map<std::uint32_t, std::size_t> rank;
  std::vector<ActorId> walk;
  ActorId at = blocked.front().actor;
  while (true) {
    const auto wait_it = first_wait.find(at.value());
    if (wait_it == first_wait.end()) {
      break;  // chain leaves the blocked set (defensive; see header)
    }
    const auto rank_it = rank.find(at.value());
    if (rank_it != rank.end()) {
      report.cycle.assign(walk.begin() +
                              static_cast<std::ptrdiff_t>(rank_it->second),
                          walk.end());
      break;
    }
    rank.emplace(at.value(), walk.size());
    walk.push_back(at);
    at = graph.edge(blocked[wait_it->second].edge).source;
  }

  std::ostringstream os;
  if (!report.cycle.empty()) {
    os << "blocked cycle: ";
    for (std::size_t i = 0; i < report.cycle.size(); ++i) {
      if (i > 0) {
        os << " -> ";
      }
      os << wait_phrase(graph, blocked[first_wait.at(report.cycle[i].value())]);
    }
    os << " -> back to '" << graph.actor(report.cycle.front()).name << "'";
  } else {
    os << "blocked actors: ";
    for (std::size_t i = 0; i < blocked.size(); ++i) {
      if (i > 0) {
        os << "; ";
      }
      os << wait_phrase(graph, blocked[i]);
    }
  }
  report.message = os.str();
  return report;
}

ConformanceMonitor::ConformanceMonitor(const dataflow::VrdfGraph& graph,
                                       analysis::ConstraintSet constraints)
    : graph_(&graph),
      constraints_(std::move(constraints)),
      rho_cursor_(graph.actor_count(), 0),
      grid_cursor_(constraints_.size(), 0),
      grid_anchor_(constraints_.size()),
      starvation_cursor_(constraints_.size(), 0) {
  report_.constraints.reserve(constraints_.size());
  for (const analysis::ThroughputConstraint& c : constraints_) {
    VRDF_REQUIRE(c.actor.is_valid() && c.actor.index() < graph.actor_count(),
                 "constrained actor does not exist in the monitored graph");
    ConstraintConformance conformance;
    conformance.actor = c.actor;
    conformance.period = c.period;
    report_.constraints.push_back(conformance);
  }
  refresh_summary();
}

void ConformanceMonitor::attach(Simulator& sim) const {
  for (const ActorId a : graph_->actors()) {
    sim.record_firings(a, kRecordCap);
  }
}

void ConformanceMonitor::observe(const Simulator& sim, const RunResult& run) {
  observe_rho(sim);
  observe_constraints(sim, run);
  if (run.deadlocked()) {
    report_.blockage = diagnose_blockage(*graph_, run.blocked);
  }
  refresh_summary();
}

void ConformanceMonitor::observe_rho(const Simulator& sim) {
  for (const ActorId a : graph_->actors()) {
    const Duration declared = graph_->actor(a).response_time;
    const auto& records = sim.firings(a);
    for (std::size_t k = rho_cursor_[a.index()]; k < records.size(); ++k) {
      const Duration observed = records[k].finish - records[k].start;
      if (observed <= declared) {
        continue;
      }
      ++report_.rho_violation_total;
      report_.rho_conformant = false;
      if (report_.rho_violations.size() < kMaxRhoEvents) {
        report_.rho_violations.push_back(
            RhoViolation{a, records[k].index, declared, observed});
      }
    }
    rho_cursor_[a.index()] = records.size();
  }
}

void ConformanceMonitor::observe_constraints(const Simulator& sim,
                                             const RunResult& run) {
  for (std::size_t c = 0; c < constraints_.size(); ++c) {
    ConstraintConformance& conformance = report_.constraints[c];
    const Duration tau = conformance.period;

    // Starvation-based grading: the engine's own periodic grid (the
    // phase-2 machinery of sim/verify.cpp) — authoritative whenever the
    // actor runs strictly periodically.
    std::int64_t starved = 0;
    for (std::size_t s = starvation_cursor_[c]; s < run.starvations.size();
         ++s) {
      const Starvation& starvation = run.starvations[s];
      if (starvation.actor != conformance.actor) {
        continue;
      }
      ++starved;
      const TimePoint started = starvation.actual_start.has_value()
                                    ? *starvation.actual_start
                                    : run.end_time;
      const Duration lateness = started - starvation.scheduled;
      conformance.max_lateness = std::max(conformance.max_lateness, lateness);
      if (!conformance.first_late_firing.has_value() ||
          starvation.firing < *conformance.first_late_firing) {
        conformance.first_late_firing = starvation.firing;
      }
    }
    starvation_cursor_[c] = run.starvations.size();

    // Anchored-grid grading for self-timed monitoring: lateness of start
    // k versus first_start + k·τ.  For a strictly periodic actor with an
    // on-time first start this coincides with the enforced grid.
    const auto& records = sim.firings(conformance.actor);
    std::int64_t anchored_late = 0;
    for (std::size_t k = grid_cursor_[c]; k < records.size(); ++k) {
      if (!grid_anchor_[c].has_value()) {
        grid_anchor_[c] = records[k].start - tau * Rational(records[k].index);
      }
      const Duration lateness =
          records[k].start -
          (*grid_anchor_[c] + tau * Rational(records[k].index));
      conformance.max_lateness = std::max(conformance.max_lateness, lateness);
      if (lateness > kLatenessTolerance) {
        ++anchored_late;
        if (!conformance.first_late_firing.has_value()) {
          conformance.first_late_firing = records[k].index;
        }
      }
    }
    grid_cursor_[c] = records.size();
    conformance.firings_observed =
        static_cast<std::int64_t>(records.size());

    // A starving periodic actor shows up through both lenses; count each
    // late activation once, preferring the engine's starvation record.
    conformance.late_firings += std::max(starved, anchored_late);
  }
}

void ConformanceMonitor::refresh_summary() {
  std::ostringstream os;
  if (report_.blockage.blocked) {
    os << report_.blockage.message;
  } else {
    const ConstraintConformance* worst = nullptr;
    for (const ConstraintConformance& c : report_.constraints) {
      if (c.late_firings > 0 &&
          (worst == nullptr || c.late_firings > worst->late_firings)) {
        worst = &c;
      }
    }
    if (worst != nullptr) {
      os << "constraint on '" << graph_->actor(worst->actor).name
         << "' (period " << worst->period.to_string() << ") violated: "
         << worst->late_firings << " late activations, max lateness "
         << worst->max_lateness.to_string();
    } else {
      os << "all constraints conformant";
    }
  }
  if (!report_.rho_conformant) {
    // Name the worst offender: the actor with the most violations.
    std::unordered_map<std::uint32_t, std::int64_t> by_actor;
    const RhoViolation* worst = nullptr;
    std::int64_t worst_count = 0;
    for (const RhoViolation& v : report_.rho_violations) {
      const std::int64_t count = ++by_actor[v.actor.value()];
      if (count > worst_count) {
        worst_count = count;
        worst = &v;
      }
    }
    os << "; rho contract violated " << report_.rho_violation_total
       << " times";
    if (worst != nullptr) {
      os << ", worst offender '" << graph_->actor(worst->actor).name
         << "' (declared " << worst->declared.to_string()
         << ", observed up to ";
      Duration max_observed;
      for (const RhoViolation& v : report_.rho_violations) {
        if (v.actor == worst->actor) {
          max_observed = std::max(max_observed, v.observed);
        }
      }
      os << max_observed.to_string() << ")";
    }
  }
  report_.summary = os.str();
}

}  // namespace vrdf::sim
