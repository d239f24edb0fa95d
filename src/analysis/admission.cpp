#include "analysis/admission.hpp"

#include "util/error.hpp"

namespace vrdf::analysis {

namespace {

AdmissionDecision accept(const GraphAnalysis& analysis,
                         std::int64_t total_before) {
  AdmissionDecision decision;
  decision.accepted = true;
  decision.capacity_delta = analysis.total_capacity - total_before;
  decision.total_capacity = analysis.total_capacity;
  return decision;
}

AdmissionDecision reject(const GraphAnalysis& candidate) {
  AdmissionDecision decision;
  decision.diagnostics = candidate.diagnostics;
  decision.binding_constraint =
      candidate.diagnostics.empty() ? std::string("(no diagnostic)")
                                    : candidate.diagnostics.front();
  return decision;
}

/// An admissible candidate whose certificate failed the independent
/// checker: the violated clause is the binding constraint.
AdmissionDecision reject_uncertified(const ClauseViolation& violation) {
  AdmissionDecision decision;
  decision.binding_constraint = "certificate: " + describe(violation);
  decision.diagnostics.push_back(decision.binding_constraint);
  return decision;
}

/// accept/reject dispatch shared by the four decision paths.
AdmissionDecision decide(const IncrementalAnalysis& engine,
                         std::int64_t total_before, bool* accepted) {
  const GraphAnalysis& candidate = engine.analysis();
  if (candidate.admissible &&
      !engine.last_certificate_violation().has_value()) {
    *accepted = true;
    return accept(candidate, total_before);
  }
  *accepted = false;
  return engine.last_certificate_violation().has_value()
             ? reject_uncertified(*engine.last_certificate_violation())
             : reject(candidate);
}

}  // namespace

AdmissionController::AdmissionController(const TopologySnapshot& snapshot,
                                         ConstraintSet initial_streams,
                                         AnalysisOptions options)
    : engine_(snapshot, std::move(initial_streams), options) {
  const GraphAnalysis& initial = engine_.analysis();
  VRDF_REQUIRE(
      initial.admissible,
      "admission controller requires an admissible initial state; got: " +
          (initial.diagnostics.empty() ? std::string("(no diagnostics)")
                                       : initial.diagnostics.front()));
}

AdmissionDecision AdmissionController::admit(
    const ThroughputConstraint& stream, std::optional<std::size_t> at) {
  for (const ThroughputConstraint& c : engine_.constraints()) {
    VRDF_REQUIRE(!(c.actor == stream.actor),
                 "admit: actor already carries a stream constraint "
                 "(use set_period to change its rate)");
  }
  const std::int64_t before = engine_.analysis().total_capacity;
  engine_.admit(stream, at);
  bool accepted = false;
  AdmissionDecision decision = decide(engine_, before, &accepted);
  if (accepted) {
    return decision;
  }
  engine_.remove(stream.actor);
  decision.total_capacity = engine_.analysis().total_capacity;
  return decision;
}

AdmissionDecision AdmissionController::remove(dataflow::ActorId actor) {
  VRDF_REQUIRE(engine_.constraints().size() > 1,
               "remove: cannot stop the last stream — an unconstrained "
               "graph has no analysis");
  const ConstraintSet& streams = engine_.constraints();
  std::size_t at = 0;
  while (at < streams.size() && !(streams[at].actor == actor)) {
    ++at;
  }
  VRDF_REQUIRE(at < streams.size(),
               "remove: actor carries no stream constraint");
  const ThroughputConstraint removed = streams[at];
  const std::int64_t before = engine_.analysis().total_capacity;
  engine_.remove(actor);
  bool accepted = false;
  AdmissionDecision decision = decide(engine_, before, &accepted);
  if (accepted) {
    return decision;
  }
  engine_.admit(removed, at);
  decision.total_capacity = engine_.analysis().total_capacity;
  return decision;
}

AdmissionDecision AdmissionController::retune(dataflow::ActorId actor,
                                              Duration rho) {
  std::optional<Duration> previous;
  if (actor.index() < engine_.overlay().response_time.size()) {
    previous = engine_.overlay().response_time[actor.index()];
  }
  const std::int64_t before = engine_.analysis().total_capacity;
  engine_.retune(actor, rho);
  bool accepted = false;
  AdmissionDecision decision = decide(engine_, before, &accepted);
  if (accepted) {
    return decision;
  }
  if (previous.has_value()) {
    engine_.retune(actor, *previous);
  } else {
    engine_.clear_retune(actor);
  }
  decision.total_capacity = engine_.analysis().total_capacity;
  return decision;
}

AdmissionDecision AdmissionController::set_period(dataflow::ActorId actor,
                                                  Duration tau) {
  std::optional<Duration> previous;
  for (const ThroughputConstraint& c : engine_.constraints()) {
    if (c.actor == actor) {
      previous = c.period;
      break;
    }
  }
  VRDF_REQUIRE(previous.has_value(),
               "set_period: actor carries no stream constraint");
  const std::int64_t before = engine_.analysis().total_capacity;
  engine_.set_period(actor, tau);
  bool accepted = false;
  AdmissionDecision decision = decide(engine_, before, &accepted);
  if (accepted) {
    return decision;
  }
  engine_.set_period(actor, *previous);
  decision.total_capacity = engine_.analysis().total_capacity;
  return decision;
}

void AdmissionController::set_require_certificate(bool require) {
  require_certificate_ = require;
  engine_.set_certify(require);
}

}  // namespace vrdf::analysis
