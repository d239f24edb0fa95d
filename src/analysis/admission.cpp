#include "analysis/admission.hpp"

#include "util/error.hpp"

namespace vrdf::analysis {

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

template <typename Query>
AdmissionDecision AdmissionController::decide_(Query&& query) {
  const std::int64_t before = engine_.analysis().total_capacity;
  engine_.checkpoint();
  try {
    query();
  } catch (...) {
    engine_.rollback();
    throw;
  }
  const GraphAnalysis& candidate = engine_.analysis();
  AdmissionDecision decision;
  if (candidate.admissible) {
    engine_.commit();
    decision.accepted = true;
    decision.capacity_delta = candidate.total_capacity - before;
    decision.total_capacity = candidate.total_capacity;
    return decision;
  }
  decision.diagnostics = candidate.diagnostics;
  decision.binding_constraint = candidate.diagnostics.empty()
                                    ? std::string("(no diagnostic)")
                                    : candidate.diagnostics.front();
  engine_.rollback();
  decision.total_capacity = engine_.analysis().total_capacity;
  return decision;
}

AdmissionDecision AdmissionController::admit(
    const ThroughputConstraint& stream) {
  for (const ThroughputConstraint& c : engine_.constraints()) {
    VRDF_REQUIRE(!(c.actor == stream.actor),
                 "admit: actor already carries a stream constraint "
                 "(use set_period to change its rate)");
  }
  return decide_([&] { engine_.admit(stream); });
}

AdmissionDecision AdmissionController::remove(dataflow::ActorId actor) {
  VRDF_REQUIRE(engine_.constraints().size() > 1,
               "remove: cannot stop the last stream — an unconstrained "
               "graph has no analysis");
  return decide_([&] { engine_.remove(actor); });
}

AdmissionDecision AdmissionController::retune(dataflow::ActorId actor,
                                              Duration rho) {
  return decide_([&] { engine_.retune(actor, rho); });
}

AdmissionDecision AdmissionController::set_period(dataflow::ActorId actor,
                                                  Duration tau) {
  return decide_([&] { engine_.set_period(actor, tau); });
}

}  // namespace vrdf::analysis
