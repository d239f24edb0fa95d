// Admission-control front end over the incremental re-analysis engine.
//
// A deployed media platform faces capacity questions at run time: may a
// new stream (a throughput constraint) start?  May a codec be moved to a
// slower core (a retune)?  May a stream change rate (a period move)?
// Each question is a what-if against the live analysis state; the
// controller answers by applying the change to the IncrementalAnalysis,
// reading admissibility off the result, and — on rejection — rolling the
// change back so the serviced state never degrades.  Every operation is
// self-inverse through the engine, so rollback is another (cheap)
// incremental step, not a state copy.
//
// Decisions carry the binding constraint on rejection (the first
// diagnostic of the rejected candidate state: the ρ-violation, starving
// back-edge, or flow-consistency conflict that blocked the change) and
// the buffer-capacity delta on acceptance (the change in the summed
// per-pair requirement Σζ — what the change costs or releases in
// containers across the graph).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/incremental.hpp"
#include "analysis/snapshot.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::analysis {

struct AdmissionDecision {
  /// True when the candidate state is admissible and was kept.
  bool accepted = false;
  /// On rejection: the diagnostic that blocked the change (first
  /// diagnostic of the rejected candidate analysis).  Empty on
  /// acceptance.
  std::string binding_constraint;
  /// On rejection: the candidate state's full diagnostics.
  std::vector<std::string> diagnostics;
  /// On acceptance: Σ capacity(after) − Σ capacity(before) over all
  /// pairs — the container cost (+) or release (−) of the change.  Zero
  /// on rejection (the state was rolled back).
  std::int64_t capacity_delta = 0;
  /// Σ capacity of the serviced state after the decision.
  std::int64_t total_capacity = 0;
};

/// Long-lived admission-control service over one TopologySnapshot.  The
/// serviced state is always admissible: the initial constraint set must
/// be admissible (ContractError otherwise), and rejected changes are
/// rolled back.  Mutating the underlying graph invalidates the
/// controller; the next call throws a ContractError naming the mutation.
class AdmissionController {
public:
  AdmissionController(const TopologySnapshot& snapshot,
                      ConstraintSet initial_streams,
                      AnalysisOptions options = {});

  /// May the new stream start?  (Adds its throughput constraint.)  The
  /// actor must not already carry a constraint.
  AdmissionDecision admit(
      const ThroughputConstraint& stream);  // det-lint: ok(one stream)
  /// Stops the stream pinned at `actor`.  Removal rejects (and rolls
  /// back) when the remaining constraints no longer pace the whole
  /// graph — an actor or edge outside every remaining demand cone has
  /// no derivable rate.  Removing the *last* stream is refused with
  /// ContractError: an unconstrained graph has no analysis at all.
  /// Rollback re-admits the stream at the end of the set (stream order
  /// may change across a rejected removal).
  AdmissionDecision remove(dataflow::ActorId actor);
  /// May `actor` run with worst-case response time `rho`?
  AdmissionDecision retune(dataflow::ActorId actor, Duration rho);
  /// May the stream pinned at `actor` move to period `tau`?
  AdmissionDecision set_period(dataflow::ActorId actor, Duration tau);

  /// Certificate gating: puts the engine in certify mode, so every
  /// decision's candidate analysis is transcribed into a certificate and
  /// re-validated by the independent checker (analysis/checker.hpp)
  /// before it may be committed.  An admissible candidate whose
  /// certificate fails a clause is treated as a rejection — the
  /// violation becomes the binding constraint and the change rolls
  /// back — so a checker/analyzer disagreement can never enter the
  /// serviced state.
  void set_require_certificate(bool require);
  [[nodiscard]] bool require_certificate() const {
    return require_certificate_;
  }

  /// The serviced (always admissible) analysis state.
  [[nodiscard]] const GraphAnalysis& analysis() const {
    return engine_.analysis();
  }
  [[nodiscard]] const IncrementalAnalysis& engine() const { return engine_; }
  [[nodiscard]] const ConstraintSet& streams() const {
    return engine_.constraints();
  }

private:
  AdmissionDecision decide_(std::int64_t total_before);
  IncrementalAnalysis engine_;
  bool require_certificate_ = false;
};

}  // namespace vrdf::analysis
