// Deployment analysis: binds a TaskGraph to a shared Platform and sizes
// buffers from *derived* response times — the paper's Sec 3.1 → 3.3 → 4
// story end-to-end.
//
// The paper assumes every task's worst-case response time κ(w) is handed
// down by a run-time arbiter.  This module closes that loop: each task's
// binding on the platform yields a sched::ServiceModel, κ is derived
// from it (the policy-exact slot-granular TDM bound or the conservative
// latency-rate abstraction), the
// task graph is instantiated as a VRDF model with ρ(v) = κ(w) via the
// existing Sec 3.3 construction, and the capacity analysis runs
// unchanged on top.
//
// Allocation changes are *parameter* changes: a TDM slot retune moves
// only κ of the retuned task, so the DeploymentController routes it
// through IncrementalAnalysis::retune — the cached pacing is reused
// verbatim and only the ω cone re-derives.  Each decision runs under one
// engine checkpoint that covers its slot step, its admission decision
// and its certificate gate; a rejection rolls the engine back and puts
// back the one platform slot and κ entry the decision moved.
// Rejections name what was binding: the TDM wheel (platform slack) or
// the violated throughput constraint (analysis diagnostic).
//
// Certified deployments additionally carry a platform clause
// (PlatformFact per actor: the κ-derivation terms) that the independent
// checker re-validates in exact Rationals (ClauseKind::Kappa).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/admission.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/snapshot.hpp"
#include "analysis/types.hpp"
#include "sched/platform.hpp"
#include "taskgraph/task_graph.hpp"

namespace vrdf::analysis {

/// How κ is derived from each binding's service model.
enum class KappaDerivation {
  /// The policy-exact bound: slot-granular TDM.
  PolicyExact,
  /// The latency-rate abstraction of the allocation — conservative
  /// (never smaller), but composable across arbiters.
  LatencyRate,
};

[[nodiscard]] const char* kappa_derivation_name(KappaDerivation derivation);

/// A stream's throughput requirement, named on a task (resolved to the
/// constructed actor by analyze_deployment).
struct DeploymentConstraint {
  std::string task;
  Duration period;
};

/// One task's derived response time with its full derivation record.
struct DerivedKappa {
  taskgraph::TaskId task;
  std::string task_name;
  std::size_t processor = 0;
  sched::ServiceModel service;
  KappaDerivation derivation = KappaDerivation::PolicyExact;
  Duration kappa;
};

struct DeploymentOptions {
  KappaDerivation derivation = KappaDerivation::PolicyExact;
  AnalysisOptions analysis;
  /// Emit a certificate (platform clause included) for admissible
  /// results and re-validate it with the independent checker.
  bool certify = false;
};

struct DeploymentResult {
  /// False when the capacity analysis rejects (κ too large for a
  /// constraint, etc.); diagnostics carry the analysis' reasons.
  bool admissible = false;
  std::vector<std::string> diagnostics;
  /// One entry per task, in TaskId order.
  std::vector<DerivedKappa> kappas;
  /// The Sec 3.3 construction with ρ(v) = derived κ.
  taskgraph::VrdfConstruction construction;
  /// The stream constraints resolved to actors.
  ConstraintSet constraints;
  GraphAnalysis analysis;
  /// Certify mode, admissible results only: the platform-claused
  /// certificate and the independent checker's verdict.
  std::optional<Certificate> certificate;
  std::optional<CertificateCheck> certificate_check;
};

/// Derives κ for every task of `tasks` from its binding on `platform`.
/// Throws ContractError when a task is unbound (every task must be
/// mapped before deployment analysis makes sense).
[[nodiscard]] std::vector<DerivedKappa> derive_response_times(
    const taskgraph::TaskGraph& tasks, const sched::Platform& platform,
    KappaDerivation derivation = KappaDerivation::PolicyExact);

/// Converts one derived κ into its certificate platform fact.
[[nodiscard]] PlatformFact to_platform_fact(const DerivedKappa& derived,
                                            dataflow::ActorId actor);

/// Attaches the platform clause (one PlatformFact per task, in κ order)
/// to a certificate emitted for the deployment's constructed graph.
void attach_platform_clause(Certificate& cert,
                            const std::vector<DerivedKappa>& kappas,
                            const std::vector<dataflow::ActorId>& actor_of_task);

/// One-shot deployment analysis: derive κ, build the VRDF model, run the
/// capacity analysis, optionally certify with the platform clause.
/// Throws ContractError when a task is unbound or a constraint names an
/// unknown task; an *inadmissible analysis* is a result, not an error.
[[nodiscard]] DeploymentResult analyze_deployment(
    const taskgraph::TaskGraph& tasks, const sched::Platform& platform,
    const std::vector<DeploymentConstraint>& streams,
    const DeploymentOptions& options = {});

/// Decision mirror of AdmissionDecision with the platform dimension: on
/// rejection, `binding_constraint` names either the TDM wheel (the
/// platform rejected before any analysis ran — `wheel_binding` is true)
/// or the throughput diagnostic that blocked the candidate.
struct DeploymentDecision {
  bool accepted = false;
  bool wheel_binding = false;
  std::string binding_constraint;
  std::vector<std::string> diagnostics;
  /// On acceptance: Σζ(after) − Σζ(before); zero on rejection.
  std::int64_t capacity_delta = 0;
  /// Σζ of the serviced state after the decision.
  std::int64_t total_capacity = 0;
};

/// Deployment-aware admission control.  Wraps an AdmissionController so
/// every allocation change becomes a ρ retune routed through
/// ParameterOverlay / IncrementalAnalysis (cached pacing reused), with
/// the platform and the analysis rolled back *together* on rejection —
/// one engine rollback plus the saved slot and κ entry — so the serviced
/// platform+analysis state never degrades.
class DeploymentController {
public:
  /// The initial deployment must be fully bound and admissible
  /// (ContractError otherwise, mirroring AdmissionController).
  DeploymentController(const taskgraph::TaskGraph& tasks,
                       sched::Platform platform,
                       std::vector<DeploymentConstraint> streams,
                       DeploymentOptions options = {});

  /// May `task`'s TDM slot budget move to `slot`?  Checks wheel slack
  /// first (a shortfall rejects naming the wheel, before any analysis
  /// work), then routes the re-derived κ through the incremental engine
  /// (a throughput rejection names the binding diagnostic).
  DeploymentDecision set_slot(const std::string& task, Duration slot);

  /// May a new stream pin `task` at `period`?  When `slot` is given, the
  /// task's TDM slot is retuned first (e.g. granting the stream more
  /// wheel time); both steps roll back if either rejects.
  DeploymentDecision admit(const std::string& task, Duration period,
                           std::optional<Duration> slot = std::nullopt);

  /// Stops the stream pinned at `task`.
  DeploymentDecision remove(const std::string& task);

  /// Certificate gating: every accepted decision's state is transcribed
  /// into a platform-claused certificate and re-validated by the
  /// independent checker; a clause violation turns the decision into a
  /// rejection (platform and analysis rolled back) naming the clause.
  void set_require_certificate(bool require);

  /// The serviced (always admissible) analysis state.
  [[nodiscard]] const GraphAnalysis& analysis() const {
    return controller_->analysis();
  }
  [[nodiscard]] const sched::Platform& platform() const { return platform_; }
  [[nodiscard]] const dataflow::VrdfGraph& graph() const {
    return construction_.graph;
  }
  [[nodiscard]] const IncrementalAnalysis& engine() const {
    return controller_->engine();
  }
  [[nodiscard]] dataflow::ActorId actor_of(const std::string& task) const;
  /// Platform-claused certificate of the current serviced state.
  [[nodiscard]] Certificate certificate() const;

private:
  [[nodiscard]] DeploymentDecision from_inner_(const AdmissionDecision& inner);
  /// Certificate gate on an accepted decision; returns nullopt when the
  /// certificate validates, else the violation description (caller rolls
  /// back).
  [[nodiscard]] std::optional<std::string> certificate_gate_();
  /// Runs `step` under one engine checkpoint and gates an accepted result
  /// on the certificate.  A rejection rolls the engine back and, when
  /// `slot_task` is given and its slot moved, restores that task's slot
  /// and κ entry as they were.
  template <typename Step>
  [[nodiscard]] DeploymentDecision transact_(const std::string* slot_task,
                                             Step&& step);
  /// The slot step of set_slot and of admit with a slot: the wheel check
  /// (a shortfall rejects naming the wheel), then the platform slot, the
  /// task's κ entry and the engine retune.
  [[nodiscard]] DeploymentDecision slot_step_(const std::string& task,
                                              Duration slot);

  taskgraph::TaskGraph tasks_;
  sched::Platform platform_;
  DeploymentOptions options_;
  taskgraph::VrdfConstruction construction_;
  std::vector<DerivedKappa> kappas_;
  // Snapshot must outlive the controller; both live on the heap so the
  // controller (which holds a snapshot view) never sees a moved-from
  // snapshot.
  std::unique_ptr<TopologySnapshot> snapshot_;
  std::unique_ptr<AdmissionController> controller_;
  bool require_certificate_ = false;
};

}  // namespace vrdf::analysis
