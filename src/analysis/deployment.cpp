#include "analysis/deployment.hpp"

#include <algorithm>
#include <utility>

#include "analysis/buffer_sizing.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {

namespace {

[[nodiscard]] Duration derive_kappa(const sched::ServiceModel& service,
                                    KappaDerivation derivation) {
  if (derivation == KappaDerivation::PolicyExact) {
    return service.response_time();
  }
  return service.as_latency_rate().response_time(service.wcet);
}

[[nodiscard]] ConstraintSet resolve_constraints(
    const taskgraph::TaskGraph& tasks,
    const std::vector<dataflow::ActorId>& actor_of_task,
    const std::vector<DeploymentConstraint>& streams) {
  VRDF_REQUIRE(!streams.empty(),
               "deployment analysis needs at least one stream constraint");
  ConstraintSet constraints;
  constraints.reserve(streams.size());
  for (const DeploymentConstraint& stream : streams) {
    const auto task = tasks.find_task(stream.task);
    VRDF_REQUIRE(task.has_value(), "stream constraint names unknown task '" +
                                       stream.task + "'");
    constraints.push_back(
        ThroughputConstraint{actor_of_task[task->index()], stream.period});
  }
  return constraints;
}

/// The κ entry of `task` in `kappas` (const or not).
template <typename Kappas>
auto& entry_of(Kappas& kappas, const std::string& task) {
  const auto it = std::find_if(
      kappas.begin(), kappas.end(),
      [&](const DerivedKappa& derived) { return derived.task_name == task; });
  VRDF_REQUIRE(it != kappas.end(), "unknown task '" + task + "'");
  return *it;
}

}  // namespace

const char* kappa_derivation_name(KappaDerivation derivation) {
  switch (derivation) {
    case KappaDerivation::PolicyExact: return "policy-exact";
    case KappaDerivation::LatencyRate: return "latency-rate";
  }
  return "unknown";
}

std::vector<DerivedKappa> derive_response_times(
    const taskgraph::TaskGraph& tasks, const sched::Platform& platform,
    KappaDerivation derivation) {
  std::vector<DerivedKappa> out;
  out.reserve(tasks.task_count());
  for (std::size_t i = 0; i < tasks.task_count(); ++i) {
    const taskgraph::TaskId id(
        static_cast<taskgraph::TaskId::underlying_type>(i));
    const std::string& name = tasks.task(id).name;
    VRDF_REQUIRE(platform.is_bound(name),
                 "task '" + name +
                     "' is not bound to any processor; bind every task "
                     "before deployment analysis");
    DerivedKappa derived;
    derived.task = id;
    derived.task_name = name;
    derived.processor = platform.processor_of(name);
    derived.service = platform.service_model(name);
    derived.derivation = derivation;
    derived.kappa = derive_kappa(derived.service, derivation);
    out.push_back(std::move(derived));
  }
  return out;
}

PlatformFact to_platform_fact(const DerivedKappa& derived,
                              dataflow::ActorId actor) {
  const sched::ServiceModel& service = derived.service;
  const bool exact = derived.derivation == KappaDerivation::PolicyExact;
  PlatformFact fact;
  fact.actor = actor;
  fact.wcet = service.wcet;
  fact.kappa = derived.kappa;
  fact.policy = exact ? ServicePolicy::TdmSlotGranular
                      : ServicePolicy::TdmLatencyRate;
  fact.slot = service.slot;
  fact.wheel = service.wheel;
  fact.ceil_term = exact ? service.ceil_term() : 0;
  return fact;
}

void attach_platform_clause(
    Certificate& cert, const std::vector<DerivedKappa>& kappas,
    const std::vector<dataflow::ActorId>& actor_of_task) {
  cert.platform.clear();
  cert.platform.reserve(kappas.size());
  for (const DerivedKappa& derived : kappas) {
    cert.platform.push_back(
        to_platform_fact(derived, actor_of_task[derived.task.index()]));
  }
}

DeploymentResult analyze_deployment(
    const taskgraph::TaskGraph& tasks, const sched::Platform& platform,
    const std::vector<DeploymentConstraint>& streams,
    const DeploymentOptions& options) {
  DeploymentResult result;
  result.kappas = derive_response_times(tasks, platform, options.derivation);

  std::vector<Duration> response_times;
  response_times.reserve(result.kappas.size());
  for (const DerivedKappa& derived : result.kappas) {
    response_times.push_back(derived.kappa);
  }
  result.construction = tasks.to_vrdf(response_times);
  result.constraints =
      resolve_constraints(tasks, result.construction.actor_of_task, streams);

  result.analysis = compute_buffer_capacities(
      result.construction.graph, result.constraints, options.analysis);
  result.admissible = result.analysis.admissible;
  result.diagnostics = result.analysis.diagnostics;

  if (result.admissible && options.certify) {
    Certificate cert =
        make_certificate(result.construction.graph, result.analysis);
    attach_platform_clause(cert, result.kappas,
                           result.construction.actor_of_task);
    result.certificate_check =
        check_certificate(result.construction.graph, cert);
    result.certificate = std::move(cert);
  }
  return result;
}

// ------------------------------------------------------------ controller

DeploymentController::DeploymentController(
    const taskgraph::TaskGraph& tasks, sched::Platform platform,
    std::vector<DeploymentConstraint> streams, DeploymentOptions options)
    : tasks_(tasks), platform_(std::move(platform)),
      options_(std::move(options)) {
  kappas_ = derive_response_times(tasks_, platform_, options_.derivation);
  std::vector<Duration> response_times;
  response_times.reserve(kappas_.size());
  for (const DerivedKappa& derived : kappas_) {
    response_times.push_back(derived.kappa);
  }
  construction_ = tasks_.to_vrdf(response_times);
  snapshot_ = std::make_unique<TopologySnapshot>(construction_.graph);
  controller_ = std::make_unique<AdmissionController>(
      *snapshot_,
      resolve_constraints(tasks_, construction_.actor_of_task, streams),
      options_.analysis);
}

dataflow::ActorId DeploymentController::actor_of(
    const std::string& task) const {
  const auto id = tasks_.find_task(task);
  VRDF_REQUIRE(id.has_value(), "unknown task '" + task + "'");
  return construction_.actor_of_task[id->index()];
}

Certificate DeploymentController::certificate() const {
  Certificate cert = make_certificate(construction_.graph,
                                      controller_->analysis(),
                                      controller_->engine().overlay());
  attach_platform_clause(cert, kappas_, construction_.actor_of_task);
  return cert;
}

void DeploymentController::set_require_certificate(bool require) {
  require_certificate_ = require;
}

DeploymentDecision DeploymentController::from_inner_(
    const AdmissionDecision& inner) {
  DeploymentDecision out;
  out.accepted = inner.accepted;
  out.binding_constraint = inner.binding_constraint;
  out.diagnostics = inner.diagnostics;
  out.capacity_delta = inner.capacity_delta;
  out.total_capacity = inner.total_capacity;
  return out;
}

std::optional<std::string> DeploymentController::certificate_gate_() {
  if (!require_certificate_) {
    return std::nullopt;
  }
  // The controller's retuned ρ live in the engine overlay, not the graph.
  CheckerOptions checker_options;
  checker_options.bind_parameters_to_graph = false;
  const CertificateCheck check =
      check_certificate(construction_.graph, certificate(), checker_options);
  if (check.ok) {
    return std::nullopt;
  }
  return "certificate: " + check.first_violation();
}

template <typename Step>
DeploymentDecision DeploymentController::transact_(const std::string* slot_task,
                                                   Step&& step) {
  std::optional<DerivedKappa> saved;
  if (slot_task != nullptr) {
    saved = entry_of(kappas_, *slot_task);
  }
  const auto roll_back = [&] {
    controller_->rollback();
    if (saved.has_value() &&
        platform_.service_model(saved->task_name).slot != saved->service.slot) {
      platform_.set_slot(saved->task_name, saved->service.slot);
      entry_of(kappas_, saved->task_name) = *saved;
    }
  };
  controller_->checkpoint();
  DeploymentDecision out;
  try {
    out = step();
    if (out.accepted) {
      if (std::optional<std::string> violation = certificate_gate_()) {
        out = DeploymentDecision{};
        out.binding_constraint = *violation;
        out.diagnostics.push_back(*violation);
      }
    }
  } catch (...) {
    roll_back();
    throw;
  }
  if (out.accepted) {
    controller_->commit();
  } else {
    roll_back();
  }
  out.total_capacity = analysis().total_capacity;
  return out;
}

DeploymentDecision DeploymentController::slot_step_(const std::string& task,
                                                    Duration slot) {
  VRDF_REQUIRE(slot.is_positive(),
               "slot budget of task '" + task + "' must be positive");
  const sched::ServiceModel before = platform_.service_model(task);
  const std::size_t proc = platform_.processor_of(task);
  const Duration available = platform_.slack(proc) + before.slot;

  // Platform feasibility first: the wheel must hold the new slot.  A
  // shortfall is a *decision*, not an error — the wheel was binding.
  if (available < slot) {
    DeploymentDecision out;
    out.wheel_binding = true;
    out.binding_constraint =
        "TDM wheel of processor '" + platform_.processor_name(proc) +
        "': slot " + slot.seconds().to_string() + " s exceeds the " +
        available.seconds().to_string() + " s available to task '" + task +
        "'";
    out.diagnostics.push_back(out.binding_constraint);
    return out;
  }

  platform_.set_slot(task, slot);
  DerivedKappa& entry = entry_of(kappas_, task);
  entry.service = platform_.service_model(task);
  entry.kappa = derive_kappa(entry.service, options_.derivation);
  return from_inner_(controller_->retune(actor_of(task), entry.kappa));
}

DeploymentDecision DeploymentController::set_slot(const std::string& task,
                                                  Duration slot) {
  return transact_(&task, [&] { return slot_step_(task, slot); });
}

DeploymentDecision DeploymentController::admit(const std::string& task,
                                               Duration period,
                                               std::optional<Duration> slot) {
  const dataflow::ActorId actor = actor_of(task);
  return transact_(slot.has_value() ? &task : nullptr, [&] {
    if (slot.has_value()) {
      DeploymentDecision granted = slot_step_(task, *slot);
      if (!granted.accepted) {
        return granted;
      }
    }
    return from_inner_(controller_->admit(ThroughputConstraint{actor, period}));
  });
}

DeploymentDecision DeploymentController::remove(const std::string& task) {
  const dataflow::ActorId actor = actor_of(task);
  return transact_(nullptr,
                   [&] { return from_inner_(controller_->remove(actor)); });
}

}  // namespace vrdf::analysis
