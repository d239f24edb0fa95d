#include "io/report.hpp"

#include <sstream>

#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/deadlock.hpp"
#include "analysis/period.hpp"
#include "analysis/robustness.hpp"
#include "io/table.hpp"
#include "util/checked_int.hpp"
#include "util/error.hpp"

namespace vrdf::io {

namespace {

/// A period's frequency in Hz, the readable aside the reports print next
/// to the exact period.  IEEE conversion and division round the same way
/// everywhere, and the stream prints six significant digits, so the text
/// depends on the Rational alone.
std::string hertz(const Duration& period) {
  std::ostringstream os;
  os << period.seconds().reciprocal().to_double();  // det-lint: ok(Hz aside)
  return os.str();
}

std::string render_report(const dataflow::VrdfGraph& graph,
                          const analysis::ConstraintSet& constraints,
                          const analysis::GraphAnalysis& analysis) {
  VRDF_REQUIRE(analysis.admissible, "cannot report an inadmissible analysis");
  VRDF_REQUIRE(!constraints.empty(), "report needs at least one constraint");
  const bool multi = constraints.size() > 1;
  std::ostringstream os;

  std::size_t feedback_count = 0;
  for (const analysis::PairAnalysis& pair : analysis.pairs) {
    feedback_count += pair.is_feedback ? 1 : 0;
  }
  const char* const shape_word =
      analysis.is_chain ? "chain"
                        : (analysis.is_cyclic ? "cyclic graph"
                                              : "fork-join graph");
  // An interior pin anchors both a sink-kind (upstream) and a source-kind
  // (downstream) region; an end anchors exactly one.
  const auto is_interior = [&](std::size_t c) {
    return c < analysis.constraint_is_sink_kind.size() &&
           analysis.constraint_is_sink_kind[c] &&
           analysis.constraint_is_source_kind[c];
  };
  os << "# Buffer-capacity analysis report\n\n";
  if (!multi) {
    const analysis::ThroughputConstraint& constraint = constraints.front();
    os << "Throughput constraint: actor `"
       << graph.actor(constraint.actor).name << "` strictly periodic, period "
       << constraint.period.seconds().to_string() << " s ("
       << hertz(constraint.period) << " Hz), "
       << (is_interior(0)
               ? "interior-pinned"
               : (analysis.side == analysis::ConstraintSide::Sink
                      ? "sink-constrained"
                      : "source-constrained"))
       << " " << shape_word << " of "
       << analysis.actors_in_order.size() << " tasks";
  } else {
    os << "Throughput constraints (" << constraints.size() << "): ";
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      if (c != 0) {
        os << "; ";
      }
      os << "actor `" << graph.actor(constraints[c].actor).name
         << "` strictly periodic, period "
         << constraints[c].period.seconds().to_string() << " s ("
         << hertz(constraints[c].period) << " Hz"
         << (is_interior(c) ? ", interior" : "") << ")";
    }
    os << " — multi-constrained " << shape_word << " of "
       << analysis.actors_in_order.size() << " tasks";
  }
  if (analysis.is_cyclic) {
    os << " (" << feedback_count << " feedback back-edge"
       << (feedback_count == 1 ? "" : "s")
       << "; capacities cover the circulating initial tokens)";
  }
  os << ".\n\n";

  os << "## Pacing budget (max admissible response times)\n\n";
  Table pacing({"task", "rho (s)", "phi (s)", "slack"});
  for (std::size_t i = 0; i < analysis.actors_in_order.size(); ++i) {
    const dataflow::Actor& actor = graph.actor(analysis.actors_in_order[i]);
    const Duration slack = analysis.pacing[i] - actor.response_time;
    pacing.add_row({actor.name, actor.response_time.seconds().to_string(),
                    analysis.pacing[i].seconds().to_string(),
                    slack.is_zero() ? "tight" : slack.seconds().to_string()});
  }
  os << pacing.to_string() << '\n';

  os << "## Buffer capacities\n\n";
  Table caps({"buffer", "pi / gamma", "capacity", "installed",
              "raw bound x", "deadlock-free min"});
  bool mismatch = false;
  // The graph-wide container floor no sizing may dip under: the deadlock
  // minimum of every buffer plus the initial tokens it holds (see
  // min_deadlock_free_capacities).
  std::int64_t deadlock_floor = 0;
  for (const analysis::PairAnalysis& pair : analysis.pairs) {
    const dataflow::Edge& data = graph.edge(pair.buffer.data);
    const std::int64_t installed = graph.buffer_capacity(pair.buffer);
    mismatch = mismatch || installed != pair.capacity;
    std::string name = graph.actor(pair.producer).name + "->" +
                       graph.actor(pair.consumer).name;
    if (pair.is_feedback) {
      name += " (feedback, delta=" + std::to_string(pair.initial_tokens) + ")";
    }
    // Mark the pairs whose side differs from the report's headline mode:
    // source-determined pairs of a multi-constraint set, and the
    // downstream region of an interior pin (whose headline side is Sink).
    if (pair.determined_by == analysis::ConstraintSide::Source &&
        (multi || analysis.side == analysis::ConstraintSide::Sink)) {
      name += " (producer-paced)";
    }
    const std::int64_t deadlock_min = analysis::min_deadlock_free_pair_capacity(
        data.production, data.consumption);
    deadlock_floor = checked_add(
        deadlock_floor, checked_add(deadlock_min, data.initial_tokens));
    caps.add_row(
        {std::move(name),
         data.production.to_string() + " / " + data.consumption.to_string(),
         std::to_string(pair.capacity),
         std::to_string(installed) + (installed == pair.capacity ? "" : " (!)"),
         pair.raw_tokens.to_string(), std::to_string(deadlock_min)});
  }
  os << caps.to_string() << '\n';
  os << "Total: " << analysis.total_capacity << " containers";
  if (mismatch) {
    os << " — WARNING: installed capacities differ from the analysis";
  }
  os << ".\n";
  os << "Deadlock-free floor: " << deadlock_floor << " containers.\n\n";

  const analysis::MinPeriodResult headroom = analysis::min_admissible_period(
      graph, constraints, constraints.front().actor);
  if (headroom.ok) {
    os << "## Rate headroom\n\n"
       << "Fastest admissible period ";
    if (multi) {
      os << "of `" << graph.actor(constraints.front().actor).name
         << "` (other constraints held fixed) ";
    }
    os << "with the installed capacities: "
       << headroom.min_period.seconds().to_string() << " s (binding: "
       << headroom.binding_constraint << "; exact feasibility infimum "
       << headroom.infimum_period.seconds().to_string() << " s, "
       << (headroom.infimum_attained ? "attained" : "open") << ").\n";
  }

  const analysis::RobustnessReport robustness =
      analysis::robustness_margins(graph, constraints);
  if (robustness.ok) {
    os << "\n## Robustness margins\n\n"
       << "Largest response-time overrun each task can sustain (installed"
          " capacities and all other tasks held fixed):\n\n";
    Table margins({"task", "rho (s)", "phi (s)", "tolerable overrun (s)"});
    for (const analysis::ActorMargin& m : robustness.actors) {
      margins.add_row({graph.actor(m.actor).name,
                       m.response_time.seconds().to_string(),
                       m.max_response_time.seconds().to_string(),
                       m.margin.is_zero() ? "none"
                                          : m.margin.seconds().to_string()});
    }
    os << margins.to_string() << '\n';
    Table buffers({"buffer", "required", "installed", "headroom"});
    for (const analysis::BufferHeadroom& b : robustness.buffers) {
      buffers.add_row({graph.actor(b.producer).name + "->" +
                           graph.actor(b.consumer).name,
                       std::to_string(b.required), std::to_string(b.installed),
                       std::to_string(b.headroom)});
    }
    os << buffers.to_string() << '\n';
    os << "Jointly, every task may consume "
       << robustness.joint_safe_fraction.to_string()
       << " of its individual slack phi - rho at once.\n";
  }

  // Translation validation: transcribe the analysis into its capacity
  // certificate and re-validate every clause with the independent
  // checker.  Analyses from pre-certificate result shapes (no alignment
  // leads) simply skip the section.
  if (analysis.leads.size() == analysis.actors_in_order.size() &&
      !analysis.actors_in_order.empty()) {
    const analysis::Certificate cert =
        analysis::make_certificate(graph, analysis);
    const analysis::CertificateCheck check =
        analysis::check_certificate(graph, cert);
    os << "\n## Certificate\n\n"
       << "Proof-carrying facts: " << cert.actors.size()
       << " actor witnesses (phi, omega, rho), " << cert.pairs.size()
       << " pair inequalities, " << cert.constraints.size()
       << " constraint anchor" << (cert.constraints.size() == 1 ? "" : "s")
       << ".\n";
    if (check.ok) {
      os << "Independent checker: all " << check.clauses_checked
         << " clauses hold (phi/omega/zeta/delta/coverage) — the "
            "capacities above are certified, not trusted.\n";
    } else {
      os << "Independent checker: " << check.violations.size()
         << " of " << check.clauses_checked
         << " clauses VIOLATED — the analysis and the checker disagree:\n";
      for (const analysis::ClauseViolation& violation : check.violations) {
        os << "  - " << analysis::describe(violation) << "\n";
      }
    }
  }
  return os.str();
}

}  // namespace

std::string analysis_report(const dataflow::VrdfGraph& graph,
                            const analysis::ConstraintSet& constraints,
                            const analysis::GraphAnalysis& analysis) {
  return render_report(graph, constraints, analysis);
}

std::string admission_summary(const dataflow::VrdfGraph& graph,
                              const analysis::AdmissionController& controller) {
  const analysis::GraphAnalysis& analysis = controller.analysis();
  const analysis::InvalidationStats& stats = controller.engine().stats();
  std::ostringstream os;
  os << "# Admission-control service summary\n\n";
  os << "Serviced streams (" << controller.streams().size() << "):\n";
  for (const analysis::ThroughputConstraint& c : controller.streams()) {
    os << "  - actor `" << graph.actor(c.actor).name << "`, period "
       << c.period.seconds().to_string() << " s ("
       << hertz(c.period) << " Hz)\n";
  }
  os << "\nTotal buffer capacity: " << analysis.total_capacity
     << " containers across " << analysis.pairs.size() << " pairs\n";
  os << "\nIncremental engine counters:\n";
  os << "  - queries served: " << stats.queries << "\n";
  os << "  - pacing recomputes: " << stats.pacing_recomputes
     << ", pacing cache hits: " << stats.pacing_cache_hits << "\n";
  os << "  - leads recomputed: " << stats.leads_recomputed
     << ", reused: " << stats.leads_reused << "\n";
  os << "  - pairs recomputed: " << stats.pairs_recomputed
     << ", reused: " << stats.pairs_reused << "\n";
  os << "  - last invalidation cone: " << stats.last_cone_actors
     << " actors, " << stats.last_cone_pairs << " pairs\n";
  return os.str();
}

std::string deployment_report(const taskgraph::TaskGraph& tasks,
                              const sched::Platform& platform,
                              const analysis::DeploymentResult& result) {
  std::ostringstream os;
  os << "# Shared-platform deployment report\n\n";

  os << "## Platform\n\n";
  Table procs({"processor", "arbiter", "wheel (s)", "utilization", "slack (s)"});
  for (std::size_t p = 0; p < platform.processor_count(); ++p) {
    procs.add_row({platform.processor_name(p),
                   "tdm",
                   platform.wheel_period(p).seconds().to_string(),
                   platform.utilization(p).to_string(),
                   platform.slack(p).seconds().to_string()});
  }
  os << procs.to_string() << '\n';

  os << "## Derived response times\n\n";
  Table kappas({"task", "processor", "policy", "wcet (s)", "allocation",
                "derivation", "kappa (s)"});
  for (const analysis::DerivedKappa& derived : result.kappas) {
    const sched::ServiceModel& service = derived.service;
    kappas.add_row({derived.task_name,
                    platform.processor_name(derived.processor), "tdm",
                    service.wcet.seconds().to_string(),
                    service.slot.seconds().to_string() + " / " +
                        service.wheel.seconds().to_string(),
                    analysis::kappa_derivation_name(derived.derivation),
                    derived.kappa.seconds().to_string()});
  }
  os << kappas.to_string() << '\n';
  os << "Task graph: " << tasks.task_count() << " tasks, "
     << tasks.buffer_count() << " buffers.\n\n";

  if (!result.admissible) {
    os << "## Verdict\n\nDeployment INADMISSIBLE:\n";
    for (const std::string& diagnostic : result.diagnostics) {
      os << "  - " << diagnostic << "\n";
    }
    return os.str();
  }

  if (result.certificate_check.has_value()) {
    os << "## Platform certificate\n\n";
    if (result.certificate_check->ok) {
      os << "Independent checker: all "
         << result.certificate_check->clauses_checked
         << " clauses hold, including the kappa clauses re-deriving each "
            "task's bound from its arbiter terms.\n\n";
    } else {
      os << "Independent checker: "
         << result.certificate_check->violations.size() << " of "
         << result.certificate_check->clauses_checked
         << " clauses VIOLATED:\n";
      for (const analysis::ClauseViolation& violation :
           result.certificate_check->violations) {
        os << "  - " << analysis::describe(violation) << "\n";
      }
      os << '\n';
    }
  }

  // Render against a copy with the computed capacities installed — the
  // deployment result itself leaves ζ unset on the constructed graph.
  dataflow::VrdfGraph sized = result.construction.graph;
  analysis::apply_capacities(sized, result.analysis);
  os << render_report(sized, result.constraints, result.analysis);
  return os.str();
}

}  // namespace vrdf::io
