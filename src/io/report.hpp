// Markdown analysis report: everything the library can say about a sized
// graph (chain or fork-join) in one human-readable document (model
// summary, pacing budget, capacity table with deadlock minima, rate
// headroom).  Used by `vrdf_sizer --report=FILE` and handy as an artefact
// for design reviews.
#pragma once

#include <string>

#include "analysis/admission.hpp"
#include "analysis/deployment.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "sched/platform.hpp"
#include "taskgraph/task_graph.hpp"

namespace vrdf::io {

/// Renders a full report for an *admissible* analysis of `graph`.
/// `graph` should already carry the computed capacities (the report reads
/// δ(space) as the installed value and flags mismatches with the
/// analysis).  The header lists every constraint, the buffer table marks
/// producer-paced pairs, and the rate-headroom section scales the first
/// constraint with the others held fixed.  Throws ContractError when the
/// analysis is inadmissible.
[[nodiscard]] std::string analysis_report(
    const dataflow::VrdfGraph& graph,
    const analysis::ConstraintSet& constraints,
    const analysis::GraphAnalysis& analysis);

/// One-page service summary of a live admission controller: the serviced
/// streams with their periods, the current total capacity, and the
/// incremental engine's cache counters (queries served, pacing
/// recomputes vs cache hits, leads/pairs recomputed vs reused).  Used by
/// the admission-loop example and handy for operational dashboards.
[[nodiscard]] std::string admission_summary(
    const dataflow::VrdfGraph& graph,
    const analysis::AdmissionController& controller);

/// Deployment report: the platform table (per-processor arbiter policy,
/// wheel, utilization, slack), the derived-κ table (each task's binding
/// terms and the response-time bound the analysis ran with), then — for
/// admissible deployments — the full analysis report of the constructed
/// graph.  Inadmissible deployments render the diagnostics instead.
[[nodiscard]] std::string deployment_report(
    const taskgraph::TaskGraph& tasks, const sched::Platform& platform,
    const analysis::DeploymentResult& result);

}  // namespace vrdf::io
