// Trace export: CSV for analysis scripts.
//
// One row per token-count change (time, edge, tokens), per monitored
// throughput constraint, or per robustness margin.
#pragma once

#include <string>
#include <vector>

#include "analysis/robustness.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "sim/monitor.hpp"
#include "sim/simulator.hpp"

namespace vrdf::io {

/// "time_s,edge,tokens" rows tracking each edge's token count over time
/// (record_transfers must have been enabled).  Edges are labelled
/// "producer->consumer[/space]".
[[nodiscard]] std::string occupancy_to_csv(
    const sim::Simulator& sim, const dataflow::VrdfGraph& graph,
    const std::vector<dataflow::EdgeId>& edges);

/// "actor,period_s,firings,late_firings,max_lateness_s" rows — one per
/// monitored throughput constraint.
[[nodiscard]] std::string conformance_to_csv(const sim::MonitorReport& report,
                                             const dataflow::VrdfGraph& graph);

/// "actor,rho_s,phi_s,margin_s" rows followed by
/// "buffer,required,installed,headroom" rows — the analysis-derived
/// robustness margins as machine-readable events.
[[nodiscard]] std::string margins_to_csv(
    const analysis::RobustnessReport& report, const dataflow::VrdfGraph& graph);

}  // namespace vrdf::io
