#include "io/trace.hpp"

#include <sstream>

namespace vrdf::io {

namespace {

std::string edge_label(const dataflow::VrdfGraph& graph, dataflow::EdgeId e) {
  const dataflow::Edge& edge = graph.edge(e);
  // A space edge is the half of a buffer pair that was added second; label
  // it with the *buffer's* data direction so both halves of one buffer
  // line up in the trace.
  if (edge.paired.is_valid() && edge.paired.value() < e.value()) {
    const dataflow::Edge& data = graph.edge(edge.paired);
    return graph.actor(data.source).name + "->" +
           graph.actor(data.target).name + "/space";
  }
  return graph.actor(edge.source).name + "->" + graph.actor(edge.target).name;
}

/// Merged (time, token-count) steps for one edge.
std::vector<std::pair<TimePoint, std::int64_t>> occupancy_steps(
    const sim::Simulator& sim, const dataflow::VrdfGraph& graph,
    dataflow::EdgeId e) {
  const auto& productions = sim.production_events(e);
  const auto& consumptions = sim.consumption_events(e);
  std::vector<std::pair<TimePoint, std::int64_t>> steps;
  std::int64_t tokens = graph.edge(e).initial_tokens;
  steps.emplace_back(TimePoint(), tokens);
  std::size_t pi = 0;
  std::size_t ci = 0;
  while (pi < productions.size() || ci < consumptions.size()) {
    const bool take_production =
        ci >= consumptions.size() ||
        (pi < productions.size() &&
         productions[pi].time <= consumptions[ci].time);
    TimePoint t;
    if (take_production) {
      t = productions[pi].time;
      tokens += productions[pi].count;
      ++pi;
    } else {
      t = consumptions[ci].time;
      tokens -= consumptions[ci].count;
      ++ci;
    }
    if (!steps.empty() && steps.back().first == t) {
      steps.back().second = tokens;  // coalesce simultaneous changes
    } else {
      steps.emplace_back(t, tokens);
    }
  }
  return steps;
}

}  // namespace

std::string occupancy_to_csv(const sim::Simulator& sim,
                             const dataflow::VrdfGraph& graph,
                             const std::vector<dataflow::EdgeId>& edges) {
  std::ostringstream os;
  os << "time_s,edge,tokens\n";
  for (const dataflow::EdgeId e : edges) {
    const std::string label = edge_label(graph, e);
    for (const auto& [time, tokens] : occupancy_steps(sim, graph, e)) {
      os << time.seconds().to_string() << ',' << label << ',' << tokens << '\n';
    }
  }
  return os.str();
}

std::string conformance_to_csv(const sim::MonitorReport& report,
                               const dataflow::VrdfGraph& graph) {
  std::ostringstream os;
  os << "actor,period_s,firings,late_firings,max_lateness_s\n";
  for (const sim::ConstraintConformance& c : report.constraints) {
    os << graph.actor(c.actor).name << ',' << c.period.seconds().to_string()
       << ',' << c.firings_observed << ',' << c.late_firings << ','
       << c.max_lateness.seconds().to_string() << '\n';
  }
  return os.str();
}

std::string margins_to_csv(const analysis::RobustnessReport& report,
                           const dataflow::VrdfGraph& graph) {
  std::ostringstream os;
  os << "actor,rho_s,phi_s,margin_s\n";
  for (const analysis::ActorMargin& m : report.actors) {
    os << graph.actor(m.actor).name << ','
       << m.response_time.seconds().to_string() << ','
       << m.max_response_time.seconds().to_string() << ','
       << m.margin.seconds().to_string() << '\n';
  }
  os << "buffer,required,installed,headroom\n";
  for (const analysis::BufferHeadroom& b : report.buffers) {
    os << graph.actor(b.producer).name << "->" << graph.actor(b.consumer).name
       << ',' << b.required << ',' << b.installed << ',' << b.headroom << '\n';
  }
  return os.str();
}

}  // namespace vrdf::io
