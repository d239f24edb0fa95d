#include "io/dot.hpp"

#include <sstream>
#include <unordered_map>

#include "util/error.hpp"

namespace vrdf::io {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

/// Shared emitter for every VrdfGraph overload; the annotation inputs are
/// empty/null for the plain rendering.  Every constrained actor renders
/// double-bordered with its own period.
std::string render_vrdf_dot(const dataflow::VrdfGraph& graph,
                            const analysis::ConstraintSet& constraints,
                            const analysis::GraphAnalysis* analysis) {
  std::unordered_map<dataflow::EdgeId, std::int64_t> capacity_of_space;
  if (analysis != nullptr) {
    for (const analysis::PairAnalysis& pair : analysis->pairs) {
      capacity_of_space.emplace(pair.buffer.space, pair.capacity);
    }
  }
  // Back-edges render dashed and token-annotated so feedback loops are
  // visually distinct from the forward pipeline.  The classification is
  // the buffer view's own (single source of truth); graphs without a
  // view (unpaired edges, token-free cycles) render without feedback
  // annotations.
  std::unordered_map<dataflow::EdgeId, bool> data_edge_feedback;
  if (const auto view = graph.buffer_view(); view.has_value()) {
    for (std::size_t pos = 0; pos < view->buffers.size(); ++pos) {
      data_edge_feedback.emplace(view->buffers[pos].data,
                                 view->is_feedback[pos]);
    }
  }
  std::ostringstream os;
  os << "digraph vrdf {\n  rankdir=LR;\n  node [shape=box];\n";
  for (const dataflow::ActorId a : graph.actors()) {
    const dataflow::Actor& actor = graph.actor(a);
    os << "  n" << a.value() << " [label=\"" << escape(actor.name)
       << "\\nrho=" << actor.response_time.seconds().to_string() << " s";
    const analysis::ThroughputConstraint* pinned = nullptr;
    for (const analysis::ThroughputConstraint& c : constraints) {
      if (c.actor == a) {
        pinned = &c;
        break;
      }
    }
    if (pinned != nullptr) {
      os << "\\ntau=" << pinned->period.seconds().to_string()
         << " s\" peripheries=2];\n";
    } else {
      os << "\"];\n";
    }
  }
  for (const dataflow::EdgeId e : graph.edges()) {
    const dataflow::Edge& edge = graph.edge(e);
    const bool is_space_edge =
        edge.paired.is_valid() && edge.paired.value() < e.value();
    os << "  n" << edge.source.value() << " -> n" << edge.target.value()
       << " [label=\"";
    if (is_space_edge) {
      os << "space d=" << edge.initial_tokens;
      const auto it = capacity_of_space.find(e);
      if (it != capacity_of_space.end()) {
        os << " zeta=" << it->second;
        // ζ is the *total* capacity: free containers here plus the ones
        // the paired data edge's initial tokens occupy.
        const std::int64_t installed =
            edge.initial_tokens + graph.edge(edge.paired).initial_tokens;
        if (it->second != installed) {
          os << " (!)";
        }
      }
      os << "\" style=dashed";
    } else {
      os << escape(edge.production.to_string()) << " / "
         << escape(edge.consumption.to_string());
      if (edge.initial_tokens != 0) {
        os << " d=" << edge.initial_tokens;
      }
      const auto feedback = data_edge_feedback.find(e);
      if (feedback != data_edge_feedback.end() && feedback->second) {
        os << " [feedback]\" style=dashed constraint=false";
      } else {
        os << '"';
      }
    }
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace

std::string to_dot(const dataflow::VrdfGraph& graph) {
  return render_vrdf_dot(graph, {}, nullptr);
}

std::string to_dot(const dataflow::VrdfGraph& graph,
                   const analysis::ConstraintSet& constraints,
                   const analysis::GraphAnalysis& analysis) {
  VRDF_REQUIRE(analysis.admissible,
               "cannot render an inadmissible analysis");
  return render_vrdf_dot(graph, constraints, &analysis);
}

std::string to_dot(const taskgraph::TaskGraph& graph) {
  std::ostringstream os;
  os << "digraph taskgraph {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::size_t i = 0; i < graph.task_count(); ++i) {
    const auto id =
        taskgraph::TaskId(static_cast<taskgraph::TaskId::underlying_type>(i));
    const taskgraph::Task& task = graph.task(id);
    os << "  n" << i << " [label=\"" << escape(task.name) << "\\nkappa="
       << task.worst_case_response_time.seconds().to_string() << " s\"];\n";
  }
  for (std::size_t i = 0; i < graph.buffer_count(); ++i) {
    const auto id = taskgraph::BufferId(
        static_cast<taskgraph::BufferId::underlying_type>(i));
    const taskgraph::Buffer& buffer = graph.buffer(id);
    os << "  n" << buffer.producer.value() << " -> n" << buffer.consumer.value()
       << " [label=\"" << escape(buffer.production.to_string()) << " / "
       << escape(buffer.consumption.to_string());
    if (buffer.capacity.has_value()) {
      os << " zeta=" << *buffer.capacity;
    }
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace vrdf::io
