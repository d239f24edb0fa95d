#include "dataflow/validation.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace vrdf::dataflow {

std::string ValidationReport::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i != 0) {
      os << "; ";
    }
    os << errors[i];
  }
  return os.str();
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// The data edges as one compact incidence structure: reduced edge i is
/// buffer i (its data edge), followed by the bare (unpaired) edges, which
/// only count towards connectivity.  Each node lists every incident edge
/// once (self-loops included once), in edge order, so a directed walk that
/// keeps the edges with src[e] == node visits out-edges in buffer order.
struct DataGraph {
  std::vector<std::size_t> src;
  std::vector<std::size_t> dst;
  std::vector<std::size_t> offset;  // node n: incident[offset[n], offset[n+1])
  std::vector<std::size_t> incident;

  void build(std::size_t nodes) {
    offset.assign(nodes + 1, 0);
    for (std::size_t e = 0; e < src.size(); ++e) {
      ++offset[src[e] + 1];
      if (dst[e] != src[e]) {
        ++offset[dst[e] + 1];
      }
    }
    for (std::size_t n = 0; n < nodes; ++n) {
      offset[n + 1] += offset[n];
    }
    incident.resize(offset[nodes]);
    std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
    for (std::size_t e = 0; e < src.size(); ++e) {
      incident[fill[src[e]]++] = e;
      if (dst[e] != src[e]) {
        incident[fill[dst[e]]++] = e;
      }
    }
  }
};

/// DFS frame shared by the walks below: a node and the next position in
/// its incidence list.
struct Frame {
  std::size_t node;
  std::size_t next;
};

/// Everything the validator and the buffer view derive from the
/// data-edge topology, computed in one pass.
struct Pass {
  /// Buffer-network errors (connectivity, pairing, strong consistency) and
  /// the view, present when every edge is paired and no token-free cycle
  /// exists.
  ValidationReport report;
  std::vector<BufferEdges> buffers;
  /// Per buffer index: the data edge lies on a directed cycle.  Empty when
  /// an edge is unpaired.
  std::vector<char> on_cycle;
  /// A directed cycle of token-free data edges, empty when there is none.
  std::vector<ActorId> token_free_cycle;
};

ActorId actor_id(std::size_t index) {
  return ActorId(static_cast<ActorId::underlying_type>(index));
}

Pass structural_pass(const VrdfGraph& graph) {
  Pass pass;
  ValidationReport& report = pass.report;
  const std::size_t n = graph.actor_count();
  if (n == 0) {
    report.errors.push_back("graph has no actors");
  }
  pass.buffers = graph.buffers();
  const std::vector<BufferEdges>& buffers = pass.buffers;
  const std::size_t nb = buffers.size();
  DataGraph dg;
  const auto add = [&dg](const Edge& edge) {
    dg.src.push_back(edge.source.index());
    dg.dst.push_back(edge.target.index());
  };
  for (const BufferEdges& b : buffers) {
    add(graph.edge(b.data));
  }
  std::vector<EdgeId> bare;
  for (const EdgeId e : graph.edges()) {
    if (!graph.edge(e).paired.is_valid()) {
      bare.push_back(e);
      add(graph.edge(e));
    }
  }
  dg.build(n);
  const auto out_edge = [&dg](std::size_t node, std::size_t pos) {
    const std::size_t e = dg.incident[pos];
    return dg.src[e] == node ? e : kNone;
  };

  // Undirected lowlink DFS: bridges, plus the number of DFS roots (one
  // exactly when the graph is non-empty and weakly connected).  The parent
  // *edge instance* is skipped, not the parent node, so parallel edges
  // form a cycle; self-loops are never bridges.
  std::vector<std::size_t> disc(n, kNone);
  std::vector<std::size_t> low(n, 0);
  std::vector<std::size_t> parent_edge(n, kNone);
  std::vector<char> bridge(dg.src.size(), 0);
  std::vector<Frame> frames;
  std::size_t timer = 0;
  std::size_t roots = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (disc[root] != kNone) {
      continue;
    }
    ++roots;
    disc[root] = low[root] = timer++;
    frames.push_back({root, dg.offset[root]});
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < dg.offset[f.node + 1]) {
        const std::size_t e = dg.incident[f.next++];
        if (e == parent_edge[f.node] || dg.src[e] == dg.dst[e]) {
          continue;
        }
        const std::size_t m = dg.src[e] == f.node ? dg.dst[e] : dg.src[e];
        if (disc[m] == kNone) {
          disc[m] = low[m] = timer++;
          parent_edge[m] = e;
          frames.push_back({m, dg.offset[m]});
        } else {
          low[f.node] = std::min(low[f.node], disc[m]);
        }
        continue;
      }
      const std::size_t done = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        const std::size_t parent = frames.back().node;
        low[parent] = std::min(low[parent], low[done]);
        if (low[done] > disc[parent]) {
          bridge[parent_edge[done]] = 1;
        }
      }
    }
  }
  if (roots > 1) {
    report.errors.push_back("graph is not weakly connected");
  }
  for (const EdgeId e : bare) {
    const Edge& edge = graph.edge(e);
    std::ostringstream os;
    os << "edge " << graph.actor(edge.source).name << " -> "
       << graph.actor(edge.target).name << " is not part of a buffer pair";
    report.errors.push_back(os.str());
  }
  for (const BufferEdges& b : buffers) {
    const Edge& data = graph.edge(b.data);
    const Edge& space = graph.edge(b.space);
    if (!(data.production == space.consumption) ||
        !(data.consumption == space.production)) {
      std::ostringstream os;
      os << "buffer " << graph.actor(data.source).name << " -> "
         << graph.actor(data.target).name
         << " violates strong consistency: data(pi=" << data.production
         << ", gamma=" << data.consumption << ") vs space(pi="
         << space.production << ", gamma=" << space.consumption << ')';
      report.errors.push_back(os.str());
    }
  }
  if (!bare.empty()) {
    return pass;
  }

  // Tarjan SCC: an edge lies on a directed cycle exactly when it is a
  // self-loop or its endpoints share a strongly connected component.
  std::vector<std::size_t> index(n, kNone);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<std::size_t> component(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;
  std::size_t components = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) {
      continue;
    }
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    frames.push_back({root, dg.offset[root]});
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < dg.offset[f.node + 1]) {
        const std::size_t e = out_edge(f.node, f.next++);
        if (e == kNone) {
          continue;
        }
        const std::size_t m = dg.dst[e];
        if (index[m] == kNone) {
          index[m] = lowlink[m] = next_index++;
          stack.push_back(m);
          on_stack[m] = 1;
          frames.push_back({m, dg.offset[m]});
        } else if (on_stack[m] != 0) {
          lowlink[f.node] = std::min(lowlink[f.node], index[m]);
        }
        continue;
      }
      const std::size_t v = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        const std::size_t parent = frames.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
      if (lowlink[v] == index[v]) {
        std::size_t w = kNone;
        while (w != v) {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          component[w] = components;
        }
        ++components;
      }
    }
  }

  // Feedback classification: a *minimal* set of tokened on-cycle data
  // edges whose removal leaves the skeleton acyclic.  Token-free edges
  // always belong to the skeleton — a cycle whose edges are all
  // token-free keeps it cyclic and is rejected (deadlock at t=0).
  // Tokened on-cycle edges (the candidates) are then re-admitted greedily
  // in buffer order: an edge stays in the skeleton unless it would close
  // a directed cycle, in which case it is the cycle's back-edge.  (A
  // cycle carrying several tokened edges thus breaks at the last-inserted
  // one — deterministic — and the others keep ordering the skeleton
  // instead of orphaning their endpoints.)  A closing path stays inside
  // the edge's strongly connected component.
  pass.on_cycle.resize(nb);
  std::vector<char> candidate(nb, 0);
  std::vector<char> in_skeleton(nb, 0);
  std::vector<char> feedback(nb, 0);
  for (std::size_t i = 0; i < nb; ++i) {
    pass.on_cycle[i] = static_cast<char>(
        dg.src[i] == dg.dst[i] || component[dg.src[i]] == component[dg.dst[i]]);
    candidate[i] = static_cast<char>(
        pass.on_cycle[i] != 0 && graph.edge(buffers[i].data).initial_tokens > 0);
    in_skeleton[i] = static_cast<char>(candidate[i] == 0);
  }
  std::vector<std::size_t> visited(n, 0);  // search stamp per node
  std::size_t search = 0;
  const auto skeleton_reaches = [&](std::size_t from, std::size_t to) {
    ++search;
    visited[from] = search;
    stack.assign(1, from);
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      for (std::size_t pos = dg.offset[v]; pos < dg.offset[v + 1]; ++pos) {
        const std::size_t e = out_edge(v, pos);
        if (e == kNone || in_skeleton[e] == 0) {
          continue;
        }
        const std::size_t m = dg.dst[e];
        if (m == to) {
          return true;
        }
        if (visited[m] != search && component[m] == component[from]) {
          visited[m] = search;
          stack.push_back(m);
        }
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < nb; ++i) {
    if (candidate[i] != 0) {
      feedback[i] = static_cast<char>(dg.src[i] == dg.dst[i] ||
                                      skeleton_reaches(dg.dst[i], dg.src[i]));
      in_skeleton[i] = static_cast<char>(feedback[i] == 0);
    }
  }

  // Kahn's sort of the skeleton: ready nodes start in index order and pop
  // LIFO; each node releases its token-free and off-cycle out-edges first,
  // then its re-admitted candidates, both in buffer order.
  std::vector<std::size_t> in_degree(n, 0);
  for (std::size_t i = 0; i < nb; ++i) {
    in_degree[dg.dst[i]] += in_skeleton[i] != 0 ? 1 : 0;
  }
  stack.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (in_degree[v] == 0) {
      stack.push_back(v);
    }
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    order.push_back(v);
    for (const char admitted : {char{0}, char{1}}) {
      for (std::size_t pos = dg.offset[v]; pos < dg.offset[v + 1]; ++pos) {
        const std::size_t e = out_edge(v, pos);
        if (e != kNone && in_skeleton[e] != 0 && candidate[e] == admitted &&
            --in_degree[dg.dst[e]] == 0) {
          stack.push_back(dg.dst[e]);
        }
      }
    }
  }

  if (order.size() != n) {
    // The greedy pass admits no cycle, so the skeleton is cyclic exactly
    // when the token-free edges alone are.  Find one such cycle by DFS
    // over the token-free edges for the diagnostic.
    enum : char { kWhite, kGrey, kBlack };
    std::vector<char> color(n, kWhite);
    std::vector<ActorId>& cycle = pass.token_free_cycle;
    for (std::size_t root = 0; root < n && cycle.empty(); ++root) {
      if (color[root] != kWhite) {
        continue;
      }
      color[root] = kGrey;
      frames.assign(1, Frame{root, dg.offset[root]});
      while (!frames.empty() && cycle.empty()) {
        Frame& f = frames.back();
        if (f.next == dg.offset[f.node + 1]) {
          color[f.node] = kBlack;
          frames.pop_back();
          continue;
        }
        const std::size_t e = out_edge(f.node, f.next++);
        if (e == kNone || graph.edge(buffers[e].data).initial_tokens != 0) {
          continue;
        }
        const std::size_t m = dg.dst[e];
        if (color[m] == kGrey) {
          auto start = frames.begin();
          while (start->node != m) {
            ++start;
          }
          for (; start != frames.end(); ++start) {
            cycle.push_back(actor_id(start->node));
          }
        } else if (color[m] == kWhite) {
          color[m] = kGrey;
          frames.push_back({m, dg.offset[m]});
        }
      }
    }
    VRDF_REQUIRE(!cycle.empty(), "cyclic skeleton without a token-free cycle");
    return pass;
  }

  // Buffers ordered by (topological position of the producer, buffer
  // index); feedback buffers stay out of the skeleton adjacency.
  VrdfGraph::BufferView& view = report.view.emplace();
  view.actors.reserve(n);
  view.buffers.reserve(nb);
  view.in_buffers.resize(n);
  view.out_buffers.resize(n);
  view.on_reconvergent_path.reserve(nb);
  view.on_cycle.reserve(nb);
  view.is_feedback.reserve(nb);
  for (const std::size_t v : order) {
    view.actors.push_back(actor_id(v));
    for (std::size_t pos = dg.offset[v]; pos < dg.offset[v + 1]; ++pos) {
      const std::size_t e = out_edge(v, pos);
      if (e == kNone) {
        continue;
      }
      const std::size_t at = view.buffers.size();
      view.buffers.push_back(buffers[e]);
      if (feedback[e] != 0) {
        view.feedback_buffers.push_back(at);
      } else {
        view.out_buffers[v].push_back(at);
        view.in_buffers[dg.dst[e]].push_back(at);
      }
      view.on_reconvergent_path.push_back(bridge[e] == 0);
      view.on_cycle.push_back(pass.on_cycle[e] != 0);
      view.is_feedback.push_back(feedback[e] != 0);
    }
  }
  view.is_cyclic = !view.feedback_buffers.empty();
  bool degrees_chain_like = true;
  for (const ActorId a : view.actors) {
    if (view.in_buffers[a.index()].empty()) {
      view.data_sources.push_back(a);
    }
    if (view.out_buffers[a.index()].empty()) {
      view.data_sinks.push_back(a);
    }
    degrees_chain_like = degrees_chain_like &&
                         view.in_buffers[a.index()].size() <= 1 &&
                         view.out_buffers[a.index()].size() <= 1;
  }
  view.is_chain = degrees_chain_like && !view.is_cyclic && roots == 1;
  return pass;
}

}  // namespace

ValidationReport validate_cyclic_model(const VrdfGraph& graph) {
  Pass pass = structural_pass(graph);
  ValidationReport& report = pass.report;
  if (!report.ok()) {
    return std::move(report);
  }
  // Every directed cycle must carry an initial token: equivalently, the
  // token-free data edges alone must be acyclic (any cycle of the full
  // data graph either is entirely token-free — rejected here — or breaks
  // at a tokened back-edge).
  if (!pass.token_free_cycle.empty()) {
    std::ostringstream os;
    os << "data cycle without initial tokens (deadlocks at t=0): ";
    for (const ActorId a : pass.token_free_cycle) {
      os << graph.actor(a).name << " -> ";
    }
    os << graph.actor(pass.token_free_cycle.front()).name
       << "; every cycle must carry at least one initial token on a data "
          "edge";
    report.errors.push_back(os.str());
    return std::move(report);
  }
  // Cycle edges must have static, positive rates: the circulating token
  // count of a cycle is conserved, so a variable realized rate on any of
  // its edges lets the loop's flow balance drift unboundedly.
  for (std::size_t i = 0; i < pass.buffers.size(); ++i) {
    if (pass.on_cycle[i] == 0) {
      continue;
    }
    const Edge& data = graph.edge(pass.buffers[i].data);
    const bool is_static =
        data.production.is_singleton() && data.consumption.is_singleton();
    if (!is_static || data.production.min() == 0 ||
        data.consumption.min() == 0) {
      std::ostringstream os;
      os << "buffer " << graph.actor(data.source).name << " -> "
         << graph.actor(data.target).name << ": rates (pi=" << data.production
         << ", gamma=" << data.consumption
         << ") on a directed data cycle must be static and positive; a "
            "variable or zero quantum would make the cycle's circulating "
            "flow drift";
      report.errors.push_back(os.str());
    }
  }
  return std::move(report);
}

}  // namespace vrdf::dataflow
