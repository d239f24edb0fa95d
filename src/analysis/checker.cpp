// Independence contract: this file validates certificates from the graph
// structure and the certificate's own witnesses alone.  It must not
// include analyzer internals — analysis/pacing.hpp,
// analysis/buffer_sizing.hpp, analysis/sizing_core.hpp,
// analysis/incremental.hpp, analysis/period.hpp — a rule
// tools/lint_determinism.py enforces on every run.  Topological-order
// verification, anchor reachability, bridge finding and the coupling
// scan below are deliberate re-implementations.
#include "analysis/checker.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "util/checked_int.hpp"
#include "util/error.hpp"
#include "util/rational.hpp"
#include "util/time.hpp"

namespace vrdf::analysis {

namespace {

using dataflow::ActorId;
using dataflow::Edge;
using dataflow::VrdfGraph;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

[[nodiscard]] std::string dur(const Duration& d) {
  return d.seconds().to_string() + " s";
}

[[nodiscard]] std::string num(std::int64_t v) { return std::to_string(v); }

/// Undirected bridges of the data multigraph: edge p (by pair position)
/// connects its endpoints; parallel edges and self-loops are never
/// bridges.  Iterative low-link DFS — no recursion, so deep chains are
/// safe.
[[nodiscard]] std::vector<char> undirected_data_bridges(
    std::size_t actor_count, const std::vector<PairFact>& pairs) {
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(
      actor_count);  // actor -> (neighbor, pair position)
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::size_t a = pairs[p].producer.index();
    const std::size_t b = pairs[p].consumer.index();
    adj[a].emplace_back(b, p);
    adj[b].emplace_back(a, p);
  }
  std::vector<char> bridge(pairs.size(), 0);
  std::vector<std::size_t> disc(actor_count, kNone);
  std::vector<std::size_t> low(actor_count, 0);
  std::size_t timer = 0;
  struct Frame {
    std::size_t v;
    std::size_t via;  // pair position of the entering edge (kNone at roots)
    std::size_t next;
  };
  std::vector<Frame> stack;
  for (std::size_t root = 0; root < actor_count; ++root) {
    if (disc[root] != kNone) {
      continue;
    }
    disc[root] = low[root] = timer++;
    stack.push_back({root, kNone, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next < adj[frame.v].size()) {
        const auto [to, via] = adj[frame.v][frame.next++];
        if (via == frame.via) {
          continue;  // the reverse traversal of the entering edge
        }
        if (disc[to] == kNone) {
          disc[to] = low[to] = timer++;
          stack.push_back({to, via, 0});
        } else {
          low[frame.v] = std::min(low[frame.v], disc[to]);
        }
      } else {
        const Frame done = frame;
        stack.pop_back();
        if (done.via != kNone) {
          Frame& parent = stack.back();
          low[parent.v] = std::min(low[parent.v], low[done.v]);
          if (low[done.v] > disc[parent.v]) {
            bridge[done.via] = 1;
          }
        }
      }
    }
  }
  return bridge;
}

// Clause idiom, after VRDF_REQUIRE: the condition is evaluated eagerly;
// the subject, both sides and the message are expressions evaluated only
// when the condition fails.
#define VRDF_CLAUSE(condition, kind, subject, lhs, rhs, message)         \
  expect_((condition), [&] {                                             \
    return ClauseViolation{(kind), (subject), (lhs), (rhs), (message)};  \
  })

/// One full validation run; holds the derived structure between phases.
class Checker {
 public:
  Checker(const VrdfGraph& graph, const Certificate& cert,
          const CheckerOptions& options)
      : graph_(graph), cert_(cert), options_(options) {}

  CertificateCheck run() {
    try {
      if (check_structure_()) {
        derive_coverage_();
        check_parameters_();
        check_platform_();
        check_phi_();
        check_omega_();
        check_pairs_();
      }
    } catch (const Error& error) {
      // Exact arithmetic on a hostile certificate can overflow; a
      // certificate whose numbers do that is invalid, not a crash.
      VRDF_CLAUSE(false, ClauseKind::Coverage, "certificate", "", "",
                  std::string("arithmetic failure while checking: ") +
                      error.what());
    }
    out_.ok = out_.violations.empty();
    return std::move(out_);
  }

 private:
  /// Counts one clause and, only when it fails, records the violation
  /// `render` builds.  Call through VRDF_CLAUSE so that passing clauses
  /// never format a subject, a side or a message.
  template <typename Render>
  bool expect_(bool condition, Render&& render) {
    ++out_.clauses_checked;
    if (!condition) {
      out_.violations.push_back(std::forward<Render>(render)());
    }
    return condition;
  }

  [[nodiscard]] std::string actor_subject_(ActorId v) const {
    return "actor '" + graph_.actor(v).name + "'";
  }

  [[nodiscard]] std::string pair_subject_(const PairFact& fact) const {
    return "buffer '" + graph_.actor(fact.producer).name + " -> " +
           graph_.actor(fact.consumer).name + "'";
  }

  [[nodiscard]] const ActorFact& fact_(ActorId v) const {
    return cert_.actors[fact_of_[v.index()]];
  }

  // ---------------------------------------------------------- structure

  /// Bijections, index ranges and the recorded topological order.  A
  /// failure here is fatal for the later phases (their lookups would be
  /// meaningless), so the caller stops on false.
  bool check_structure_() {
    const std::size_t n = graph_.actor_count();
    if (!VRDF_CLAUSE(cert_.actors.size() == n, ClauseKind::Coverage,
                     "certificate",
                     num(static_cast<std::int64_t>(cert_.actors.size())),
                     num(static_cast<std::int64_t>(n)),
                     "certificate must carry exactly one fact per actor")) {
      return false;
    }
    fact_of_.assign(n, kNone);
    for (std::size_t i = 0; i < cert_.actors.size(); ++i) {
      const std::size_t idx = cert_.actors[i].actor.index();
      if (!VRDF_CLAUSE(idx < n, ClauseKind::Coverage, "certificate",
                       num(static_cast<std::int64_t>(idx)),
                       num(static_cast<std::int64_t>(n)),
                       "actor fact references an actor outside the graph")) {
        return false;
      }
      if (!VRDF_CLAUSE(fact_of_[idx] == kNone, ClauseKind::Coverage,
                       actor_subject_(cert_.actors[i].actor), "", "",
                       "duplicate actor fact")) {
        return false;
      }
      fact_of_[idx] = i;
    }

    if (!VRDF_CLAUSE(!cert_.constraints.empty(), ClauseKind::Coverage,
                     "certificate", "0", ">= 1",
                     "certificate must carry at least one throughput "
                     "constraint")) {
      return false;
    }
    if (!VRDF_CLAUSE(cert_.constraint_is_sink_kind.size() ==
                             cert_.constraints.size() &&
                         cert_.constraint_is_source_kind.size() ==
                             cert_.constraints.size(),
                     ClauseKind::Coverage, "certificate",
                     num(static_cast<std::int64_t>(
                         cert_.constraint_is_sink_kind.size())),
                     num(static_cast<std::int64_t>(cert_.constraints.size())),
                     "anchor-kind vectors must match the constraint count")) {
      return false;
    }
    constraint_of_.assign(n, kNone);
    for (std::size_t c = 0; c < cert_.constraints.size(); ++c) {
      const ActorId actor = cert_.constraints[c].actor;
      if (!VRDF_CLAUSE(actor.index() < n, ClauseKind::Coverage,
                       "certificate",
                       num(static_cast<std::int64_t>(actor.index())),
                       num(static_cast<std::int64_t>(n)),
                       "constraint references an actor outside the graph")) {
        return false;
      }
      if (!VRDF_CLAUSE(constraint_of_[actor.index()] == kNone,
                       ClauseKind::Coverage, actor_subject_(actor), "", "",
                       "duplicate throughput constraint on one actor")) {
        return false;
      }
      constraint_of_[actor.index()] = c;
      VRDF_CLAUSE(cert_.constraints[c].period.is_positive(), ClauseKind::Phi,
                  actor_subject_(actor), dur(cert_.constraints[c].period),
                  "> 0 s", "throughput period must be positive");
    }

    const std::vector<dataflow::BufferEdges> buffers = graph_.buffers();
    if (!VRDF_CLAUSE(cert_.pairs.size() == buffers.size(),
                     ClauseKind::Coverage, "certificate",
                     num(static_cast<std::int64_t>(cert_.pairs.size())),
                     num(static_cast<std::int64_t>(buffers.size())),
                     "certificate must carry exactly one fact per buffer")) {
      return false;
    }
    std::vector<std::size_t> pair_at_data(graph_.edge_count(), kNone);
    for (std::size_t p = 0; p < cert_.pairs.size(); ++p) {
      const PairFact& fact = cert_.pairs[p];
      if (!VRDF_CLAUSE(fact.buffer.data.index() < graph_.edge_count(),
                       ClauseKind::Coverage, "certificate",
                       num(static_cast<std::int64_t>(
                           fact.buffer.data.index())),
                       num(static_cast<std::int64_t>(graph_.edge_count())),
                       "pair fact references an edge outside the graph")) {
        return false;
      }
      const Edge& data = graph_.edge(fact.buffer.data);
      if (!VRDF_CLAUSE(data.source == fact.producer &&
                           data.target == fact.consumer,
                       ClauseKind::Coverage, pair_subject_(fact), "", "",
                       "pair fact endpoints do not match the recorded data "
                       "edge")) {
        return false;
      }
      if (!VRDF_CLAUSE(pair_at_data[fact.buffer.data.index()] == kNone,
                       ClauseKind::Coverage, pair_subject_(fact), "", "",
                       "duplicate pair fact for one data edge")) {
        return false;
      }
      pair_at_data[fact.buffer.data.index()] = p;
    }
    for (const dataflow::BufferEdges& buffer : buffers) {
      const std::size_t p = pair_at_data[buffer.data.index()];
      if (!VRDF_CLAUSE(
              p != kNone, ClauseKind::Coverage, "certificate", "", "",
              "buffer " + graph_.actor(graph_.edge(buffer.data).source).name +
                  " -> " + graph_.actor(graph_.edge(buffer.data).target).name +
                  " has no pair fact")) {
        return false;
      }
      VRDF_CLAUSE(cert_.pairs[p].buffer.space == buffer.space,
                  ClauseKind::Coverage, pair_subject_(cert_.pairs[p]), "", "",
                  "pair fact records a different space edge than the graph's "
                  "buffer pairing");
    }

    // Static claims are structural: all rate sets singletons.
    for (const PairFact& fact : cert_.pairs) {
      const Edge& data = graph_.edge(fact.buffer.data);
      const bool is_static =
          data.production.is_singleton() && data.consumption.is_singleton();
      VRDF_CLAUSE(fact.is_static == is_static, ClauseKind::Coverage,
                  pair_subject_(fact), fact.is_static ? "static" : "variable",
                  is_static ? "static" : "variable",
                  "recorded staticness does not match the edge's rate sets "
                  "(pi=" + data.production.to_string() +
                      ", gamma=" + data.consumption.to_string() + ")");
    }

    // Skeleton adjacency and the recorded topological order.  Every
    // skeleton (non-feedback) data edge must go forward in the recorded
    // actor order — which simultaneously proves the skeleton acyclic.
    order_pos_.assign(n, kNone);
    for (std::size_t i = 0; i < cert_.actors.size(); ++i) {
      order_pos_[cert_.actors[i].actor.index()] = i;
    }
    in_pairs_.assign(n, {});
    out_pairs_.assign(n, {});
    bool order_ok = true;
    for (std::size_t p = 0; p < cert_.pairs.size(); ++p) {
      const PairFact& fact = cert_.pairs[p];
      if (fact.is_feedback) {
        continue;
      }
      out_pairs_[fact.producer.index()].push_back(p);
      in_pairs_[fact.consumer.index()].push_back(p);
      order_ok &= VRDF_CLAUSE(
          order_pos_[fact.producer.index()] < order_pos_[fact.consumer.index()],
          ClauseKind::Coverage, pair_subject_(fact),
          num(static_cast<std::int64_t>(order_pos_[fact.producer.index()])),
          num(static_cast<std::int64_t>(order_pos_[fact.consumer.index()])),
          "skeleton data edge goes backward in the recorded topological "
          "order (the claimed skeleton is not acyclic in this order)");
    }
    if (!order_ok) {
      return false;  // the coupling DP below needs a valid order
    }

    // Feedback classification: a claimed back-edge must actually lie on
    // a directed cycle of the data edges and must carry a circulating
    // token (a token-free cycle deadlocks at t=0).
    std::vector<std::vector<std::size_t>> out_all(n);
    for (const PairFact& fact : cert_.pairs) {
      out_all[fact.producer.index()].push_back(fact.consumer.index());
    }
    for (const PairFact& fact : cert_.pairs) {
      if (!fact.is_feedback) {
        continue;
      }
      std::vector<char> seen(n, 0);
      std::vector<std::size_t> stack{fact.consumer.index()};
      seen[fact.consumer.index()] = 1;
      bool reaches = false;
      while (!stack.empty() && !reaches) {
        const std::size_t v = stack.back();
        stack.pop_back();
        for (const std::size_t next : out_all[v]) {
          if (next == fact.producer.index()) {
            reaches = true;
            break;
          }
          if (!seen[next]) {
            seen[next] = 1;
            stack.push_back(next);
          }
        }
      }
      VRDF_CLAUSE(reaches || fact.producer == fact.consumer,
                  ClauseKind::Coverage, pair_subject_(fact), "", "",
                  "pair is recorded as a feedback back-edge but lies on no "
                  "directed cycle of the data edges");
      VRDF_CLAUSE(fact.initial_tokens >= 1, ClauseKind::Coverage,
                  pair_subject_(fact), num(fact.initial_tokens), ">= 1",
                  "a feedback back-edge must carry at least one circulating "
                  "initial token");
    }
    return true;
  }

  // ----------------------------------------------------------- coverage

  /// Anchor kinds, per-constraint demand cones, per-edge pacing sides,
  /// variable-rate placement and the constraint-coupling rule.  Derived
  /// values are kept for the φ/ω/ζ phases (recorded claims are checked
  /// against them, then the derived values are used onward so one
  /// mutation yields one precise violation, not a cascade).
  void derive_coverage_() {
    const std::size_t n = graph_.actor_count();

    sink_kind_.assign(cert_.constraints.size(), false);
    source_kind_.assign(cert_.constraints.size(), false);
    for (std::size_t c = 0; c < cert_.constraints.size(); ++c) {
      const std::size_t idx = cert_.constraints[c].actor.index();
      // A buffer-less actor counts as a data sink (its cone is itself).
      sink_kind_[c] = !in_pairs_[idx].empty() || out_pairs_[idx].empty();
      source_kind_[c] = !out_pairs_[idx].empty();
      VRDF_CLAUSE(cert_.constraint_is_sink_kind[c] == sink_kind_[c],
                  ClauseKind::Coverage,
                  actor_subject_(cert_.constraints[c].actor),
                  cert_.constraint_is_sink_kind[c] ? "sink-kind"
                                                   : "not sink-kind",
                  sink_kind_[c] ? "sink-kind" : "not sink-kind",
                  "recorded anchor kind does not match the skeleton structure");
      VRDF_CLAUSE(cert_.constraint_is_source_kind[c] == source_kind_[c],
                  ClauseKind::Coverage,
                  actor_subject_(cert_.constraints[c].actor),
                  cert_.constraint_is_source_kind[c] ? "source-kind"
                                                     : "not source-kind",
                  source_kind_[c] ? "source-kind" : "not source-kind",
                  "recorded anchor kind does not match the skeleton structure");
    }

    // Per-constraint demand cones over the skeleton: upstream of every
    // sink-kind anchor, downstream of every source-kind anchor.  The
    // *counts* (distinct constraints per actor and side) feed the
    // coupling rule below.
    sink_count_.assign(n, 0);
    src_count_.assign(n, 0);
    for (std::size_t c = 0; c < cert_.constraints.size(); ++c) {
      for (const bool sink : {true, false}) {
        if (sink ? !sink_kind_[c] : !source_kind_[c]) {
          continue;
        }
        std::vector<char> seen(n, 0);
        std::vector<std::size_t> stack{cert_.constraints[c].actor.index()};
        seen[cert_.constraints[c].actor.index()] = 1;
        while (!stack.empty()) {
          const std::size_t v = stack.back();
          stack.pop_back();
          (sink ? sink_count_ : src_count_)[v] += 1;
          for (const std::size_t p : sink ? in_pairs_[v] : out_pairs_[v]) {
            const std::size_t next = sink ? cert_.pairs[p].producer.index()
                                          : cert_.pairs[p].consumer.index();
            if (!seen[next]) {
              seen[next] = 1;
              stack.push_back(next);
            }
          }
        }
      }
    }
    sink_anchored_.assign(n, 0);
    source_reached_.assign(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      sink_anchored_[v] = sink_count_[v] > 0 ? 1 : 0;
      source_reached_[v] = src_count_[v] > 0 ? 1 : 0;
    }

    // Actor coverage: every actor must receive a pacing demand.
    for (const ActorFact& fact : cert_.actors) {
      const std::size_t v = fact.actor.index();
      VRDF_CLAUSE(sink_anchored_[v] || source_reached_[v],
                  ClauseKind::Coverage, actor_subject_(fact.actor), "", "",
                  "actor receives no pacing demand from any throughput "
                  "constraint (it neither reaches a sink-kind anchor nor hangs "
                  "off a source-kind anchor)");
    }

    // Per-edge pacing side, exactly the analyzer's assignment rule:
    // sink-anchored consumers pace upstream, else source-reached
    // producers pace downstream; back-edges default to the consumer side.
    side_.assign(cert_.pairs.size(), ConstraintSide::Sink);
    for (std::size_t p = 0; p < cert_.pairs.size(); ++p) {
      const PairFact& fact = cert_.pairs[p];
      ConstraintSide expected = ConstraintSide::Sink;
      if (sink_anchored_[fact.consumer.index()]) {
        expected = ConstraintSide::Sink;
      } else if (source_reached_[fact.producer.index()]) {
        expected = ConstraintSide::Source;
      } else if (!fact.is_feedback) {
        VRDF_CLAUSE(false, ClauseKind::Coverage, pair_subject_(fact), "", "",
                    "skeleton edge is paced by no throughput constraint (its "
                    "consumer reaches no sink-kind anchor and its producer "
                    "hangs off no source-kind anchor)");
        side_[p] = fact.side;  // keep the later phases deterministic
        continue;
      }
      side_[p] = expected;
      VRDF_CLAUSE(fact.side == expected, ClauseKind::Coverage,
                  pair_subject_(fact),
                  fact.side == ConstraintSide::Sink ? "Sink" : "Source",
                  expected == ConstraintSide::Sink ? "Sink" : "Source",
                  "recorded rate-determining side does not match the anchor "
                  "reachability of the edge's endpoints");
    }

    // Variable-rate placement: data-dependent rates are only sound on
    // undirected-bridge (chain-segment) data edges — anywhere on an
    // undirected cycle (a reconvergent fork-join region or a directed
    // feedback cycle), sibling flows could diverge unboundedly.
    const std::vector<char> bridge =
        undirected_data_bridges(n, cert_.pairs);
    for (std::size_t p = 0; p < cert_.pairs.size(); ++p) {
      const PairFact& fact = cert_.pairs[p];
      const Edge& data = graph_.edge(fact.buffer.data);
      const bool is_static =
          data.production.is_singleton() && data.consumption.is_singleton();
      if (is_static) {
        continue;
      }
      VRDF_CLAUSE(bridge[p] != 0, ClauseKind::Coverage, pair_subject_(fact),
                  "", "",
                  "data-dependent rates (pi=" + data.production.to_string() +
                      ", gamma=" + data.consumption.to_string() +
                      ") off a chain-segment (bridge) edge; sibling branch "
                      "flows could diverge unboundedly");
    }

    // Constraint coupling: variable quanta must stay on *shared* chain
    // segments.  anc_max_sink = the largest sink-cone count among an
    // actor's skeleton ancestors (itself included); desc_max_src
    // mirrored for descendants and source cones.
    std::vector<std::size_t> anc_max_sink(n, 0);
    std::vector<std::size_t> desc_max_src(n, 0);
    for (const ActorFact& fact : cert_.actors) {
      const std::size_t v = fact.actor.index();
      std::size_t best = sink_count_[v];
      for (const std::size_t p : in_pairs_[v]) {
        best = std::max(best, anc_max_sink[cert_.pairs[p].producer.index()]);
      }
      anc_max_sink[v] = best;
    }
    for (auto it = cert_.actors.rbegin(); it != cert_.actors.rend(); ++it) {
      const std::size_t v = it->actor.index();
      std::size_t best = src_count_[v];
      for (const std::size_t p : out_pairs_[v]) {
        best = std::max(best, desc_max_src[cert_.pairs[p].consumer.index()]);
      }
      desc_max_src[v] = best;
    }
    for (std::size_t p = 0; p < cert_.pairs.size(); ++p) {
      const PairFact& fact = cert_.pairs[p];
      if (fact.is_feedback) {
        continue;
      }
      const Edge& data = graph_.edge(fact.buffer.data);
      if (data.production.is_singleton() && data.consumption.is_singleton()) {
        continue;
      }
      const std::size_t x = fact.producer.index();
      const std::size_t y = fact.consumer.index();
      const bool coupled =
          side_[p] == ConstraintSide::Sink
              ? (sink_count_[x] > sink_count_[y] ||
                 anc_max_sink[x] > sink_count_[x] || src_count_[x] > 0)
              : (src_count_[y] > src_count_[x] ||
                 desc_max_src[y] > src_count_[y]);
      VRDF_CLAUSE(!coupled, ClauseKind::Coverage, pair_subject_(fact), "", "",
                  "data-dependent rates on a constraint-coupled path; a "
                  "variable realized flow could back-pressure an actor another "
                  "constraint depends on and starve it");
    }
  }

  // --------------------------------------------------------- parameters

  /// Binding of the recorded ρ/δ to the graph's own values (plain
  /// analyses only — the incremental engine's parameters live in its
  /// overlay and are validated against the recorded facts instead).
  void check_parameters_() {
    if (!options_.bind_parameters_to_graph) {
      return;
    }
    for (const ActorFact& fact : cert_.actors) {
      VRDF_CLAUSE(fact.rho == graph_.actor(fact.actor).response_time,
                  ClauseKind::Coverage, actor_subject_(fact.actor),
                  dur(fact.rho), dur(graph_.actor(fact.actor).response_time),
                  "recorded response time does not match the graph's rho");
    }
    for (const PairFact& fact : cert_.pairs) {
      VRDF_CLAUSE(fact.initial_tokens ==
                      graph_.edge(fact.buffer.data).initial_tokens,
                  ClauseKind::Coverage, pair_subject_(fact),
                  num(fact.initial_tokens),
                  num(graph_.edge(fact.buffer.data).initial_tokens),
                  "recorded initial tokens do not match the graph's delta");
    }
  }

  // ------------------------------------------------------------------ κ

  /// Platform clause of deployed analyses: re-derives each recorded κ
  /// from the arbiter terms alone (no sched includes — the clause is
  /// self-contained) and links it to the ρ the capacity clauses used.
  /// Vacuously valid for undeployed certificates (no platform facts).
  void check_platform_() {
    std::vector<char> seen(graph_.actor_count(), 0);
    for (const PlatformFact& fact : cert_.platform) {
      if (!VRDF_CLAUSE(fact.actor.index() < graph_.actor_count(),
                       ClauseKind::Kappa, "certificate", "", "",
                       "platform fact references an actor outside the graph")) {
        continue;
      }
      // Rendered only if one of this fact's clauses fails.
      const auto subject = [&] { return actor_subject_(fact.actor); };
      if (!VRDF_CLAUSE(seen[fact.actor.index()] == 0, ClauseKind::Kappa,
                       subject(), "", "",
                       "duplicate platform fact for one actor")) {
        continue;
      }
      seen[fact.actor.index()] = 1;
      if (!VRDF_CLAUSE(fact.wcet.is_positive(), ClauseKind::Kappa,
                       subject(), dur(fact.wcet), "> 0 s",
                       "platform WCET must be positive")) {
        continue;
      }
      if (!VRDF_CLAUSE(fact.slot.is_positive() && fact.slot <= fact.wheel,
                       ClauseKind::Kappa, subject(), dur(fact.slot),
                       dur(fact.wheel),
                       "TDM slot must be positive and no larger than the "
                       "wheel period")) {
        continue;
      }
      Duration kappa;
      if (fact.policy == ServicePolicy::TdmSlotGranular) {
        // ⌈C/slot⌉ witness: ceil_term − 1 < C/slot ≤ ceil_term, checked
        // as pure inequalities so the checker needs no ceiling code.
        const Rational chunks = fact.wcet.seconds() / fact.slot.seconds();
        const bool witness = Rational(fact.ceil_term) >= chunks &&
                             Rational(fact.ceil_term) - Rational(1) < chunks;
        if (!VRDF_CLAUSE(witness, ClauseKind::Kappa, subject(),
                         num(fact.ceil_term), chunks.to_string(),
                         "ceil term is not the ceiling of WCET/slot")) {
          continue;
        }
        kappa = (fact.wheel - fact.slot) * Rational(fact.ceil_term) +
                fact.wcet;
      } else {
        // Latency-rate abstraction of the wheel:
        // κ = (wheel − slot) + C·wheel/slot.
        kappa = (fact.wheel - fact.slot) +
                fact.wcet * (fact.wheel.seconds() / fact.slot.seconds());
      }
      VRDF_CLAUSE(fact.kappa == kappa, ClauseKind::Kappa, subject(),
                  dur(fact.kappa), dur(kappa),
                  std::string("recorded kappa does not equal the ") +
                      service_policy_name(fact.policy) +
                      " bound re-derived from the arbiter terms");
      VRDF_CLAUSE(fact.kappa == fact_(fact.actor).rho, ClauseKind::Kappa,
                  subject(), dur(fact.kappa),
                  dur(fact_(fact.actor).rho),
                  "platform kappa does not equal the response time the "
                  "capacity clauses ran with");
    }
  }

  // ----------------------------------------------------------------- φ

  void check_phi_() {
    for (const ActorFact& fact : cert_.actors) {
      VRDF_CLAUSE(fact.phi.is_positive(), ClauseKind::Phi,
                  actor_subject_(fact.actor), dur(fact.phi), "> 0 s",
                  "pacing witness must be positive");
      VRDF_CLAUSE(fact.rho <= fact.phi, ClauseKind::Phi,
                  actor_subject_(fact.actor), dur(fact.rho), dur(fact.phi),
                  "response time exceeds the pacing witness; no valid schedule "
                  "exists at the required rate");
    }
    for (const ThroughputConstraint& c : cert_.constraints) {
      VRDF_CLAUSE(fact_(c.actor).phi == c.period, ClauseKind::Phi,
                  actor_subject_(c.actor), dur(fact_(c.actor).phi),
                  dur(c.period),
                  "a constrained actor's pacing witness must equal its period");
    }
    for (std::size_t p = 0; p < cert_.pairs.size(); ++p) {
      const PairFact& fact = cert_.pairs[p];
      const Edge& data = graph_.edge(fact.buffer.data);
      const Duration& phi_p = fact_(fact.producer).phi;
      const Duration& phi_c = fact_(fact.consumer).phi;
      if (fact.is_feedback) {
        // Cycle flow balance: tokens produced per second must equal
        // tokens consumed per second (rates on cycle edges are static).
        VRDF_CLAUSE(phi_c * Rational(data.production.min()) ==
                        phi_p * Rational(data.consumption.min()),
                    ClauseKind::Phi, pair_subject_(fact),
                    dur(phi_c * Rational(data.production.min())),
                    dur(phi_p * Rational(data.consumption.min())),
                    "back-edge rates are flow-inconsistent with the pacing "
                    "witnesses; the cycle's circulating token count would "
                    "drift");
        continue;
      }
      if (side_[p] == ConstraintSide::Sink) {
        if (!VRDF_CLAUSE(data.production.min() >= 1, ClauseKind::Phi,
                         pair_subject_(fact), num(data.production.min()),
                         ">= 1",
                         "minimum production quantum is zero on a "
                         "sink-determined edge; the producer cannot sustain "
                         "the consumer's maximum rate")) {
          continue;
        }
        const Duration demand =
            phi_c * Rational(data.production.min(), data.consumption.max());
        VRDF_CLAUSE(phi_p == demand, ClauseKind::Phi, pair_subject_(fact),
                    dur(phi_p), dur(demand),
                    "producer pacing witness does not equal the sink-side "
                    "demand phi(consumer) * pi_min / gamma_max");
      } else {
        if (!VRDF_CLAUSE(data.consumption.min() >= 1, ClauseKind::Phi,
                         pair_subject_(fact), num(data.consumption.min()),
                         ">= 1",
                         "minimum consumption quantum is zero on a "
                         "source-determined edge; the consumer cannot keep up "
                         "with the source's maximum rate")) {
          continue;
        }
        const Duration demand =
            phi_p * Rational(data.consumption.min(), data.production.max());
        VRDF_CLAUSE(phi_c == demand, ClauseKind::Phi, pair_subject_(fact),
                    dur(phi_c), dur(demand),
                    "consumer pacing witness does not equal the source-side "
                    "demand phi(producer) * gamma_min / pi_max");
      }
    }
  }

  // ----------------------------------------------------------------- ω

  /// The alignment leads are longest-path fixed points; with the
  /// recorded witnesses in hand each actor's equation is checked
  /// locally, so the whole pass is O(E) with no propagation.
  void check_omega_() {
    for (const ActorFact& fact : cert_.actors) {
      const std::size_t v = fact.actor.index();
      const std::size_t c = constraint_of_[v];
      if (sink_anchored_[v]) {
        if (c != kNone && sink_kind_[c]) {
          VRDF_CLAUSE(fact.lead.is_zero(), ClauseKind::Omega,
                      actor_subject_(fact.actor), dur(fact.lead), "0 s",
                      "a sink-kind anchor's alignment lead must be zero");
          continue;
        }
        Duration longest;
        for (const std::size_t p : out_pairs_[v]) {
          if (side_[p] != ConstraintSide::Sink) {
            continue;
          }
          const PairFact& pair = cert_.pairs[p];
          const Edge& data = graph_.edge(pair.buffer.data);
          const Duration rate =
              fact_(pair.consumer).phi / Rational(data.consumption.max());
          const Duration candidate =
              fact_(pair.consumer).lead +
              rate * Rational(data.production.max() - 1);
          longest = std::max(longest, candidate);
        }
        const Duration expected = fact.rho + longest;
        VRDF_CLAUSE(fact.lead == expected, ClauseKind::Omega,
                    actor_subject_(fact.actor), dur(fact.lead), dur(expected),
                    "alignment lead does not satisfy the sink-region "
                    "longest-path equation omega = rho + max(omega(consumer) + "
                    "s*(pi_max-1))");
      } else {
        if (c != kNone && source_kind_[c]) {
          VRDF_CLAUSE(fact.lead.is_zero(), ClauseKind::Omega,
                      actor_subject_(fact.actor), dur(fact.lead), "0 s",
                      "a source-kind anchor's alignment lead must be zero");
          continue;
        }
        Duration longest;
        for (const std::size_t p : in_pairs_[v]) {
          if (side_[p] != ConstraintSide::Source) {
            continue;
          }
          const PairFact& pair = cert_.pairs[p];
          const Edge& data = graph_.edge(pair.buffer.data);
          const Duration rate =
              fact_(pair.producer).phi / Rational(data.production.max());
          const Duration candidate =
              fact_(pair.producer).lead + fact_(pair.producer).rho +
              rate * Rational(data.production.max() - 1);
          longest = std::max(longest, candidate);
        }
        VRDF_CLAUSE(fact.lead == longest, ClauseKind::Omega,
                    actor_subject_(fact.actor), dur(fact.lead), dur(longest),
                    "alignment lead does not satisfy the source-region "
                    "longest-path equation omega = max(omega(producer) + "
                    "rho(producer) + s*(pi_max-1))");
      }
    }
  }

  // ------------------------------------------------------------- ζ / δ

  void check_pairs_() {
    std::int64_t total = 0;
    for (std::size_t p = 0; p < cert_.pairs.size(); ++p) {
      const PairFact& fact = cert_.pairs[p];
      const Edge& data = graph_.edge(fact.buffer.data);
      const std::int64_t pi_max = data.production.max();
      const std::int64_t gamma_max = data.consumption.max();
      const Duration& lead_p = fact_(fact.producer).lead;
      const Duration& lead_c = fact_(fact.consumer).lead;
      const bool sink_side = side_[p] == ConstraintSide::Sink;

      const Duration basis =
          sink_side ? fact_(fact.consumer).phi : fact_(fact.producer).phi;
      const Duration rate =
          basis / Rational(sink_side ? gamma_max : pi_max);
      if (!VRDF_CLAUSE(rate.is_positive(), ClauseKind::Zeta,
                       pair_subject_(fact), dur(rate), "> 0 s",
                       "non-positive bound rate; the per-token linear bounds "
                       "are degenerate")) {
        continue;  // the divisions below would be meaningless
      }

      const Duration gap = sink_side ? lead_p - lead_c : lead_c - lead_p;
      const Duration chain_local =
          fact_(fact.producer).rho + rate * Rational(pi_max - 1);
      const Duration delta_producer = std::max(gap, chain_local);
      VRDF_CLAUSE(fact.delta_producer == delta_producer, ClauseKind::Zeta,
                  pair_subject_(fact), dur(fact.delta_producer),
                  dur(delta_producer),
                  "producer slack does not equal max(alignment gap, rho + "
                  "s*(pi_max-1))");
      const Duration delta_consumer =
          fact_(fact.consumer).rho + rate * Rational(gamma_max - 1);
      VRDF_CLAUSE(fact.delta_consumer == delta_consumer, ClauseKind::Zeta,
                  pair_subject_(fact), dur(fact.delta_consumer),
                  dur(delta_consumer),
                  "consumer slack does not equal rho + s*(gamma_max-1)");
      const Rational raw = (delta_producer + delta_consumer) / rate;
      VRDF_CLAUSE(fact.raw_tokens == raw, ClauseKind::Zeta, pair_subject_(fact),
                  fact.raw_tokens.to_string(), raw.to_string(),
                  "raw token count does not equal (delta_producer + "
                  "delta_consumer) / s");

      // Tight-rounding adjacency: static, directly at its constrained
      // anchor on the rate-determining side, never a back-edge.
      const ActorId anchor = sink_side ? fact.consumer : fact.producer;
      const std::size_t c = constraint_of_[anchor.index()];
      const bool is_static =
          data.production.is_singleton() && data.consumption.is_singleton();
      const bool tight =
          is_static && !fact.is_feedback && c != kNone &&
          (sink_side ? sink_kind_[c] : source_kind_[c]);
      VRDF_CLAUSE(fact.tight_rounding == tight, ClauseKind::Zeta,
                  pair_subject_(fact), fact.tight_rounding ? "tight" : "padded",
                  tight ? "tight" : "padded",
                  "recorded tight-rounding claim does not match the "
                  "static-and-adjacent-to-anchor predicate");

      std::int64_t rounded = 0;
      switch (cert_.rounding) {
        case RoundingMode::PaperLiteral:
          rounded = checked_add(raw.floor(), 1);
          break;
        case RoundingMode::Ceil:
          rounded = raw.ceil();
          break;
        case RoundingMode::PaperPublished:
          rounded = tight ? raw.ceil() : checked_add(raw.floor(), 1);
          break;
      }

      if (fact.is_feedback) {
        // Max-cycle-ratio bound: the consumer's schedule leads the
        // producer's by the reversed gap and consumes from the delta
        // circulating tokens that far ahead of replenishment.
        const Duration reverse_gap =
            sink_side ? lead_c - lead_p : lead_p - lead_c;
        const std::int64_t required =
            ((reverse_gap + chain_local + rate * Rational(gamma_max - 1)) /
             rate)
                .ceil();
        VRDF_CLAUSE(fact.required_initial_tokens == required, ClauseKind::Delta,
                    pair_subject_(fact), num(fact.required_initial_tokens),
                    num(required),
                    "recorded cycle token requirement does not equal the "
                    "schedule-aligned max-cycle-ratio bound");
        VRDF_CLAUSE(fact.initial_tokens >= required, ClauseKind::Delta,
                    pair_subject_(fact), num(fact.initial_tokens),
                    num(required),
                    "circulating initial tokens fall short of the cycle's "
                    "max-cycle-ratio requirement; the period cannot be "
                    "sustained");
      } else {
        VRDF_CLAUSE(fact.required_initial_tokens == 0, ClauseKind::Delta,
                    pair_subject_(fact), num(fact.required_initial_tokens), "0",
                    "skeleton pairs have no cycle token requirement");
      }

      const std::int64_t capacity = checked_add(rounded, fact.initial_tokens);
      VRDF_CLAUSE(fact.capacity == capacity, ClauseKind::Zeta,
                  pair_subject_(fact), num(fact.capacity), num(capacity),
                  "capacity does not equal the rounded slack plus the initial "
                  "tokens");
      total = checked_add(total, fact.capacity);
    }
    VRDF_CLAUSE(cert_.total_capacity == total, ClauseKind::Zeta, "certificate",
                num(cert_.total_capacity), num(total),
                "total capacity does not equal the sum of the pair "
                "capacities");
  }

  const VrdfGraph& graph_;
  const Certificate& cert_;
  const CheckerOptions& options_;
  CertificateCheck out_;

  // Derived structure (filled by the structure/coverage phases).
  std::vector<std::size_t> fact_of_;       // actor index -> cert.actors pos
  std::vector<std::size_t> order_pos_;     // actor index -> topological pos
  std::vector<std::size_t> constraint_of_; // actor index -> constraint
  std::vector<std::vector<std::size_t>> in_pairs_;   // skeleton only
  std::vector<std::vector<std::size_t>> out_pairs_;  // skeleton only
  std::vector<bool> sink_kind_;
  std::vector<bool> source_kind_;
  std::vector<std::size_t> sink_count_;
  std::vector<std::size_t> src_count_;
  std::vector<char> sink_anchored_;
  std::vector<char> source_reached_;
  std::vector<ConstraintSide> side_;
};

#undef VRDF_CLAUSE

}  // namespace

const char* clause_kind_name(ClauseKind kind) {
  switch (kind) {
    case ClauseKind::Phi: return "phi";
    case ClauseKind::Omega: return "omega";
    case ClauseKind::Zeta: return "zeta";
    case ClauseKind::Delta: return "delta";
    case ClauseKind::Coverage: return "coverage";
    case ClauseKind::Kappa: return "kappa";
  }
  return "unknown";
}

std::string describe(const ClauseViolation& violation) {
  std::ostringstream os;
  os << clause_kind_name(violation.kind) << " clause violated at "
     << violation.subject << ": " << violation.message;
  if (!violation.lhs.empty() || !violation.rhs.empty()) {
    os << " (" << violation.lhs << " vs " << violation.rhs << ")";
  }
  return os.str();
}

std::string CertificateCheck::first_violation() const {
  return violations.empty() ? std::string() : describe(violations.front());
}

CertificateCheck check_certificate(const VrdfGraph& graph,
                                   const Certificate& cert,
                                   const CheckerOptions& options) {
  return Checker(graph, cert, options).run();
}

}  // namespace vrdf::analysis
