// Shared types of the buffer-capacity analysis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/vrdf_graph.hpp"
#include "util/time.hpp"

namespace vrdf::analysis {

/// "Actor `actor` must execute strictly periodically with period `period`."
/// The paper pins an end of the chain, but nothing in the theory requires
/// that: the generalised analysis accepts any skeleton actor.  A
/// constrained *end* must be the unique data sink (Sec 4.2/4.3) or unique
/// data source (Sec 4.4) of the graph; an *interior* pin — a fixed-rate
/// DSP core between a demuxer and a renderer, say — anchors its upstream
/// cone like a sink and its downstream cone like a source.  A *set* of
/// constraints may pin several actors at once, with demands propagated
/// bidirectionally and checked for flow consistency.
struct ThroughputConstraint {
  dataflow::ActorId actor;
  Duration period;
};

/// Several simultaneous throughput constraints — e.g. an A/V graph with an
/// audio presenter and a video presenter, or a feedback pipeline pinning
/// both its source and its sink.  Periods must be mutually flow-consistent
/// (the propagation rejects sets whose demands disagree anywhere, naming
/// the binding constraint and path).  Every analysis entry point takes a
/// set; a single constraint `c` is passed as `{c}`.
using ConstraintSet = std::vector<ThroughputConstraint>;

/// Which endpoint of a producer-consumer pair determines its rate.  With a
/// single *end* constraint this is global (every pair inherits the
/// constraint's end); with a constraint set or an interior pin it is
/// assigned per pair: pairs on a path into a sink-kind anchor (a
/// constrained data sink, or an interior pin seen from upstream) pace
/// upstream (Sink — the consumer determines), pairs hanging off a
/// source-kind anchor pace downstream (Source — the producer determines).
enum class ConstraintSide {
  Sink,    // Sec 4.2/4.3: rates propagate upstream against the data flow
  Source,  // Sec 4.4: rates propagate downstream with the data flow
};

/// How the raw token count x = π̂/φ·Δ of Eq (4) is turned into an integer
/// capacity.
enum class RoundingMode {
  /// Literal Eq (4): ⌊x + 1⌋ = ⌊x⌋ + 1.  Always sufficient; over-provisions
  /// by one token when x is integral on a pair that needs no delay slack.
  PaperLiteral,
  /// ⌈x⌉ everywhere.  Matches the bound-distance derivation under the
  /// model's simultaneity semantics (a token produced at t is consumable
  /// at t) but drops the extra token the paper reserves for
  /// consumer-schedule delays on pairs away from the constrained actor;
  /// offered for experimentation and tightness studies, not as default.
  Ceil,
  /// ⌊x⌋ + 1, except ⌈x⌉ on a *static* pair directly adjacent to the
  /// constrained actor (sink mode: the pair whose consumer is the
  /// strictly periodic sink; source mode: the pair whose producer is the
  /// periodic source).  There the constrained actor's transfer times are
  /// exact — no delay can occur on its side — and the method degenerates
  /// to the data-independent technique [14], for which x is sufficient
  /// (and exactly minimal, see the baseline tests).  This reproduces the
  /// paper's published MP3 numbers {6015, 3263, 882}.  Default.
  PaperPublished,
};

/// Everything the analysis derives for one producer-consumer pair
/// (Sec 4.2, Eqs (1)-(4)).
struct PairAnalysis {
  dataflow::ActorId producer;
  dataflow::ActorId consumer;
  dataflow::BufferEdges buffer;

  /// φ basis of this pair: φ(consumer) in sink mode, φ(producer) in source
  /// mode — the minimal required difference between subsequent starts of
  /// the pair's rate-determining actor.
  Duration pacing_basis;
  /// Time per token of the pair's linear bounds (φ/γ̂ resp. φ/π̂).
  Duration bound_rate;
  /// Eq (1): minimum distance α̂p(e_ab) − α̌c(e_ba) chargeable to the
  /// producer: ρ(producer) + s·(π̂ − 1) on a chain.  On fork-join graphs
  /// this is the schedule-alignment gap ω(far endpoint) − ω(near
  /// endpoint) across the edge (see compute_buffer_capacities), which is
  /// ≥ the chain value and exceeds it exactly on the non-binding edges of
  /// a fork/join: the shared actor's firings are pinned to the slowest
  /// sibling path, so the faster path's buffer must also absorb the
  /// siblings' worst-case slack.
  Duration delta_producer;
  /// Eq (2): minimum distance α̂p(e_ba) − α̌c(e_ab) chargeable to the
  /// consumer: ρ(consumer) + s·(γ̂ − 1).
  Duration delta_consumer;
  /// Eq (3): delta_producer + delta_consumer.
  Duration delta_total;
  /// Raw token count x = Δ/s of Eq (4), before rounding.  Measures the
  /// schedule-slack part only; initial tokens are added after rounding.
  Rational raw_tokens;
  /// Computed total capacity ζ(b) = initial_tokens + rounded slack.
  std::int64_t capacity = 0;
  /// Which endpoint of this pair is rate-determining: Sink — the consumer
  /// (pacing_basis = φ(consumer), demands flow upstream); Source — the
  /// producer.  With a single constraint every pair carries the
  /// constraint's global side; with a constraint set the side is assigned
  /// per pair (see compute_pacing).
  ConstraintSide determined_by = ConstraintSide::Sink;
  /// True when all rate sets of the pair are singletons (data-independent).
  bool is_static = false;
  /// True when the buffer's data edge is a back-edge of a cyclic topology
  /// (it carries the cycle's circulating tokens and is excluded from the
  /// topological propagations).
  bool is_feedback = false;
  /// δ(data edge): tokens occupying containers at t=0.  The computed
  /// capacity always covers them.
  std::int64_t initial_tokens = 0;
  /// Back-edges only: the minimum δ the throughput constraint requires,
  /// ⌈(alignment gap + Δ slack)/s⌉ — the schedule-aligned form of the
  /// max-cycle-ratio bound period ≥ cycle latency / initial tokens.  The
  /// analysis is inadmissible when initial_tokens falls short.  Zero on
  /// skeleton edges (δ-independent, so usable to size a loop's tokens).
  std::int64_t required_initial_tokens = 0;
};

/// Result of the full graph analysis (chains, fork-join DAGs and cyclic
/// graphs whose back-edges carry initial tokens).
struct GraphAnalysis {
  /// False when the constraint cannot be satisfied for every admissible
  /// quantum sequence (diagnostics explain why).  Capacities are only
  /// meaningful when true.
  bool admissible = false;
  std::vector<std::string> diagnostics;

  /// Rate-determining side of the *primary* (first) constraint.  Per-pair
  /// sides live in PairAnalysis::determined_by.
  ConstraintSide side = ConstraintSide::Sink;
  /// The constraint set the analysis ran with.
  ConstraintSet constraints;
  /// Per constraint index: whether the constrained actor anchors a
  /// sink-kind (upstream) and/or source-kind (downstream) pacing region.
  /// Exactly one holds at an end; both hold for an interior pin (see
  /// PacingResult).
  std::vector<bool> constraint_is_sink_kind;
  std::vector<bool> constraint_is_source_kind;
  /// True when the data edges form a chain (the paper's Sec 3.1 shape);
  /// actors_in_order is then exactly the chain order.
  bool is_chain = false;
  /// True when the data edges contain directed cycles (broken at tokened
  /// back-edges); pairs on a back-edge have is_feedback set.
  bool is_cyclic = false;
  /// Actors in topological order of the skeleton data edges (chain order
  /// on chains, data source first).
  std::vector<dataflow::ActorId> actors_in_order;
  /// φ(v) per position in actors_in_order: the minimal required difference
  /// between subsequent starts (also the maximal admissible response time).
  std::vector<Duration> pacing;
  /// Schedule-alignment lead ω(v) per position in actors_in_order — the
  /// longest-path witness the per-pair Δ terms are derived from (see
  /// compute_alignment_leads).  Empty unless the analysis reached the
  /// sized shape (pacing ok and every ρ(v) ≤ φ(v)); recorded so the
  /// certificate checker can re-verify every pair without re-running the
  /// longest-path propagation.
  std::vector<Duration> leads;
  /// One entry per buffer, ordered by the producer's topological position
  /// (chain order on chains).
  std::vector<PairAnalysis> pairs;
  /// Sum of all capacities (containers across all buffers).
  std::int64_t total_capacity = 0;
  /// The rounding mode the analysis ran with (AnalysisOptions::rounding),
  /// recorded so certificates and reports can re-derive the per-pair
  /// rounding without carrying the options alongside the result.
  RoundingMode rounding = RoundingMode::PaperPublished;
};

struct AnalysisOptions {
  RoundingMode rounding = RoundingMode::PaperPublished;
};

}  // namespace vrdf::analysis
