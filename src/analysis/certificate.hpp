// Proof-carrying capacity certificates (translation validation for the
// buffer-capacity analysis).
//
// A Certificate is a compact, self-contained transcript of everything an
// admissible GraphAnalysis claims: per-actor pacing witnesses φ and
// schedule-alignment leads ω, the per-actor ρ (graph value or overlay
// override) and per-edge δ the analysis actually ran with, per-pair capacity
// facts with their rounding/adjacency terms, and the back-edge
// cycle-ratio bounds.  Emission is a *pure transcription* — it computes
// nothing the analysis did not already compute — so a certificate is
// exactly as trustworthy as the analysis that produced it.
//
// The trust upgrade comes from analysis/checker.hpp: an independent
// validator (no code shared with pacing.cpp / buffer_sizing.cpp) that
// re-derives every clause from the graph structure and the certificate's
// witnesses in exact Rational arithmetic, in O(E).  Analysis + checker
// together give translation validation: every analysis result — full,
// incremental patch, or fleet item — can be statically verified instead
// of trusted.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/snapshot.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "util/time.hpp"

namespace vrdf::analysis {

/// Per-actor facts: the pacing witness φ(v), the alignment lead ω(v),
/// and the response time ρ(v) the analysis ran with (overlay-resolved).
struct ActorFact {
  dataflow::ActorId actor;
  Duration phi;
  Duration lead;
  Duration rho;
};

/// Per-pair facts — the Eq (1)–(4) terms plus the claims the checker
/// re-derives (rate-determining side, staticness, tight rounding,
/// feedback δ bound).
struct PairFact {
  dataflow::BufferEdges buffer;
  dataflow::ActorId producer;
  dataflow::ActorId consumer;
  ConstraintSide side = ConstraintSide::Sink;
  bool is_static = false;
  bool is_feedback = false;
  /// Claim that the pair rounded with ⌈x⌉ instead of ⌊x⌋+1 under
  /// RoundingMode::PaperPublished (static pair adjacent to its
  /// constrained anchor on the rate-determining side, not a back-edge).
  /// The checker re-derives the predicate and rejects a mismatch.
  bool tight_rounding = false;
  Duration delta_producer;
  Duration delta_consumer;
  Rational raw_tokens;
  /// δ(data edge) the analysis ran with.
  std::int64_t initial_tokens = 0;
  /// Back-edges: the recorded max-cycle-ratio bound; 0 on skeleton edges.
  std::int64_t required_initial_tokens = 0;
  std::int64_t capacity = 0;
};

/// κ-derivation policy recorded in a platform clause: the policy-exact
/// slot-granular TDM bound, or the (conservative) latency-rate
/// abstraction of the same wheel terms.
enum class ServicePolicy {
  TdmSlotGranular,
  TdmLatencyRate,
};

[[nodiscard]] const char* service_policy_name(ServicePolicy policy);

/// Per-actor κ-derivation fact for deployed analyses: the arbiter terms
/// (slot, wheel, WCET, ceil term) and the derived κ, which must
/// equal the ρ recorded in the actor's ActorFact.  The checker re-derives
/// κ from the terms in exact Rationals (ClauseKind::Kappa) without any
/// sched includes — the platform clause is self-contained.
struct PlatformFact {
  dataflow::ActorId actor;
  ServicePolicy policy = ServicePolicy::TdmSlotGranular;
  /// The task's own worst-case execution time C.
  Duration wcet;
  Duration slot;
  Duration wheel;
  /// TDM slot-granular: the ⌈C/slot⌉ witness; 0 otherwise.
  std::int64_t ceil_term = 0;
  /// Derived κ — the ρ the analysis ran with.
  Duration kappa;
};

/// The complete certificate of one admissible analysis.
struct Certificate {
  ConstraintSet constraints;
  /// Per constraint index: anchor kinds (sink-kind / source-kind region).
  std::vector<bool> constraint_is_sink_kind;
  std::vector<bool> constraint_is_source_kind;
  RoundingMode rounding = AnalysisOptions{}.rounding;
  /// One entry per actor, in the analysis' topological order.
  std::vector<ActorFact> actors;
  /// One entry per buffer, in the analysis' pair order.
  std::vector<PairFact> pairs;
  /// Platform clause: κ-derivation facts, one per deployed actor.  Empty
  /// for undeployed analyses (the clause is then vacuously valid).  Filled
  /// by analysis/deployment.cpp via attach_platform_clause().
  std::vector<PlatformFact> platform;
  std::int64_t total_capacity = 0;
};

/// Transcribes an admissible analysis into a certificate.  `overlay`
/// must be the overlay the analysis ran with (empty for the plain graph
/// entry points) — the certificate records the overlay-resolved ρ so
/// the checker validates the parameters that were actually analysed.
/// Throws ContractError when the analysis is not admissible or does not
/// carry its alignment leads (pre-PR-9 result shapes).
[[nodiscard]] Certificate make_certificate(const dataflow::VrdfGraph& graph,
                                           const GraphAnalysis& analysis,
                                           const ParameterOverlay& overlay = {});

}  // namespace vrdf::analysis
