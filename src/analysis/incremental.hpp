// Incremental re-analysis engine: keeps a GraphAnalysis continuously
// up to date across parameter changes at a fraction of the cost of a
// full compute_buffer_capacities run, with field-for-field identical
// results.
//
// The cost structure of the full analysis is a pipeline of structural
// work (validation, SCC condensation, feedback classification,
// topological ordering — all captured once in a TopologySnapshot),
// pacing propagation (φ, per-edge sides), schedule-alignment leads (ω,
// two longest-path passes), and the per-pair Eq (1)–(4) capacity terms.
// Each kind of change invalidates a different suffix of that pipeline:
//
//  * retune(actor, ρ): ρ never enters pacing propagation — φ depends
//    only on rates, topology and periods — so the cached pacing is
//    reused verbatim.  Only the ω cone reachable from the actor
//    (following each edge's rate-determining side, bounded by pinned
//    constraint anchors and early-stopping where a recomputed ω comes
//    out unchanged) and the pairs touching the actor or a changed ω
//    are re-derived.  This is the hot admission-control path.
//  * set_period with a single constraint: φ is linear in τ, so the
//    cached pacing is scaled by τ_new/τ_old (Rational arithmetic
//    canonicalises, so the scaled values are bit-identical to a fresh
//    propagation); leads and pairs re-derive on top.
//  * admit / remove / multi-constraint set_period: the constraint
//    structure itself changes (sides, anchors, seed interactions), so
//    pacing re-propagates — but on the cached snapshot, skipping the
//    structural tier entirely.
//  * set_initial_tokens(edge, δ): pacing and leads are δ-independent;
//    a data-edge override re-analyses just its own pair (feedback
//    credit / capacity), a space-edge override changes nothing in the
//    sized analysis (only min_admissible_period reads installed space).
//
// Parameter changes are applied to a ParameterOverlay, never to the
// graph; mutating the graph itself invalidates the snapshot and every
// subsequent query throws a ContractError naming the mutation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/checker.hpp"
#include "analysis/pacing.hpp"
#include "analysis/snapshot.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::analysis {

/// Work counters for the memoization tiers — exported into the bench
/// JSON so cache behaviour is visible, not inferred.
struct InvalidationStats {
  /// Mutating queries served (retune / set_period / admit / remove /
  /// set_initial_tokens).
  std::uint64_t queries = 0;
  /// Queries that re-ran the pacing propagation (admit / remove /
  /// multi-constraint set_period).
  std::uint64_t pacing_recomputes = 0;
  /// Queries that reused the cached pacing verbatim or rescaled it.
  std::uint64_t pacing_cache_hits = 0;
  /// Actors whose alignment lead ω was re-derived / reused from cache.
  std::uint64_t leads_recomputed = 0;
  std::uint64_t leads_reused = 0;
  /// Pairs re-analysed / reused from cache.
  std::uint64_t pairs_recomputed = 0;
  std::uint64_t pairs_reused = 0;
  /// Actors in the invalidation cone of the most recent query.
  std::uint64_t last_cone_actors = 0;
  /// Pairs re-analysed by the most recent query.
  std::uint64_t last_cone_pairs = 0;
  /// Certification (set_certify): certificates emitted + checked after
  /// mutating queries, individual clauses validated, and clause
  /// violations observed (a nonzero count means the incremental cache
  /// and the independent checker disagree — a bug, not an input error).
  std::uint64_t certificates_checked = 0;
  std::uint64_t certificate_clauses = 0;
  std::uint64_t certificate_violations = 0;
};

/// Long-lived analysis state over one TopologySnapshot.  analysis() is
/// always the exact GraphAnalysis compute_buffer_capacities(snapshot,
/// constraints(), options, overlay()) would return — the differential
/// tests assert field-for-field equality after every operation.
class IncrementalAnalysis {
public:
  /// Captures the snapshot (cheap: shared view) and computes the
  /// initial analysis for `constraints`.
  IncrementalAnalysis(const TopologySnapshot& snapshot,
                      ConstraintSet constraints,
                      AnalysisOptions options = {});

  /// The current analysis result (never stale with respect to the
  /// operations applied through this engine).
  [[nodiscard]] const GraphAnalysis& analysis() const;

  /// Re-tunes one actor's worst-case response time.  Reuses the cached
  /// pacing (ρ does not enter pacing propagation) and re-derives only
  /// the affected ω cone and pairs.
  void retune(dataflow::ActorId actor, Duration rho);
  /// Reverts an actor to the graph's own response time.
  void clear_retune(dataflow::ActorId actor);

  /// Moves the period of the constraint pinned at `actor` (which must
  /// carry a constraint).  Single-constraint sets rescale the cached
  /// pacing; multi-constraint sets re-propagate on the cached snapshot.
  void set_period(dataflow::ActorId actor, Duration tau);

  /// Adds a throughput constraint (a new stream's rate contract).
  /// Re-propagates pacing on the cached snapshot.
  void admit(ThroughputConstraint stream);
  /// Removes the constraint pinned at `actor` (which must carry one).
  void remove(dataflow::ActorId actor);

  /// Overrides the initial-token count of an edge.  On a pair's data
  /// edge this is the circulating feedback credit (pair-local
  /// re-analysis); on a space edge it only affects min-period queries.
  /// Contract: the override must not change the snapshot's feedback
  /// classification — an on-cycle data edge must keep (δ > 0) as it
  /// was at capture.
  void set_initial_tokens(dataflow::EdgeId edge, std::int64_t tokens);

  /// Self-checking mode: after every mutating query whose result is
  /// admissible, emit a certificate of the rendered analysis and run the
  /// independent checker over it (bind_parameters_to_graph=false — the
  /// engine's ρ/δ live in its overlay).  The engine stays usable on a
  /// violation; callers inspect last_certificate_violation() and the
  /// stats counters.  Admission control uses this as its trust gate.
  void set_certify(bool enabled);
  [[nodiscard]] bool certify() const { return certify_enabled_; }
  /// The first clause violation of the most recent certified query, or
  /// nullopt when the query was uncertified, inadmissible, or valid.
  [[nodiscard]] const std::optional<ClauseViolation>&
  last_certificate_violation() const {
    return last_violation_;
  }

  [[nodiscard]] const TopologySnapshot& snapshot() const { return snapshot_; }
  [[nodiscard]] const ConstraintSet& constraints() const {
    return constraints_;
  }
  [[nodiscard]] const ParameterOverlay& overlay() const { return overlay_; }
  [[nodiscard]] const AnalysisOptions& options() const { return options_; }
  [[nodiscard]] const InvalidationStats& stats() const { return stats_; }

private:
  /// Full pipeline on the cached snapshot: pacing + ρ-check + leads +
  /// all pairs + render.
  void repropagate_();
  /// Shared retune/clear_retune tail: re-checks ρ admissibility on the
  /// cached pacing and re-derives the ω cone + dirty pairs.
  void apply_rho_change_(dataflow::ActorId actor);
  /// ρ-check + leads + all pairs + render, on the current pacing_.
  void resize_from_pacing_();
  /// Recomputes every pair from the cached pacing_ and lead_.
  void recompute_all_pairs_();
  /// Re-analyses one pair in place, updating its cached diagnostic.
  void recompute_pair_(std::size_t pos);
  /// Re-derives the ω cone after ρ(seed) changed; records which actors'
  /// leads changed in changed_lead (indexed by ActorId::index()).
  void update_lead_cone_(dataflow::ActorId seed,
                         std::vector<char>& changed_lead);
  /// Rebuilds total_capacity / admissible and renders analysis_ from the
  /// cached tiers, reproducing the exact full-analysis shape
  /// (pacing-failed, ρ-blocked, or sized).
  void render_();
  /// Patches the rendered sized shape in place: copies just the `dirty`
  /// pair positions into analysis_ and adjusts total_capacity by their
  /// deltas.  Falls back to a full render_() when the previous render was
  /// not the sized shape or a per-pair diagnostic changed (the
  /// diagnostics vector and admissibility then need rebuilding).
  void render_patch_(const std::vector<std::size_t>& dirty, bool diag_moved);
  /// Certification tail of every mutating query: resets
  /// last_violation_, and when certify mode is on and the rendered
  /// analysis is admissible, emits + checks its certificate.
  void run_certification_();

  TopologySnapshot snapshot_;
  ConstraintSet constraints_;
  AnalysisOptions options_;
  ParameterOverlay overlay_;

  PacingResult pacing_;
  bool rho_ok_ = false;
  std::vector<std::string> rho_diags_;
  /// ω by ActorId::index(); valid only when sized_valid_.
  std::vector<Duration> lead_;
  /// Per pair position: cached PairAnalysis and its feedback diagnostic
  /// (engaged only for starving back-edges); valid only when
  /// sized_valid_.
  std::vector<PairAnalysis> pairs_;
  std::vector<std::optional<std::string>> pair_diag_;
  /// True when lead_/pairs_ match (pacing_, overlay_) — false after a
  /// ρ-blocked or pacing-failed state skipped the sizing tiers.
  bool sized_valid_ = false;

  /// Edge index -> pair position for data/space edges.
  std::vector<std::size_t> pair_of_edge_;

  GraphAnalysis analysis_;
  /// True when analysis_ currently holds the sized shape (pairs present)
  /// — the precondition for render_patch_.
  bool analysis_sized_ = false;
  InvalidationStats stats_;

  bool certify_enabled_ = false;
  std::optional<ClauseViolation> last_violation_;

  /// Scratch buffers for the retune hot path, kept as members so a
  /// steady-state service loop allocates nothing per query.
  std::vector<char> scratch_changed_lead_;
  std::vector<char> scratch_dirty_pair_;
  std::vector<char> scratch_dirty_a_;
  std::vector<char> scratch_dirty_b_;
  std::vector<std::size_t> scratch_dirty_;
};

}  // namespace vrdf::analysis
