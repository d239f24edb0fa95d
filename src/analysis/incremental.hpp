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
//    pacing re-propagates on the cached snapshot, skipping the
//    structural tier entirely.  The sized result reads the constraint
//    set only through that pacing, so when the held result and the new
//    one are both sized, the new pacing is diffed against the held one
//    instead of re-sizing.  Such a change moves no φ (any constraint
//    both sets keep fixes every φ); the ω cone is seeded with every
//    actor whose region (sink_anchored), anchor kinds or incident pair
//    side moved, and only the pairs whose side, tight-adjacency rounding
//    or endpoint-lead difference moved re-analyse.  An anchor that moves
//    shifts a whole region's ω by a constant; Eq (1)–(4) read ω only as
//    the difference across a pair, so such a shift re-sizes nothing.
//
// The engine holds one result, the GraphAnalysis it serves.  Every full
// re-size (construction, the single-constraint set_period rescale, and
// entering or leaving a ρ-blocked or pacing-failed state) assigns
// detail::size_from_pacing's result on the current pacing — the same
// code compute_buffer_capacities runs, so the three result shapes
// (pacing failed, ρ-blocked, sized) are assembled in one place.  The
// retune cone and the constraint diff patch that result in place: each
// re-analysed pair is written over its old entry, total_capacity moves
// by the difference, and the diagnostics are re-rendered only when a
// starving back-edge's diagnostic appears, vanishes or changes.
//
// Checkpoint and rollback.  The sized result is a function of the
// constraint set and the overlay's resolved ρ alone, so a caller that
// asks a what-if and rejects it wants the state it held before the
// question back, not a second query that re-derives it.  checkpoint()
// opens a mark into one undo log; while a mark is open, every query
// records what it overwrites before it writes: the constraint set, the
// overlay entry, pacing_ or analysis_ when a query replaces them whole
// (moved aside, not copied), each pair patch_pairs_ writes and each ω
// update_lead_cone_ moves, and the total capacity, admissibility and
// diagnostics of a patched result (whose copies of the pacing's fields
// come back with the pacing).  rollback() replays the records since the
// innermost mark in reverse, so the result is bit-identical to the one
// at the checkpoint, and no propagation, lead pass or pair analysis
// runs.
// commit() closes the innermost mark and keeps the state; an enclosing
// mark can still roll it back, and closing the last one empties the log.
// With no mark open the log stays empty, and each write costs one
// branch.
//
// Parameter changes are applied to a ParameterOverlay, never to the
// graph; mutating the graph itself invalidates the snapshot and every
// subsequent query throws a ContractError naming the mutation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "analysis/pacing.hpp"
#include "analysis/snapshot.hpp"
#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::analysis {

/// Work counters for the memoization tiers — exported into the bench
/// JSON so cache behaviour is visible, not inferred.
struct InvalidationStats {
  /// Mutating queries served (retune / set_period / admit / remove).
  std::uint64_t queries = 0;
  /// Queries that re-ran the pacing propagation (admit / remove /
  /// multi-constraint set_period).  One that takes a sized result to a
  /// sized result counts this one propagation, the cone's leads (as a
  /// retune does) and the pairs it re-analysed, and sets last_cone_* to
  /// those; any other one re-sizes in full.
  std::uint64_t pacing_recomputes = 0;
  /// Queries that reused the cached pacing verbatim or rescaled it.
  std::uint64_t pacing_cache_hits = 0;
  /// Actors whose alignment lead ω was re-derived / reused from cache.
  std::uint64_t leads_recomputed = 0;
  std::uint64_t leads_reused = 0;
  /// Pairs re-analysed / reused from cache.
  std::uint64_t pairs_recomputed = 0;
  std::uint64_t pairs_reused = 0;
  /// Actors whose ω the most recent query re-derived: every actor on a
  /// full re-size, the cone on a retune or a sized-to-sized constraint
  /// change, 0 whenever the result is ρ-blocked or pacing-failed.  The
  /// cone counts each ω formula it evaluates; an actor that became an
  /// anchor drops to ω = 0 uncounted.
  std::uint64_t last_cone_actors = 0;
  /// Pairs re-analysed by the most recent query (0 whenever the result
  /// is ρ-blocked or pacing-failed).
  ///
  /// rollback() is not a query: it leaves every counter, last_cone_*
  /// included, as the rolled-back queries left it.
  std::uint64_t last_cone_pairs = 0;
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
  /// The pacing of constraints() the analysis was sized on, pair rates
  /// included — what compute_pacing(snapshot(), constraints()) returns.
  /// ρ moves leave it as it is, so a caller probing many ρ vectors at
  /// once sizes each with detail::size_from_pacing instead of
  /// propagating again.
  [[nodiscard]] const PacingResult& pacing() const;

  /// Re-tunes one actor's worst-case response time.  Reuses the cached
  /// pacing (ρ does not enter pacing propagation) and re-derives only
  /// the affected ω cone and pairs.
  void retune(dataflow::ActorId actor, Duration rho);

  /// Moves the period of the constraint pinned at `actor` (which must
  /// carry a constraint).  Single-constraint sets rescale the cached
  /// pacing; multi-constraint sets re-propagate on the cached snapshot.
  void set_period(dataflow::ActorId actor, Duration tau);

  /// Adds a throughput constraint (a new stream's rate contract) at the
  /// end of constraints().  Re-propagates pacing on the cached snapshot.
  void admit(ThroughputConstraint stream);
  /// Removes the constraint pinned at `actor` (which must carry one).
  void remove(dataflow::ActorId actor);

  /// Opens a checkpoint (see the header comment).  Checkpoints nest.
  void checkpoint();
  /// Restores the state at the innermost open checkpoint exactly and
  /// closes it; a ContractError when none is open.
  void rollback();
  /// Closes the innermost open checkpoint and keeps the state; a
  /// ContractError when none is open.
  void commit();

  [[nodiscard]] const TopologySnapshot& snapshot() const { return snapshot_; }
  [[nodiscard]] const ConstraintSet& constraints() const {
    return constraints_;
  }
  [[nodiscard]] const ParameterOverlay& overlay() const { return overlay_; }
  [[nodiscard]] const AnalysisOptions& options() const { return options_; }
  [[nodiscard]] const InvalidationStats& stats() const { return stats_; }

private:
  /// Undo records: what a query overwrote, as rollback() restores it.  A
  /// ConstraintSet, PacingResult or GraphAnalysis record is the whole
  /// value a query replaced; the latter two are held by pointer, so a
  /// log slot is no larger than a pair record.
  ///
  /// One overlay ρ entry, with the size of its vector before the write.
  struct EntryUndo {
    std::size_t index = 0;
    std::size_t size = 0;
    std::optional<Duration> value;
  };
  struct PairUndo {
    std::size_t pos = 0;
    PairAnalysis pair;
  };
  /// ω at position `order` of the topological order.
  struct LeadUndo {
    std::size_t order = 0;
    Duration lead;
  };
  /// What patch_pairs_ may move besides the pairs.
  struct SummaryUndo {
    std::int64_t total_capacity = 0;
    bool admissible = false;
    std::vector<std::string> diagnostics;
  };
  using Undo = std::variant<ConstraintSet, EntryUndo,
                            std::unique_ptr<PacingResult>,
                            std::unique_ptr<GraphAnalysis>, PairUndo,
                            LeadUndo, SummaryUndo>;

  /// True while a checkpoint is open, so queries record into undo_.
  [[nodiscard]] bool logging_() const { return !marks_.empty(); }
  /// Appends make()'s record while a checkpoint is open; builds nothing
  /// otherwise.
  template <typename Make>
  void record_(Make&& make);
  /// Records the overlay's ρ entry `index` before a query writes it.
  void record_entry_(std::size_t index);
  /// analysis_'s copies of pacing_'s side, constraints, anchor kinds and
  /// φ, which every sized or ρ-blocked result shares with its pacing.
  void copy_pacing_header_();
  /// Replays one record (rollback()).
  void replay_(Undo& record);

  /// Shared tail of admit / remove / set_period once constraints_ holds
  /// the new set: rescales pacing_ by `rescale` (a single constraint's
  /// τ_new/τ_old) and rebuild_()s or, when there is none, re-propagates
  /// on the cached snapshot and patch_moved_()s, falling back to
  /// rebuild_().
  void change_constraints_(std::optional<Rational> rescale);
  /// Sized-to-sized tail of a re-propagated constraint change: diffs
  /// pacing_ against `held`, the pacing analysis_ was sized on, and
  /// patches analysis_ where they differ (see the header comment).
  /// Returns false, touching nothing but scratch, when analysis_ is not
  /// sized, pacing_ failed, or some φ moved (which a sized-to-sized change
  /// cannot do; the definition says why).
  bool patch_moved_(const PacingResult& held);
  /// Full re-size on the current pacing_: analysis_ becomes
  /// detail::size_from_pacing's result, and lead_ is refilled from its
  /// leads when it is sized.
  void rebuild_();
  /// lead_ from analysis_.leads (by ActorId::index()).
  void refill_leads_();
  /// True when analysis_ holds the sized shape — false after a failed
  /// pacing or a ρ-blocked check, which carry no leads.
  [[nodiscard]] bool sized_() const { return !analysis_.leads.empty(); }
  /// retune's tail: on a sized result whose ρ check still holds,
  /// re-derives the ω cone and patches the dirty pairs; otherwise
  /// rebuild_().
  void apply_rho_change_(dataflow::ActorId actor);
  /// Re-derives the ω cone in lead_ from the seeds marked in
  /// scratch_dirty_a_ / scratch_dirty_b_ (by ActorId::index(): actors
  /// whose pass-A / pass-B formula may have moved; a marked anchor drops
  /// to ω = 0); records which actors' leads changed in changed_lead.
  void update_lead_cone_(std::vector<char>& changed_lead);
  /// Re-analyses the pairs at the `dirty` positions into analysis_ in
  /// place: adjusts total_capacity by their change, refreshes the leads
  /// from lead_, and re-renders the diagnostics (and admissibility) when
  /// a starving back-edge's diagnostic appeared, vanished or changed.
  void patch_pairs_(const std::vector<std::size_t>& dirty);
  /// Position in constraints_ of the constraint pinned at `actor`; a
  /// ContractError "<what>: actor carries no constraint in the set" when
  /// there is none.
  [[nodiscard]] std::size_t constraint_index_(dataflow::ActorId actor,
                                              const char* what) const;

  TopologySnapshot snapshot_;
  ConstraintSet constraints_;
  AnalysisOptions options_;
  ParameterOverlay overlay_;

  PacingResult pacing_;
  /// The one result analysis() serves; every query rebuilds or patches
  /// it, and rollback() restores it.
  GraphAnalysis analysis_;
  /// ω by ActorId::index(), the working array of the ω-cone pass; equal
  /// to analysis_.leads (in topological order) while sized_(), and read
  /// only then.
  std::vector<Duration> lead_;

  InvalidationStats stats_;

  /// The undo log and the open checkpoints (where each one's records
  /// start in undo_), innermost last.
  std::vector<Undo> undo_;
  std::vector<std::size_t> marks_;

  /// Scratch buffers for the retune hot path, kept as members so a
  /// steady-state service loop allocates nothing per query.
  std::vector<char> scratch_changed_lead_;
  std::vector<char> scratch_dirty_pair_;
  std::vector<char> scratch_dirty_a_;
  std::vector<char> scratch_dirty_b_;
  std::vector<std::size_t> scratch_dirty_;
  /// Per actor, how far a constraint change's cone moved its ω.
  std::vector<Duration> scratch_lead_shift_;
};

}  // namespace vrdf::analysis
