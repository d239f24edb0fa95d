#include "analysis/incremental.hpp"

#include <string>
#include <utility>

#include "analysis/sizing_core.hpp"
#include "util/checked_int.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {

using dataflow::VrdfGraph;

namespace {

template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};

}  // namespace

IncrementalAnalysis::IncrementalAnalysis(const TopologySnapshot& snapshot,
                                         ConstraintSet constraints,
                                         AnalysisOptions options)
    : snapshot_(snapshot),
      constraints_(std::move(constraints)),
      options_(options) {
  snapshot_.require_fresh();
  ++stats_.pacing_recomputes;
  pacing_ = compute_pacing(snapshot_, constraints_);
  rebuild_();
}

const GraphAnalysis& IncrementalAnalysis::analysis() const {
  snapshot_.require_fresh();
  return analysis_;
}

const PacingResult& IncrementalAnalysis::pacing() const {
  snapshot_.require_fresh();
  return pacing_;
}

void IncrementalAnalysis::checkpoint() { marks_.push_back(undo_.size()); }

void IncrementalAnalysis::rollback() {
  VRDF_REQUIRE(logging_(), "rollback: no open checkpoint");
  while (undo_.size() > marks_.back()) {
    replay_(undo_.back());
    undo_.pop_back();
  }
  marks_.pop_back();
}

void IncrementalAnalysis::commit() {
  VRDF_REQUIRE(logging_(), "commit: no open checkpoint");
  marks_.pop_back();
  if (marks_.empty()) {
    undo_.clear();
  }
}

template <typename Make>
void IncrementalAnalysis::record_(Make&& make) {
  if (logging_()) {
    undo_.emplace_back(make());
  }
}

void IncrementalAnalysis::record_entry_(std::size_t index) {
  record_([&] {
    const std::vector<std::optional<Duration>>& entries =
        overlay_.response_time;
    return EntryUndo{index, entries.size(),
                     index < entries.size() ? entries[index] : std::nullopt};
  });
}

void IncrementalAnalysis::copy_pacing_header_() {
  analysis_.side = pacing_.side;
  analysis_.constraints = pacing_.constraints;
  analysis_.constraint_is_sink_kind = pacing_.constraint_is_sink_kind;
  analysis_.constraint_is_source_kind = pacing_.constraint_is_source_kind;
  analysis_.pacing = pacing_.pacing;
}

void IncrementalAnalysis::replay_(Undo& record) {
  std::visit(
      Overloaded{
          [this](ConstraintSet& set) { constraints_ = std::move(set); },
          [this](EntryUndo& u) {
            std::vector<std::optional<Duration>>& entries =
                overlay_.response_time;
            if (u.index < u.size) {
              entries[u.index] = u.value;
            }
            entries.resize(u.size);
          },
          [this](std::unique_ptr<PacingResult>& pacing) {
            // A patched result took its header from the pacing it
            // replaced; any other result already matches it.
            pacing_ = std::move(*pacing);
            if (sized_()) {
              copy_pacing_header_();
            }
          },
          [this](std::unique_ptr<GraphAnalysis>& analysis) {
            analysis_ = std::move(*analysis);
            if (sized_()) {
              refill_leads_();
            }
          },
          [this](PairUndo& u) { analysis_.pairs[u.pos] = u.pair; },
          [this](LeadUndo& u) {
            lead_[analysis_.actors_in_order[u.order].index()] = u.lead;
            analysis_.leads[u.order] = u.lead;
          },
          [this](SummaryUndo& u) {
            analysis_.total_capacity = u.total_capacity;
            analysis_.admissible = u.admissible;
            analysis_.diagnostics = std::move(u.diagnostics);
          },
      },
      record);
}

void IncrementalAnalysis::retune(dataflow::ActorId actor, Duration rho) {
  snapshot_.require_fresh();
  const VrdfGraph& graph = snapshot_.graph();
  (void)graph.actor(actor);  // range check before caching
  ++stats_.queries;
  record_entry_(actor.index());
  overlay_.set_response_time(actor, rho);
  apply_rho_change_(actor);
}

void IncrementalAnalysis::set_period(dataflow::ActorId actor, Duration tau) {
  snapshot_.require_fresh();
  ++stats_.queries;
  const std::size_t index = constraint_index_(actor, "set_period");
  std::optional<Rational> rescale;
  if (constraints_.size() == 1 && pacing_.ok && tau.is_positive()) {
    // φ is linear in τ, so the cached propagation rescales exactly (see
    // rescale_pacing); with one constraint there are no cross-seed checks
    // that a rescale could flip.
    rescale = tau.seconds() / constraints_[index].period.seconds();
  }
  record_([&] { return constraints_; });
  constraints_[index].period = tau;
  change_constraints_(rescale);
}

void IncrementalAnalysis::admit(ThroughputConstraint stream) {
  snapshot_.require_fresh();
  ++stats_.queries;
  record_([&] { return constraints_; });
  constraints_.push_back(stream);
  change_constraints_(std::nullopt);
}

void IncrementalAnalysis::remove(dataflow::ActorId actor) {
  snapshot_.require_fresh();
  ++stats_.queries;
  const std::size_t index = constraint_index_(actor, "remove");
  record_([&] { return constraints_; });
  constraints_.erase(constraints_.begin() +
                     static_cast<std::ptrdiff_t>(index));
  change_constraints_(std::nullopt);
}

void IncrementalAnalysis::change_constraints_(
    std::optional<Rational> rescale) {
  if (rescale.has_value()) {
    record_([&] { return std::make_unique<PacingResult>(pacing_); });
    rescale_pacing(pacing_, snapshot_.graph(), *rescale);
    ++stats_.pacing_cache_hits;
    rebuild_();
    return;
  }
  // Recorded before the patch writes anything, so a rollback after a
  // throw mid-patch still finds it; the log holds the pacing by pointer,
  // so `replaced` stays valid.
  auto held = std::make_unique<PacingResult>(
      std::exchange(pacing_, compute_pacing(snapshot_, constraints_)));
  ++stats_.pacing_recomputes;
  const PacingResult& replaced = *held;
  record_([&] { return std::move(held); });
  if (!patch_moved_(replaced)) {
    rebuild_();
  }
}

bool IncrementalAnalysis::patch_moved_(const PacingResult& held) {
  if (!sized_() || !pacing_.ok) {
    return false;
  }
  const VrdfGraph& graph = snapshot_.graph();
  const dataflow::VrdfGraph::BufferView& view = *pacing_.view;
  const std::size_t n = graph.actor_count();
  const auto kinds = [](const PacingResult& pacing, dataflow::ActorId v) {
    return std::pair(detail::constrained_kind(pacing, v, /*sink_kind=*/true),
                     detail::constrained_kind(pacing, v, /*sink_kind=*/false));
  };

  // A change between two ok pacings moves no φ.  In an ok pacing every
  // skeleton edge fixes the ratio of its endpoints' φ, and the skeleton
  // spans the weakly connected graph, so any one constraint both sets
  // keep fixes every φ.  An edge whose side differs between the two sets
  // is sink-determined with a source-reached producer in the larger set,
  // so the coupling rule made it static, and its ratio is the same under
  // both sides.  A moved φ would mean no constraint was kept: re-size in
  // full.  With φ unchanged the ρ ≤ φ check still holds, and a pair's
  // rates (φ of its near end over a fixed rate) move only with its side.
  if (pacing_.pacing_by_actor != held.pacing_by_actor) {
    return false;
  }

  // Seeds: actors whose ω formula may read something new — region or
  // anchor kinds (which pass computes ω, or pins it at 0).
  std::vector<char>& dirty_a = scratch_dirty_a_;
  std::vector<char>& dirty_b = scratch_dirty_b_;
  dirty_a.assign(n, 0);
  dirty_b.assign(n, 0);
  for (const dataflow::ActorId v : pacing_.actors_in_order) {
    const std::size_t i = v.index();
    if (pacing_.sink_anchored[i] != held.sink_anchored[i] ||
        kinds(pacing_, v) != kinds(held, v)) {
      dirty_a[i] = 1;
      dirty_b[i] = 1;
    }
  }
  // Pairs whose side or tight-adjacency rounding moved re-analyse, and
  // their endpoints' ω formulas read the side's rates.
  std::vector<char>& dirty_pair = scratch_dirty_pair_;
  dirty_pair.assign(analysis_.pairs.size(), 0);
  for (std::size_t pos = 0; pos < dirty_pair.size(); ++pos) {
    const dataflow::Edge& data = graph.edge(view.buffers[pos].data);
    if (pacing_.determined_by[pos] != held.determined_by[pos]) {
      dirty_pair[pos] = 1;
      for (const dataflow::ActorId v : {data.source, data.target}) {
        dirty_a[v.index()] = 1;
        dirty_b[v.index()] = 1;
      }
    } else if (detail::adjacent_to_anchor(pacing_, data, pos) !=
               detail::adjacent_to_anchor(held, data, pos)) {
      dirty_pair[pos] = 1;
    }
  }

  // A pair reads ω only as the difference across it (reversed on a
  // back-edge), so a pair whose two ω shifted by the same amount keeps
  // its entry: compare the endpoints' shifts, 0 where ω did not move.
  std::vector<Duration>& shift = scratch_lead_shift_;
  shift = lead_;
  std::vector<char>& changed_lead = scratch_changed_lead_;
  changed_lead.assign(n, 0);
  update_lead_cone_(changed_lead);
  for (std::size_t i = 0; i < n; ++i) {
    shift[i] = changed_lead[i] ? lead_[i] - shift[i] : Duration();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!changed_lead[i]) {
      continue;
    }
    for (const std::size_t pos : snapshot_.incident_pairs()[i]) {
      const PairAnalysis& pair = analysis_.pairs[pos];
      if (shift[pair.producer.index()] != shift[pair.consumer.index()]) {
        dirty_pair[pos] = 1;
      }
    }
  }
  std::vector<std::size_t>& dirty = scratch_dirty_;
  dirty.clear();
  for (std::size_t pos = 0; pos < dirty_pair.size(); ++pos) {
    if (dirty_pair[pos]) {
      dirty.push_back(pos);
    }
  }

  copy_pacing_header_();
  patch_pairs_(dirty);  // an ok pacing carries no diagnostics
  return true;
}

std::size_t IncrementalAnalysis::constraint_index_(dataflow::ActorId actor,
                                                   const char* what) const {
  std::size_t index = 0;
  while (index < constraints_.size() && constraints_[index].actor != actor) {
    ++index;
  }
  VRDF_REQUIRE(index < constraints_.size(),
               std::string(what) +
                   ": actor carries no constraint in the set");
  return index;
}

void IncrementalAnalysis::apply_rho_change_(dataflow::ActorId actor) {
  const VrdfGraph& graph = snapshot_.graph();
  ++stats_.pacing_cache_hits;  // ρ never enters pacing propagation
  // Leaving a ρ-blocked state (or retuning under a failed pacing) re-sizes
  // in full.  ρ-admissibility is per actor (ρ(v) <= φ(v)) and only this
  // actor's ρ moved, so on a sized result one comparison decides the
  // whole check.
  if (!sized_() || overlay_.response_time_of(graph, actor) >
                       pacing_.pacing_by_actor[actor.index()]) {
    rebuild_();
    return;
  }
  // ρ(actor) enters its own pass-A formula and — as ρ(source) — the
  // pass-B formula of every consumer behind a source-determined out-edge.
  const dataflow::VrdfGraph::BufferView& view = *pacing_.view;
  scratch_dirty_a_.assign(graph.actor_count(), 0);
  scratch_dirty_b_.assign(graph.actor_count(), 0);
  scratch_dirty_a_[actor.index()] = 1;
  for (const std::size_t pos : view.out_buffers[actor.index()]) {
    if (pacing_.determined_by[pos] == ConstraintSide::Source) {
      scratch_dirty_b_[graph.edge(view.buffers[pos].data).target.index()] = 1;
    }
  }
  std::vector<char>& changed_lead = scratch_changed_lead_;
  changed_lead.assign(graph.actor_count(), 0);
  update_lead_cone_(changed_lead);
  // Pair invalidation: pairs touching the retuned actor (its ρ enters
  // their chain-local and consumer slack terms) plus pairs touching any
  // actor whose ω moved (their alignment gap reads both endpoint leads).
  std::vector<char>& dirty_pair = scratch_dirty_pair_;
  dirty_pair.assign(analysis_.pairs.size(), 0);
  for (const std::size_t pos : snapshot_.incident_pairs()[actor.index()]) {
    dirty_pair[pos] = 1;
  }
  for (std::size_t i = 0; i < changed_lead.size(); ++i) {
    if (!changed_lead[i]) {
      continue;
    }
    for (const std::size_t pos : snapshot_.incident_pairs()[i]) {
      dirty_pair[pos] = 1;
    }
  }
  std::vector<std::size_t>& dirty = scratch_dirty_;
  dirty.clear();
  for (std::size_t pos = 0; pos < dirty_pair.size(); ++pos) {
    if (dirty_pair[pos]) {
      dirty.push_back(pos);
    }
  }
  patch_pairs_(dirty);
}

void IncrementalAnalysis::update_lead_cone_(std::vector<char>& changed_lead) {
  const VrdfGraph& graph = snapshot_.graph();
  const dataflow::VrdfGraph::BufferView& view = *pacing_.view;
  const std::size_t n = graph.actor_count();
  std::vector<char>& dirty_a = scratch_dirty_a_;
  std::vector<char>& dirty_b = scratch_dirty_b_;

  std::uint64_t recomputed = 0;
  // Pass A — reverse topological order over the dirty sink-anchored
  // actors; a changed ω wakes its pass-A producers (sink-determined
  // in-edges point at actors earlier in the order, visited later in this
  // sweep) and hands off to pass B through source-determined out-edges.
  // A sink-anchored actor outside pass A is a sink-kind anchor (ω = 0).
  for (std::size_t i = pacing_.actors_in_order.size(); i-- > 0;) {
    const dataflow::ActorId v = pacing_.actors_in_order[i];
    if (!dirty_a[v.index()] || !pacing_.sink_anchored[v.index()]) {
      continue;
    }
    Duration fresh;
    if (!detail::constrained_kind(pacing_, v, /*sink_kind=*/true)) {
      fresh = detail::lead_pass_a_of(graph, overlay_, pacing_, lead_, v);
      ++recomputed;
    }
    if (fresh == lead_[v.index()]) {
      continue;  // early stop: the cone ends where ω is unchanged
    }
    record_([&] { return LeadUndo{i, lead_[v.index()]}; });
    lead_[v.index()] = fresh;
    changed_lead[v.index()] = 1;
    for (const std::size_t pos : view.in_buffers[v.index()]) {
      if (pacing_.determined_by[pos] == ConstraintSide::Sink) {
        dirty_a[graph.edge(view.buffers[pos].data).source.index()] = 1;
      }
    }
    for (const std::size_t pos : view.out_buffers[v.index()]) {
      if (pacing_.determined_by[pos] == ConstraintSide::Source) {
        dirty_b[graph.edge(view.buffers[pos].data).target.index()] = 1;
      }
    }
  }
  // Pass B — forward order over the rest; a changed ω wakes the
  // consumers behind source-determined out-edges (pass A never reads a
  // pass-B lead: sink-determined targets are always sink-anchored).  An
  // actor here outside pass B is a source-kind anchor (ω = 0).
  for (std::size_t i = 0; i < pacing_.actors_in_order.size(); ++i) {
    const dataflow::ActorId v = pacing_.actors_in_order[i];
    if (!dirty_b[v.index()] || pacing_.sink_anchored[v.index()]) {
      continue;
    }
    Duration fresh;
    if (!detail::constrained_kind(pacing_, v, /*sink_kind=*/false)) {
      fresh = detail::lead_pass_b_of(graph, overlay_, pacing_, lead_, v);
      ++recomputed;
    }
    if (fresh == lead_[v.index()]) {
      continue;
    }
    record_([&] { return LeadUndo{i, lead_[v.index()]}; });
    lead_[v.index()] = fresh;
    changed_lead[v.index()] = 1;
    for (const std::size_t pos : view.out_buffers[v.index()]) {
      if (pacing_.determined_by[pos] == ConstraintSide::Source) {
        dirty_b[graph.edge(view.buffers[pos].data).target.index()] = 1;
      }
    }
  }
  stats_.leads_recomputed += recomputed;
  stats_.leads_reused += n - recomputed;
  stats_.last_cone_actors = recomputed;
}

void IncrementalAnalysis::rebuild_() {
  const VrdfGraph& graph = snapshot_.graph();
  GraphAnalysis next =
      detail::size_from_pacing(graph, pacing_, options_, overlay_);
  record_(
      [&] { return std::make_unique<GraphAnalysis>(std::move(analysis_)); });
  analysis_ = std::move(next);
  if (!sized_()) {
    stats_.last_cone_actors = 0;
    stats_.last_cone_pairs = 0;
    return;
  }
  refill_leads_();
  stats_.leads_recomputed += graph.actor_count();
  stats_.pairs_recomputed += analysis_.pairs.size();
  stats_.last_cone_actors = graph.actor_count();
  stats_.last_cone_pairs = analysis_.pairs.size();
}

void IncrementalAnalysis::refill_leads_() {
  lead_.assign(snapshot_.graph().actor_count(), Duration());
  for (std::size_t i = 0; i < analysis_.leads.size(); ++i) {
    lead_[analysis_.actors_in_order[i].index()] = analysis_.leads[i];
  }
}

void IncrementalAnalysis::patch_pairs_(const std::vector<std::size_t>& dirty) {
  const VrdfGraph& graph = snapshot_.graph();
  record_([&] {
    return SummaryUndo{analysis_.total_capacity, analysis_.admissible,
                       analysis_.diagnostics};
  });
  bool diagnostics_moved = false;
  for (const std::size_t pos : dirty) {
    const PairAnalysis fresh = detail::analyse_pair(
        graph, overlay_, pacing_, lead_, pos, options_);
    PairAnalysis& pair = analysis_.pairs[pos];
    // A starving back-edge's diagnostic names its δ and required count.
    diagnostics_moved =
        diagnostics_moved || detail::starves(pair) != detail::starves(fresh) ||
        (detail::starves(fresh) &&
         (pair.initial_tokens != fresh.initial_tokens ||
          pair.required_initial_tokens != fresh.required_initial_tokens));
    analysis_.total_capacity = checked_add(analysis_.total_capacity,
                                           fresh.capacity - pair.capacity);
    record_([&] { return PairUndo{pos, pair}; });
    pair = fresh;
  }
  // The lead cone may have moved some ω values (trivially copyable, O(V),
  // no allocation in steady state).
  for (std::size_t i = 0; i < analysis_.leads.size(); ++i) {
    analysis_.leads[i] = lead_[analysis_.actors_in_order[i].index()];
  }
  if (diagnostics_moved) {
    analysis_.diagnostics = pacing_.diagnostics;
    analysis_.admissible = detail::append_starving_diagnostics(
        graph, analysis_.pairs, analysis_.diagnostics);
  }
  stats_.pairs_recomputed += dirty.size();
  stats_.pairs_reused += analysis_.pairs.size() - dirty.size();
  stats_.last_cone_pairs = dirty.size();
}

}  // namespace vrdf::analysis
