#include "analysis/incremental.hpp"

#include "analysis/certificate.hpp"
#include "analysis/sizing_core.hpp"
#include "util/checked_int.hpp"
#include "util/error.hpp"

namespace vrdf::analysis {

using dataflow::VrdfGraph;

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

}  // namespace

IncrementalAnalysis::IncrementalAnalysis(const TopologySnapshot& snapshot,
                                         ConstraintSet constraints,
                                         AnalysisOptions options)
    : snapshot_(snapshot),
      constraints_(std::move(constraints)),
      options_(options) {
  snapshot_.require_fresh();
  if (snapshot_.ok()) {
    const VrdfGraph& graph = snapshot_.graph();
    pair_of_edge_.assign(graph.edge_count(), npos);
    const dataflow::VrdfGraph::BufferView& view = snapshot_.view();
    for (std::size_t pos = 0; pos < view.buffers.size(); ++pos) {
      pair_of_edge_[view.buffers[pos].data.index()] = pos;
      pair_of_edge_[view.buffers[pos].space.index()] = pos;
    }
  }
  repropagate_();
}

const GraphAnalysis& IncrementalAnalysis::analysis() const {
  snapshot_.require_fresh();
  return analysis_;
}

const PacingResult& IncrementalAnalysis::pacing() const {
  snapshot_.require_fresh();
  return pacing_;
}

void IncrementalAnalysis::set_certify(bool enabled) {
  certify_enabled_ = enabled;
  if (!enabled) {
    last_violation_.reset();
  }
}

void IncrementalAnalysis::run_certification_() {
  last_violation_.reset();
  if (!certify_enabled_ || !analysis_.admissible) {
    return;
  }
  const Certificate cert =
      make_certificate(snapshot_.graph(), analysis_, overlay_);
  CheckerOptions checker_options;
  // The engine's ρ/δ live in its overlay, not in the graph; the
  // certificate records the overlay-resolved values.
  checker_options.bind_parameters_to_graph = false;
  const CertificateCheck check =
      check_certificate(snapshot_.graph(), cert, checker_options);
  ++stats_.certificates_checked;
  stats_.certificate_clauses += check.clauses_checked;
  if (!check.ok) {
    stats_.certificate_violations += check.violations.size();
    last_violation_ = check.violations.front();
  }
}

void IncrementalAnalysis::retune(dataflow::ActorId actor, Duration rho) {
  snapshot_.require_fresh();
  (void)snapshot_.graph().actor(actor);  // range check before caching
  ++stats_.queries;
  overlay_.set_response_time(actor, rho);
  apply_rho_change_(actor);
  run_certification_();
}

void IncrementalAnalysis::clear_retune(dataflow::ActorId actor) {
  snapshot_.require_fresh();
  (void)snapshot_.graph().actor(actor);
  ++stats_.queries;
  overlay_.clear_response_time(actor);
  apply_rho_change_(actor);
  run_certification_();
}

void IncrementalAnalysis::set_period(dataflow::ActorId actor, Duration tau) {
  snapshot_.require_fresh();
  ++stats_.queries;
  std::size_t index = npos;
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (constraints_[i].actor == actor) {
      index = i;
      break;
    }
  }
  VRDF_REQUIRE(index != npos,
               "set_period: actor carries no constraint in the set");
  const Duration old = constraints_[index].period;
  constraints_[index].period = tau;
  if (constraints_.size() == 1 && pacing_.ok && tau.is_positive()) {
    // φ is linear in τ, so the cached propagation rescales exactly (see
    // rescale_pacing); with one constraint there are no cross-seed checks
    // that a rescale could flip.
    rescale_pacing(pacing_, snapshot_.graph(), tau.seconds() / old.seconds());
    ++stats_.pacing_cache_hits;
    resize_from_pacing_();
    run_certification_();
    return;
  }
  repropagate_();
  run_certification_();
}

void IncrementalAnalysis::admit(ThroughputConstraint stream) {
  snapshot_.require_fresh();
  ++stats_.queries;
  constraints_.push_back(stream);
  repropagate_();
  run_certification_();
}

void IncrementalAnalysis::remove(dataflow::ActorId actor) {
  snapshot_.require_fresh();
  ++stats_.queries;
  std::size_t index = npos;
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (constraints_[i].actor == actor) {
      index = i;
      break;
    }
  }
  VRDF_REQUIRE(index != npos,
               "remove: actor carries no constraint in the set");
  constraints_.erase(constraints_.begin() +
                     static_cast<std::ptrdiff_t>(index));
  repropagate_();
  run_certification_();
}

void IncrementalAnalysis::set_initial_tokens(dataflow::EdgeId edge,
                                             std::int64_t tokens) {
  snapshot_.require_fresh();
  const VrdfGraph& graph = snapshot_.graph();
  const dataflow::Edge& e = graph.edge(edge);  // range check
  ++stats_.queries;
  std::size_t pos = npos;
  bool is_data_edge = false;
  if (snapshot_.ok() && edge.index() < pair_of_edge_.size()) {
    pos = pair_of_edge_[edge.index()];
    if (pos != npos) {
      is_data_edge = snapshot_.view().buffers[pos].data == edge;
      if (is_data_edge && snapshot_.view().on_cycle[pos]) {
        // The snapshot's feedback classification keyed on which on-cycle
        // data edges carried tokens at capture; an override that crosses
        // zero would describe a differently-classified graph.
        VRDF_REQUIRE(
            (tokens > 0) == (e.initial_tokens > 0),
            "set_initial_tokens: overriding delta across zero on the "
            "on-cycle data edge " +
                graph.actor(e.source).name + " -> " +
                graph.actor(e.target).name +
                " would change the snapshot's feedback classification; "
                "mutate the graph and re-capture the snapshot instead");
      }
    }
  }
  overlay_.set_initial_tokens(edge, tokens);
  ++stats_.pacing_cache_hits;
  if (!pacing_.ok || !rho_ok_) {
    // δ enters neither pacing nor the ρ checks; the failed shape stands.
    render_();
    run_certification_();
    return;
  }
  if (!sized_valid_) {
    lead_ = detail::compute_alignment_leads(graph, overlay_, pacing_);
    stats_.leads_recomputed += graph.actor_count();
    recompute_all_pairs_();
    sized_valid_ = true;
    render_();
    run_certification_();
    return;
  }
  // Pacing and leads are δ-independent; only the pair whose circulating
  // credit moved re-analyses.  A space-edge override affects nothing in
  // the sized analysis (only min_admissible_period reads installed
  // space).
  stats_.leads_reused += graph.actor_count();
  stats_.last_cone_actors = 0;
  if (is_data_edge) {
    const std::optional<std::string> old = std::move(pair_diag_[pos]);
    recompute_pair_(pos);
    ++stats_.pairs_recomputed;
    stats_.pairs_reused += pairs_.size() - 1;
    stats_.last_cone_pairs = 1;
    render_patch_({pos}, pair_diag_[pos] != old);
  } else {
    // Space-edge override: nothing in the sized analysis reads installed
    // space, so the rendered result stands as-is.
    stats_.pairs_reused += pairs_.size();
    stats_.last_cone_pairs = 0;
  }
  run_certification_();
}

void IncrementalAnalysis::apply_rho_change_(dataflow::ActorId actor) {
  const VrdfGraph& graph = snapshot_.graph();
  ++stats_.pacing_cache_hits;  // ρ never enters pacing propagation
  if (!pacing_.ok) {
    render_();
    return;
  }
  if (!rho_ok_ || !sized_valid_) {
    // Coming out of a ρ-blocked or unsized state: full ρ re-check (the
    // diagnostics list in actor order has to be rebuilt from scratch)
    // and, if it passes, a full lead/pair rebuild.
    rho_diags_.clear();
    rho_ok_ = detail::check_schedule_validity(graph, overlay_, pacing_,
                                              rho_diags_);
    if (!rho_ok_) {
      sized_valid_ = false;
      render_();
      return;
    }
    lead_ = detail::compute_alignment_leads(graph, overlay_, pacing_);
    stats_.leads_recomputed += graph.actor_count();
    recompute_all_pairs_();
    sized_valid_ = true;
    render_();
    return;
  }
  // ρ-admissibility is per actor (ρ(v) <= φ(v)) and only this actor's ρ
  // moved, so one comparison decides the whole check.
  if (overlay_.response_time_of(graph, actor) >
      pacing_.pacing_by_actor[actor.index()]) {
    rho_diags_.clear();
    rho_ok_ = detail::check_schedule_validity(graph, overlay_, pacing_,
                                              rho_diags_);
    sized_valid_ = false;
    render_();
    return;
  }
  std::vector<char>& changed_lead = scratch_changed_lead_;
  changed_lead.assign(graph.actor_count(), 0);
  update_lead_cone_(actor, changed_lead);
  // Pair invalidation: pairs touching the retuned actor (its ρ enters
  // their chain-local and consumer slack terms) plus pairs touching any
  // actor whose ω moved (their alignment gap reads both endpoint leads).
  std::vector<char>& dirty_pair = scratch_dirty_pair_;
  dirty_pair.assign(pairs_.size(), 0);
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
  bool diag_moved = false;
  for (std::size_t pos = 0; pos < pairs_.size(); ++pos) {
    if (!dirty_pair[pos]) {
      continue;
    }
    const std::optional<std::string> old = std::move(pair_diag_[pos]);
    recompute_pair_(pos);
    diag_moved = diag_moved || pair_diag_[pos] != old;
    dirty.push_back(pos);
  }
  stats_.pairs_recomputed += dirty.size();
  stats_.pairs_reused += pairs_.size() - dirty.size();
  stats_.last_cone_pairs = dirty.size();
  render_patch_(dirty, diag_moved);
}

void IncrementalAnalysis::update_lead_cone_(dataflow::ActorId seed,
                                            std::vector<char>& changed_lead) {
  const VrdfGraph& graph = snapshot_.graph();
  const dataflow::VrdfGraph::BufferView& view = *pacing_.view;
  const std::size_t n = graph.actor_count();

  const auto processed_in_a = [&](dataflow::ActorId v) {
    return pacing_.sink_anchored[v.index()] &&
           !detail::constrained_kind(pacing_, v, /*sink_kind=*/true);
  };
  const auto processed_in_b = [&](dataflow::ActorId v) {
    return !pacing_.sink_anchored[v.index()] &&
           !detail::constrained_kind(pacing_, v, /*sink_kind=*/false);
  };

  std::vector<char>& dirty_a = scratch_dirty_a_;
  std::vector<char>& dirty_b = scratch_dirty_b_;
  dirty_a.assign(n, 0);
  dirty_b.assign(n, 0);
  // ρ(seed) enters the seed's own pass-A formula and — as ρ(source) —
  // the pass-B formula of every consumer behind a source-determined
  // out-edge.
  dirty_a[seed.index()] = 1;
  for (const std::size_t pos : view.out_buffers[seed.index()]) {
    if (pacing_.determined_by[pos] == ConstraintSide::Source) {
      dirty_b[graph.edge(view.buffers[pos].data).target.index()] = 1;
    }
  }

  std::uint64_t recomputed = 0;
  // Pass A — reverse topological order over the dirty sink-anchored
  // actors; a changed ω wakes its pass-A producers (sink-determined
  // in-edges point at actors earlier in the order, visited later in this
  // sweep) and hands off to pass B through source-determined out-edges.
  for (std::size_t i = pacing_.actors_in_order.size(); i-- > 0;) {
    const dataflow::ActorId v = pacing_.actors_in_order[i];
    if (!dirty_a[v.index()] || !processed_in_a(v)) {
      continue;
    }
    const Duration fresh =
        detail::lead_pass_a_of(graph, overlay_, pacing_, lead_, v);
    ++recomputed;
    if (fresh == lead_[v.index()]) {
      continue;  // early stop: the cone ends where ω is unchanged
    }
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
  // pass-B lead: sink-determined targets are always sink-anchored).
  for (const dataflow::ActorId v : pacing_.actors_in_order) {
    if (!dirty_b[v.index()] || !processed_in_b(v)) {
      continue;
    }
    const Duration fresh =
        detail::lead_pass_b_of(graph, overlay_, pacing_, lead_, v);
    ++recomputed;
    if (fresh == lead_[v.index()]) {
      continue;
    }
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

void IncrementalAnalysis::repropagate_() {
  ++stats_.pacing_recomputes;
  pacing_ = compute_pacing(snapshot_, constraints_);
  if (!pacing_.ok) {
    rho_ok_ = false;
    sized_valid_ = false;
    render_();
    return;
  }
  resize_from_pacing_();
}

void IncrementalAnalysis::resize_from_pacing_() {
  const VrdfGraph& graph = snapshot_.graph();
  rho_diags_.clear();
  rho_ok_ = detail::check_schedule_validity(graph, overlay_, pacing_,
                                            rho_diags_);
  if (!rho_ok_) {
    sized_valid_ = false;
    render_();
    return;
  }
  lead_ = detail::compute_alignment_leads(graph, overlay_, pacing_);
  stats_.leads_recomputed += graph.actor_count();
  stats_.last_cone_actors = graph.actor_count();
  recompute_all_pairs_();
  sized_valid_ = true;
  render_();
}

void IncrementalAnalysis::recompute_all_pairs_() {
  pairs_.resize(pacing_.buffers_in_order.size());
  pair_diag_.assign(pacing_.buffers_in_order.size(), std::nullopt);
  for (std::size_t pos = 0; pos < pairs_.size(); ++pos) {
    recompute_pair_(pos);
  }
  stats_.pairs_recomputed += pairs_.size();
  stats_.last_cone_pairs = pairs_.size();
}

void IncrementalAnalysis::recompute_pair_(std::size_t pos) {
  const VrdfGraph& graph = snapshot_.graph();
  std::vector<std::string> diags;
  bool admissible = true;
  pairs_[pos] = detail::analyse_pair(graph, overlay_, pacing_, lead_, pos,
                                     options_, diags, admissible);
  pair_diag_[pos] =
      diags.empty() ? std::nullopt : std::optional<std::string>(diags.front());
}

void IncrementalAnalysis::render_patch_(const std::vector<std::size_t>& dirty,
                                        bool diag_moved) {
  if (!analysis_sized_ || diag_moved) {
    render_();
    return;
  }
  // The lead cone may have moved some ω values; refresh the rendered
  // leads (trivially copyable, O(V), no allocation in steady state).
  for (std::size_t i = 0; i < pacing_.actors_in_order.size(); ++i) {
    analysis_.leads[i] = lead_[pacing_.actors_in_order[i].index()];
  }
  for (const std::size_t pos : dirty) {
    analysis_.total_capacity =
        checked_add(analysis_.total_capacity,
                    pairs_[pos].capacity - analysis_.pairs[pos].capacity);
    analysis_.pairs[pos] = pairs_[pos];
  }
}

void IncrementalAnalysis::render_() {
  // Reproduces the three result shapes of compute_buffer_capacities
  // exactly: pacing-failed (diagnostics only), ρ-blocked (headers and
  // pacing, no pairs), and sized (everything, feedback diagnostics in
  // pair order).
  analysis_sized_ = pacing_.ok && rho_ok_;
  analysis_ = GraphAnalysis{};
  analysis_.rounding = options_.rounding;
  analysis_.diagnostics = pacing_.diagnostics;
  if (!pacing_.ok) {
    return;
  }
  analysis_.side = pacing_.side;
  analysis_.constraints = pacing_.constraints;
  analysis_.constraint_is_sink_kind = pacing_.constraint_is_sink_kind;
  analysis_.constraint_is_source_kind = pacing_.constraint_is_source_kind;
  analysis_.is_chain = pacing_.is_chain;
  analysis_.is_cyclic = pacing_.is_cyclic;
  analysis_.actors_in_order = pacing_.actors_in_order;
  analysis_.pacing = pacing_.pacing;
  if (!rho_ok_) {
    for (const std::string& d : rho_diags_) {
      analysis_.diagnostics.push_back(d);
    }
    return;
  }
  analysis_.leads.reserve(pacing_.actors_in_order.size());
  for (const dataflow::ActorId v : pacing_.actors_in_order) {
    analysis_.leads.push_back(lead_[v.index()]);
  }
  analysis_.pairs = pairs_;
  bool admissible = true;
  for (std::size_t pos = 0; pos < pairs_.size(); ++pos) {
    if (pair_diag_[pos].has_value()) {
      analysis_.diagnostics.push_back(*pair_diag_[pos]);
      admissible = false;
    }
    analysis_.total_capacity =
        checked_add(analysis_.total_capacity, pairs_[pos].capacity);
  }
  analysis_.admissible = admissible;
}

}  // namespace vrdf::analysis
