#include "models/synthetic.hpp"

#include <random>
#include <string>

#include "analysis/buffer_sizing.hpp"
#include "analysis/pacing.hpp"
#include "util/error.hpp"
#include "util/seed_stream.hpp"

namespace vrdf::models {

using analysis::ThroughputConstraint;
using dataflow::ActorId;
using dataflow::RateSet;
using dataflow::VrdfGraph;

std::optional<VrdfGraph> with_scaled_response_times(
    const VrdfGraph& graph, const analysis::ConstraintSet& constraints,
    Rational fraction) {
  VRDF_REQUIRE(fraction.is_positive() && fraction <= Rational(1),
               "response fraction must be in (0, 1]");
  const analysis::PacingResult pacing =
      analysis::compute_pacing(graph, constraints);
  if (!pacing.ok) {
    return std::nullopt;
  }
  // fraction · φ per actor id (pacing is reported in chain order).
  std::vector<Duration> rho(graph.actor_count());
  for (std::size_t i = 0; i < pacing.actors_in_order.size(); ++i) {
    rho[pacing.actors_in_order[i].index()] = pacing.pacing[i] * fraction;
  }
  return with_response_times(graph, rho);
}

VrdfGraph with_response_times(const VrdfGraph& graph,
                              const std::vector<Duration>& rho) {
  VRDF_REQUIRE(rho.size() == graph.actor_count(),
               "one response time per actor");
  VrdfGraph out;
  for (const ActorId a : graph.actors()) {
    (void)out.add_actor(graph.actor(a).name, rho[a.index()]);
  }
  for (const dataflow::BufferEdges& b : graph.buffers()) {
    const dataflow::Edge& data = graph.edge(b.data);
    const dataflow::Edge& space = graph.edge(b.space);
    // Total capacity = free containers + containers occupied by initial
    // data tokens (back-edges of cyclic models carry the latter).
    (void)out.add_buffer(data.source, data.target, data.production,
                         data.consumption,
                         space.initial_tokens + data.initial_tokens,
                         data.initial_tokens);
  }
  return out;
}

SyntheticChain make_random_chain(const RandomChainSpec& spec) {
  VRDF_REQUIRE(spec.length >= 2, "a chain needs at least two actors");
  VRDF_REQUIRE(spec.max_quantum >= 1, "max quantum must be positive");
  VRDF_REQUIRE(spec.variable_percent >= 0 && spec.variable_percent <= 100,
               "variable_percent must be a percentage");
  VRDF_REQUIRE(spec.zero_percent >= 0 && spec.zero_percent <= 100,
               "zero_percent must be a percentage");
  std::mt19937_64 rng(spec.seed);
  std::uniform_int_distribution<std::int64_t> quantum(1, spec.max_quantum);
  std::uniform_int_distribution<int> percent(0, 99);

  // A set on the side that must stay positive (the rate-determining side).
  const auto positive_set = [&]() -> RateSet {
    if (percent(rng) < spec.variable_percent) {
      std::int64_t a = quantum(rng);
      std::int64_t b = quantum(rng);
      if (a > b) {
        std::swap(a, b);
      }
      if (a == b) {
        return RateSet::singleton(a);
      }
      return RateSet::interval(a, b);
    }
    return RateSet::singleton(quantum(rng));
  };
  // A set on the tolerant side, which may include zero.
  const auto tolerant_set = [&]() -> RateSet {
    if (percent(rng) < spec.variable_percent) {
      const std::int64_t hi = quantum(rng);
      const std::int64_t lo =
          percent(rng) < spec.zero_percent
              ? 0
              : std::uniform_int_distribution<std::int64_t>(1, hi)(rng);
      if (lo == hi) {
        return RateSet::singleton(hi);
      }
      return RateSet::interval(lo, hi);
    }
    return RateSet::singleton(quantum(rng));
  };

  VrdfGraph bare;
  std::vector<ActorId> actors;
  actors.reserve(spec.length);
  const Duration dummy = seconds(Rational(1));
  for (std::size_t i = 0; i < spec.length; ++i) {
    actors.push_back(bare.add_actor("t" + std::to_string(i), dummy));
  }
  for (std::size_t i = 0; i + 1 < spec.length; ++i) {
    // Sink-constrained: production must stay positive, consumption may
    // contain zero.  Source-constrained: mirrored.
    const RateSet production =
        spec.source_constrained ? tolerant_set() : positive_set();
    const RateSet consumption =
        spec.source_constrained ? positive_set() : tolerant_set();
    (void)bare.add_buffer(actors[i], actors[i + 1], production, consumption);
  }

  const ActorId constrained =
      spec.source_constrained ? actors.front() : actors.back();
  const ThroughputConstraint constraint{constrained, spec.period};
  std::optional<VrdfGraph> scaled;
  try {
    scaled =
        with_scaled_response_times(bare, {constraint}, spec.response_fraction);
  } catch (const OverflowError& e) {
    // Long chains multiply many random rate ratios; the pacing names the
    // actor where their product leaves int64, this names the chain.
    throw OverflowError("random chain (seed " + std::to_string(spec.seed) +
                        ", length " + std::to_string(spec.length) +
                        "): " + e.what());
  }
  VRDF_REQUIRE(scaled.has_value(),
               "generated chain must be admissible by construction");
  return SyntheticChain{std::move(*scaled), constraint};
}

namespace {

/// One fork-join stage of the bare generator output: the actor the stage
/// forked from, its join, and the actors strictly inside the branches —
/// together the actor set of any feedback loop closed around the stage.
struct ForkJoinStage {
  ActorId fork_tail;
  ActorId join;
  std::vector<ActorId> branch_actors;
};

/// The bare (dummy response times, unsized buffers) fork-join graph plus
/// the structure the cyclic generator needs to close loops.
struct ForkJoinBare {
  VrdfGraph graph;
  ActorId source;
  ActorId sink;
  std::vector<ForkJoinStage> stages;
  std::vector<std::int64_t> gear;  // by actor id
};

ForkJoinBare build_random_fork_join_bare(const RandomForkJoinSpec& spec) {
  VRDF_REQUIRE(spec.stages >= 1, "need at least one fork-join stage");
  VRDF_REQUIRE(spec.max_branches >= 2, "a fork needs at least two branches");
  VRDF_REQUIRE(spec.max_branch_length >= 1, "branches need at least one actor");
  VRDF_REQUIRE(spec.max_gear >= 1, "max gear must be positive");
  VRDF_REQUIRE(spec.max_quantum >= spec.max_gear,
               "max quantum must cover the gear range");
  VRDF_REQUIRE(spec.variable_percent >= 0 && spec.variable_percent <= 100,
               "variable_percent must be a percentage");
  VRDF_REQUIRE(spec.zero_percent >= 0 && spec.zero_percent <= 100,
               "zero_percent must be a percentage");
  std::mt19937_64 rng(spec.seed);
  std::uniform_int_distribution<std::int64_t> gear_draw(1, spec.max_gear);
  std::uniform_int_distribution<int> percent(0, 99);

  ForkJoinBare out;
  VrdfGraph& bare = out.graph;
  std::vector<std::int64_t>& gear = out.gear;  // by actor id
  const Duration dummy = seconds(Rational(1));
  const auto new_actor = [&](const std::string& name) {
    const ActorId id = bare.add_actor(name, dummy);
    gear.push_back(gear_draw(rng));
    return id;
  };

  // Chain-segment edges: the rate-determining side of edge x→y is pinned
  // to the gears, the other side varies freely.  Sink mode: π̌ = g(x)
  // (tail may reach max_quantum), γ̂ = g(y) (tail may reach zero).
  // Source mode mirrored.
  const auto pinned_min = [&](std::int64_t g) -> RateSet {
    if (percent(rng) < spec.variable_percent && g < spec.max_quantum) {
      const std::int64_t hi =
          std::uniform_int_distribution<std::int64_t>(g, spec.max_quantum)(rng);
      if (hi > g) {
        return RateSet::interval(g, hi);
      }
    }
    return RateSet::singleton(g);
  };
  const auto pinned_max = [&](std::int64_t g) -> RateSet {
    if (percent(rng) < spec.variable_percent) {
      const std::int64_t lo =
          percent(rng) < spec.zero_percent
              ? 0
              : std::uniform_int_distribution<std::int64_t>(1, g)(rng);
      if (lo < g) {
        return RateSet::interval(lo, g);
      }
    }
    return RateSet::singleton(g);
  };
  const auto add_segment_buffer = [&](ActorId x, ActorId y) {
    const std::int64_t gx = gear[x.index()];
    const std::int64_t gy = gear[y.index()];
    const RateSet production =
        spec.source_constrained ? pinned_max(gx) : pinned_min(gx);
    const RateSet consumption =
        spec.source_constrained ? pinned_min(gy) : pinned_max(gy);
    (void)bare.add_buffer(x, y, production, consumption);
  };
  // Block-internal edges: exact gear singletons keep sibling-branch flows
  // proportional for every admissible sequence (see RandomForkJoinSpec).
  const auto add_block_buffer = [&](ActorId x, ActorId y) {
    (void)bare.add_buffer(x, y, RateSet::singleton(gear[x.index()]),
                          RateSet::singleton(gear[y.index()]));
  };
  std::uniform_int_distribution<std::size_t> branch_count(2, spec.max_branches);
  std::uniform_int_distribution<std::size_t> branch_length(
      1, spec.max_branch_length);
  std::uniform_int_distribution<std::size_t> segment_length(
      0, spec.max_segment_length);
  // Appends a chain segment of variable-rate actors after `tail`.
  const auto add_segment = [&](ActorId tail, const std::string& prefix) {
    const std::size_t length = segment_length(rng);
    for (std::size_t i = 0; i < length; ++i) {
      const ActorId node = new_actor(prefix + "_" + std::to_string(i));
      add_segment_buffer(tail, node);
      tail = node;
    }
    return tail;
  };

  out.source = new_actor("src");
  ActorId tail = out.source;
  for (std::size_t stage = 0; stage < spec.stages; ++stage) {
    const std::string prefix = "s" + std::to_string(stage);
    tail = add_segment(tail, prefix + "_pre");
    ForkJoinStage record;
    record.fork_tail = tail;
    const ActorId join = new_actor(prefix + "_join");
    record.join = join;
    const std::size_t branches = branch_count(rng);
    for (std::size_t b = 0; b < branches; ++b) {
      ActorId prev = tail;
      const std::size_t length = branch_length(rng);
      for (std::size_t i = 0; i < length; ++i) {
        const ActorId node = new_actor(prefix + "_b" + std::to_string(b) +
                                       "_" + std::to_string(i));
        record.branch_actors.push_back(node);
        add_block_buffer(prev, node);
        prev = node;
      }
      add_block_buffer(prev, join);
    }
    out.stages.push_back(std::move(record));
    tail = join;
  }
  tail = add_segment(tail, "post");
  out.sink = new_actor("snk");
  add_segment_buffer(tail, out.sink);
  return out;
}

}  // namespace

SyntheticChain make_random_fork_join(const RandomForkJoinSpec& spec) {
  ForkJoinBare bare = build_random_fork_join_bare(spec);
  const ActorId constrained = spec.source_constrained ? bare.source : bare.sink;
  const ThroughputConstraint constraint{constrained, spec.period};
  auto scaled = with_scaled_response_times(bare.graph, {constraint},
                                           spec.response_fraction);
  VRDF_REQUIRE(scaled.has_value(),
               "generated fork-join graph must be admissible by construction");
  return SyntheticChain{std::move(*scaled), constraint};
}

SyntheticChain make_random_cyclic(const RandomCyclicSpec& spec) {
  VRDF_REQUIRE(spec.feedback_percent >= 0 && spec.feedback_percent <= 100,
               "feedback_percent must be a percentage");
  VRDF_REQUIRE(spec.token_slack_batches >= 0,
               "token_slack_batches must be non-negative");
  ForkJoinBare bare = build_random_fork_join_bare(spec.base);
  const ActorId constrained =
      spec.base.source_constrained ? bare.source : bare.sink;
  const ThroughputConstraint constraint{constrained, spec.base.period};

  // A dedicated stream keeps the skeleton draws identical to the acyclic
  // generator for the same base spec; decorrelate() is the published
  // PR 3 derivation, kept bit-compatible (see util/seed_stream.hpp).
  std::mt19937_64 rng(util::decorrelate(spec.base.seed));
  std::uniform_int_distribution<int> percent(0, 99);
  bool closed_any = false;
  for (std::size_t s = 0; s < bare.stages.size(); ++s) {
    const bool last = s + 1 == bare.stages.size();
    const bool close = percent(rng) < spec.feedback_percent ||
                       (last && !closed_any);
    if (!close) {
      continue;
    }
    closed_any = true;
    const ForkJoinStage& stage = bare.stages[s];
    // Gear rates keep the loop flow-consistent with the skeleton pacing;
    // a provisional single token batch marks the edge as feedback — the
    // real δ is sized below from the analysis' own requirement.
    (void)bare.graph.add_buffer(
        stage.join, stage.fork_tail,
        RateSet::singleton(bare.gear[stage.join.index()]),
        RateSet::singleton(bare.gear[stage.fork_tail.index()]),
        /*capacity=*/0,
        /*initial_tokens=*/bare.gear[stage.fork_tail.index()]);
  }

  auto scaled = with_scaled_response_times(bare.graph, {constraint},
                                           spec.base.response_fraction);
  VRDF_REQUIRE(scaled.has_value(),
               "generated cyclic graph must be admissible by construction");
  VrdfGraph graph = std::move(*scaled);

  // The schedule-alignment leads (and with them each back-edge's required
  // initial tokens) are δ-independent, so one probe analysis sizes every
  // loop exactly: δ = required + slack batches of phase-2 headroom.
  const analysis::GraphAnalysis probe =
      analysis::compute_buffer_capacities(graph, constraint);
  VRDF_REQUIRE(!probe.pairs.empty(),
               "generated cyclic graph must reach the capacity stage");
  for (const analysis::PairAnalysis& pair : probe.pairs) {
    if (pair.is_feedback) {
      const std::int64_t gamma =
          graph.edge(pair.buffer.data).consumption.min();
      graph.set_initial_tokens(
          pair.buffer.data,
          pair.required_initial_tokens + spec.token_slack_batches * gamma);
    }
  }
  return SyntheticChain{std::move(graph), constraint};
}

FeedbackPipeline make_feedback_pipeline() {
  VrdfGraph bare;
  const Duration dummy = seconds(Rational(1));
  FeedbackPipeline model;
  model.src = bare.add_actor("src", dummy);
  model.dec = bare.add_actor("dec", dummy);
  model.present = bare.add_actor("present", dummy);
  model.rctl = bare.add_actor("rctl", dummy);

  // Gears src 4 / dec 2 / rctl 1 / present 1: every edge pins
  // π = g(producer), γ = g(consumer), so the loop's flow balances
  // (φ(v) = g(v)·τ) and the skeleton paces rctl through rctl→src.  The
  // back-edge dec→rctl carries δ = 12 circulating block reports: at tight
  // response times the loop's schedule-alignment credit requirement is
  // (ω(rctl) − ω(dec) + ρ(dec) + s·(π̂−1))/s = (8τ + 2τ + τ)/τ = 11
  // tokens, and δ = 12 keeps one batch of headroom.  The only variable
  // rates live on the dec→present bridge: the 25 Hz presenter may drop a
  // frame (zero quantum).
  model.src_dec = bare.add_buffer(model.src, model.dec, RateSet::singleton(4),
                                  RateSet::singleton(2));
  model.dec_present = bare.add_buffer(model.dec, model.present,
                                      RateSet::singleton(2), RateSet::of({0, 1}));
  model.dec_rctl =
      bare.add_buffer(model.dec, model.rctl, RateSet::singleton(2),
                      RateSet::singleton(1), /*capacity=*/0,
                      /*initial_tokens=*/12);
  model.rctl_src = bare.add_buffer(model.rctl, model.src, RateSet::singleton(1),
                                   RateSet::singleton(4));

  model.constraint =
      analysis::ThroughputConstraint{model.present, milliseconds(Rational(40))};
  auto scaled =
      with_scaled_response_times(bare, {model.constraint}, Rational(1));
  VRDF_REQUIRE(scaled.has_value(), "feedback pipeline must be admissible");
  model.graph = std::move(*scaled);
  return model;
}

AvSyncPipeline make_av_sync_pipeline() {
  VrdfGraph bare;
  const Duration dummy = seconds(Rational(1));
  AvSyncPipeline model;
  model.src = bare.add_actor("src", dummy);
  model.demux = bare.add_actor("demux", dummy);
  model.adec = bare.add_actor("adec", dummy);
  model.vdec = bare.add_actor("vdec", dummy);
  model.sync = bare.add_actor("sync", dummy);
  model.present = bare.add_actor("present", dummy);

  // Gears: src 4, demux 2, adec 3, vdec 8, sync 1, present 1 — every edge
  // pins π̌ = g(producer), γ̂ = g(consumer), so both decoder branches
  // demand the same pacing of the demultiplexer (φ(v) = g(v)·τ).  The
  // fork-join block demux → {adec, vdec} → sync carries exact gear
  // singletons (flow-balanced: per demux firing, 2 audio units become
  // 2 PCM blocks while 2 video units become 2 picture tiles, and sync
  // joins one of each), while the data-dependent variability lives on the
  // chain segments: the demultiplexer consumes 0-2 stream sectors per
  // firing (none while seeking), and the 25 Hz presentation actor
  // consumes at most one composed frame (zero on a dropped frame).
  model.src_demux = bare.add_buffer(model.src, model.demux,
                                    RateSet::singleton(4), RateSet::of({0, 1, 2}));
  model.demux_adec = bare.add_buffer(model.demux, model.adec,
                                     RateSet::singleton(2), RateSet::singleton(3));
  model.demux_vdec = bare.add_buffer(model.demux, model.vdec,
                                     RateSet::singleton(2), RateSet::singleton(8));
  model.adec_sync = bare.add_buffer(model.adec, model.sync,
                                    RateSet::singleton(3), RateSet::singleton(1));
  model.vdec_sync = bare.add_buffer(model.vdec, model.sync,
                                    RateSet::singleton(8), RateSet::singleton(1));
  model.sync_present = bare.add_buffer(model.sync, model.present,
                                       RateSet::singleton(1), RateSet::of({0, 1}));

  model.constraint =
      ThroughputConstraint{model.present, milliseconds(Rational(40))};
  auto scaled =
      with_scaled_response_times(bare, {model.constraint}, Rational(1));
  VRDF_REQUIRE(scaled.has_value(), "A/V pipeline must be admissible");
  model.graph = std::move(*scaled);
  return model;
}

AvDualSinkPipeline make_av_dual_sink_pipeline() {
  VrdfGraph bare;
  const Duration dummy = seconds(Rational(1));
  AvDualSinkPipeline model;
  model.src = bare.add_actor("src", dummy);
  model.demux = bare.add_actor("demux", dummy);
  model.adec = bare.add_actor("adec", dummy);
  model.vdec = bare.add_actor("vdec", dummy);
  model.apresent = bare.add_actor("apresent", dummy);
  model.vpresent = bare.add_actor("vpresent", dummy);

  // Gears src 4, demux 2, adec 3, vdec 8, apresent 3, vpresent 8; λ = 5 ms
  // gives φ(src) 20 ms, φ(demux) 10 ms, φ(adec) = τ(apresent) = 15 ms and
  // φ(vdec) = τ(vpresent) = 40 ms.  Per 10 ms the demultiplexer emits
  // 2 audio units (adec decodes 3 per 15 ms — same 200/s rate) and
  // 2 video units (vdec decodes 8 per 40 ms — 200/s again), so both
  // presenter constraints demand exactly φ(demux) = 10 ms of the shared
  // demultiplexer: flow-consistent with two different periods.  The
  // branch edges carry static rates — a presenter whose realized drain
  // could undercut its worst case (e.g. a 0-quantum "drop") would let one
  // branch fill, block the shared demultiplexer and starve the *other*
  // presenter, which is exactly what the analysis' constraint-coupling
  // rule rejects; a dropped frame is modelled as consumed-and-discarded.
  // The data-dependent variability lives on the shared chain segment:
  // the demultiplexer consumes 0-2 stream sectors per firing (none while
  // seeking) without affecting its static production.
  model.src_demux = bare.add_buffer(model.src, model.demux,
                                    RateSet::singleton(4), RateSet::of({0, 1, 2}));
  model.demux_adec = bare.add_buffer(model.demux, model.adec,
                                     RateSet::singleton(2), RateSet::singleton(3));
  model.demux_vdec = bare.add_buffer(model.demux, model.vdec,
                                     RateSet::singleton(2), RateSet::singleton(8));
  model.adec_apresent = bare.add_buffer(model.adec, model.apresent,
                                        RateSet::singleton(3), RateSet::singleton(3));
  model.vdec_vpresent = bare.add_buffer(model.vdec, model.vpresent,
                                        RateSet::singleton(8), RateSet::singleton(8));

  model.constraints = {
      ThroughputConstraint{model.apresent, milliseconds(Rational(15))},
      ThroughputConstraint{model.vpresent, milliseconds(Rational(40))}};
  auto scaled =
      with_scaled_response_times(bare, model.constraints, Rational(1));
  VRDF_REQUIRE(scaled.has_value(), "dual-sink A/V pipeline must be admissible");
  model.graph = std::move(*scaled);
  return model;
}

SyntheticMultiConstraint make_random_multi_sink(const RandomMultiSinkSpec& spec) {
  VRDF_REQUIRE(spec.sinks >= 2, "a multi-sink model needs at least two sinks");
  VRDF_REQUIRE(spec.max_gear >= 1, "max gear must be positive");
  VRDF_REQUIRE(spec.max_quantum >= spec.max_gear,
               "max quantum must cover the gear range");
  VRDF_REQUIRE(spec.variable_percent >= 0 && spec.variable_percent <= 100,
               "variable_percent must be a percentage");
  VRDF_REQUIRE(spec.zero_percent >= 0 && spec.zero_percent <= 100,
               "zero_percent must be a percentage");
  std::mt19937_64 rng(spec.seed);
  std::uniform_int_distribution<std::int64_t> gear_draw(1, spec.max_gear);
  std::uniform_int_distribution<int> percent(0, 99);

  VrdfGraph bare;
  std::vector<std::int64_t> gear;  // by actor id
  const Duration dummy = seconds(Rational(1));
  const auto new_actor = [&](const std::string& name) {
    const ActorId id = bare.add_actor(name, dummy);
    gear.push_back(gear_draw(rng));
    return id;
  };
  // Prefix (shared chain segment) edges x→y pin the rate-determining
  // quanta to the gears (π̌ = g(x), γ̂ = g(y)); the free ends vary like
  // in make_random_chain.  Branch edges must be static gear singletons:
  // a variable realized flow past the fork could block it and starve a
  // sibling sink (the analysis' constraint-coupling rule).
  const auto add_gear_buffer = [&](ActorId x, ActorId y) {
    const std::int64_t gx = gear[x.index()];
    const std::int64_t gy = gear[y.index()];
    RateSet production = RateSet::singleton(gx);
    if (percent(rng) < spec.variable_percent && gx < spec.max_quantum) {
      const std::int64_t hi =
          std::uniform_int_distribution<std::int64_t>(gx, spec.max_quantum)(rng);
      if (hi > gx) {
        production = RateSet::interval(gx, hi);
      }
    }
    RateSet consumption = RateSet::singleton(gy);
    if (percent(rng) < spec.variable_percent) {
      const std::int64_t lo =
          percent(rng) < spec.zero_percent
              ? 0
              : std::uniform_int_distribution<std::int64_t>(1, gy)(rng);
      if (lo < gy) {
        consumption = RateSet::interval(lo, gy);
      }
    }
    (void)bare.add_buffer(x, y, production, consumption);
  };
  const auto add_static_buffer = [&](ActorId x, ActorId y) {
    (void)bare.add_buffer(x, y, RateSet::singleton(gear[x.index()]),
                          RateSet::singleton(gear[y.index()]));
  };

  ActorId tail = new_actor("src");
  const std::size_t prefix =
      std::uniform_int_distribution<std::size_t>(0, spec.max_prefix_length)(rng);
  for (std::size_t i = 0; i < prefix; ++i) {
    const ActorId node = new_actor("pre_" + std::to_string(i));
    add_gear_buffer(tail, node);
    tail = node;
  }
  SyntheticMultiConstraint out;
  for (std::size_t k = 0; k < spec.sinks; ++k) {
    ActorId prev = tail;
    const std::size_t length = std::uniform_int_distribution<std::size_t>(
        0, spec.max_branch_length)(rng);
    for (std::size_t i = 0; i < length; ++i) {
      const ActorId node =
          new_actor("b" + std::to_string(k) + "_" + std::to_string(i));
      add_static_buffer(prev, node);
      prev = node;
    }
    const ActorId sink = new_actor("snk" + std::to_string(k));
    add_static_buffer(prev, sink);
    // τ_k = g(sink_k)·λ keeps every demand at φ(v) = g(v)·λ — the sinks
    // run at genuinely different rates yet stay flow-consistent.
    out.constraints.push_back(ThroughputConstraint{
        sink, spec.base_period * Rational(gear[sink.index()])});
  }

  auto scaled =
      with_scaled_response_times(bare, out.constraints, spec.response_fraction);
  VRDF_REQUIRE(scaled.has_value(),
               "generated multi-sink graph must be admissible by construction");
  out.graph = std::move(*scaled);
  return out;
}

InteriorPinnedPipeline make_interior_pinned_pipeline() {
  VrdfGraph bare;
  const Duration dummy = seconds(Rational(1));
  InteriorPinnedPipeline model;
  model.source = bare.add_actor("source", dummy);
  model.dec = bare.add_actor("dec", dummy);
  model.dsp = bare.add_actor("dsp", dummy);
  model.render = bare.add_actor("render", dummy);
  model.sink = bare.add_actor("sink", dummy);

  // Gears source 4 / dec 2 / dsp 1 / render 2 / sink 8, τ = 5 ms:
  // φ(source) 20 ms, φ(dec) 10 ms, φ(dsp) 5 ms, φ(render) 10 ms,
  // φ(sink) 40 ms — every bound rate is 5 ms per token.  Upstream of the
  // pin the edges are consumer-determined (the decoder may consume
  // nothing while seeking — zero quantum — and emits 2-5 coded blocks
  // per firing); downstream they are producer-determined (the renderer
  // may emit nothing for a dropped frame).  dec→dsp is static: the pin
  // consumes exactly one block per 5 ms period, so the pair degenerates
  // to the data-independent technique and takes the tight capacity.
  model.source_dec = bare.add_buffer(model.source, model.dec,
                                     RateSet::singleton(4), RateSet::of({0, 1, 2}));
  model.dec_dsp = bare.add_buffer(model.dec, model.dsp, RateSet::singleton(2),
                                  RateSet::singleton(1));
  model.dsp_render = bare.add_buffer(model.dsp, model.render,
                                     RateSet::singleton(1), RateSet::interval(2, 4));
  model.render_sink = bare.add_buffer(model.render, model.sink,
                                      RateSet::interval(0, 2), RateSet::singleton(8));

  model.constraint =
      analysis::ThroughputConstraint{model.dsp, milliseconds(Rational(5))};
  auto scaled =
      with_scaled_response_times(bare, {model.constraint}, Rational(1));
  VRDF_REQUIRE(scaled.has_value(), "interior-pinned pipeline must be admissible");
  model.graph = std::move(*scaled);
  return model;
}

SyntheticChain make_random_interior_pinned(const RandomInteriorPinSpec& spec) {
  VRDF_REQUIRE(spec.upstream_length >= 1 && spec.downstream_length >= 1,
               "an interior pin needs actors on both sides");
  VRDF_REQUIRE(spec.max_gear >= 1, "max gear must be positive");
  VRDF_REQUIRE(spec.max_quantum >= spec.max_gear,
               "max quantum must cover the gear range");
  VRDF_REQUIRE(spec.variable_percent >= 0 && spec.variable_percent <= 100,
               "variable_percent must be a percentage");
  VRDF_REQUIRE(spec.zero_percent >= 0 && spec.zero_percent <= 100,
               "zero_percent must be a percentage");
  std::mt19937_64 rng(spec.seed);
  std::uniform_int_distribution<std::int64_t> gear_draw(1, spec.max_gear);
  std::uniform_int_distribution<int> percent(0, 99);

  VrdfGraph bare;
  std::vector<std::int64_t> gear;  // by actor id
  const Duration dummy = seconds(Rational(1));
  const auto new_actor = [&](const std::string& name) {
    const ActorId id = bare.add_actor(name, dummy);
    gear.push_back(gear_draw(rng));
    return id;
  };
  // The rate-determining side of every edge is pinned to the gears; the
  // free side varies like in make_random_chain.  Upstream (sink-mode):
  // π̌ = g(x) with a free tail up to max_quantum, γ̂ = g(y) with a free
  // tail down to zero.  Downstream (source-mode): mirrored.
  const auto pinned_min = [&](std::int64_t g) -> RateSet {
    if (percent(rng) < spec.variable_percent && g < spec.max_quantum) {
      const std::int64_t hi =
          std::uniform_int_distribution<std::int64_t>(g, spec.max_quantum)(rng);
      if (hi > g) {
        return RateSet::interval(g, hi);
      }
    }
    return RateSet::singleton(g);
  };
  const auto pinned_max = [&](std::int64_t g) -> RateSet {
    if (percent(rng) < spec.variable_percent) {
      const std::int64_t lo =
          percent(rng) < spec.zero_percent
              ? 0
              : std::uniform_int_distribution<std::int64_t>(1, g)(rng);
      if (lo < g) {
        return RateSet::interval(lo, g);
      }
    }
    return RateSet::singleton(g);
  };

  std::vector<ActorId> actors;
  for (std::size_t i = 0; i < spec.upstream_length; ++i) {
    actors.push_back(new_actor("u" + std::to_string(i)));
  }
  const ActorId pin = new_actor("pin");
  actors.push_back(pin);
  for (std::size_t i = 0; i < spec.downstream_length; ++i) {
    actors.push_back(new_actor("d" + std::to_string(i)));
  }
  for (std::size_t i = 0; i + 1 < actors.size(); ++i) {
    const ActorId x = actors[i];
    const ActorId y = actors[i + 1];
    const bool upstream_of_pin = i < spec.upstream_length;
    const RateSet production = upstream_of_pin ? pinned_min(gear[x.index()])
                                               : pinned_max(gear[x.index()]);
    const RateSet consumption = upstream_of_pin ? pinned_max(gear[y.index()])
                                                : pinned_min(gear[y.index()]);
    (void)bare.add_buffer(x, y, production, consumption);
  }

  const analysis::ThroughputConstraint constraint{pin, spec.period};
  auto scaled =
      with_scaled_response_times(bare, {constraint}, spec.response_fraction);
  VRDF_REQUIRE(scaled.has_value(),
               "generated interior-pinned chain must be admissible by "
               "construction");
  return SyntheticChain{std::move(*scaled), constraint};
}

SyntheticChain make_video_pipeline() {
  VrdfGraph bare;
  const Duration dummy = seconds(Rational(1));
  const ActorId reader = bare.add_actor("reader", dummy);
  const ActorId demux = bare.add_actor("demux", dummy);
  const ActorId vld = bare.add_actor("vld", dummy);
  const ActorId idct = bare.add_actor("idct", dummy);
  const ActorId display = bare.add_actor("display", dummy);

  // reader: 64-byte chunks; demux: variable-size payloads; vld: variable
  // number of coded macroblock bytes per row, possibly none (skipped row);
  // idct: 4 blocks per firing; display: one frame of 6 block-groups.
  (void)bare.add_buffer(reader, demux, RateSet::singleton(64),
                        RateSet::interval(8, 32));
  (void)bare.add_buffer(demux, vld, RateSet::singleton(16),
                        RateSet::interval(0, 24));
  (void)bare.add_buffer(vld, idct, RateSet::interval(1, 6),
                        RateSet::singleton(4));
  (void)bare.add_buffer(idct, display, RateSet::singleton(1),
                        RateSet::singleton(6));

  // 25 frames per second.
  const ThroughputConstraint constraint{display, milliseconds(Rational(40))};
  auto scaled = with_scaled_response_times(bare, {constraint}, Rational(1));
  VRDF_REQUIRE(scaled.has_value(), "video pipeline must be admissible");
  return SyntheticChain{std::move(*scaled), constraint};
}

SyntheticChain make_sensor_acquisition() {
  VrdfGraph bare;
  const Duration dummy = seconds(Rational(1));
  const ActorId adc = bare.add_actor("adc", dummy);
  const ActorId filter = bare.add_actor("filter", dummy);
  const ActorId compressor = bare.add_actor("compressor", dummy);
  const ActorId writer = bare.add_actor("writer", dummy);

  (void)bare.add_buffer(adc, filter, RateSet::singleton(1),
                        RateSet::singleton(64));
  (void)bare.add_buffer(filter, compressor, RateSet::singleton(64),
                        RateSet::singleton(64));
  // The compressor may emit anything from nothing to a full block.
  (void)bare.add_buffer(compressor, writer, RateSet::interval(0, 64),
                        RateSet::singleton(512));

  // The ADC samples at 48 kHz and is the constrained *source* (Sec 4.4).
  const ThroughputConstraint constraint{adc, period_of_hz(Rational(48000))};
  auto scaled = with_scaled_response_times(bare, {constraint}, Rational(1));
  VRDF_REQUIRE(scaled.has_value(), "acquisition chain must be admissible");
  return SyntheticChain{std::move(*scaled), constraint};
}

const char* class_name(ModelClass model_class) {
  switch (model_class) {
    case ModelClass::Chain: return "chain";
    case ModelClass::ForkJoin: return "fork_join";
    case ModelClass::Cyclic: return "cyclic";
    case ModelClass::MultiConstraint: return "multi_constraint";
    case ModelClass::InteriorPinned: return "interior_pinned";
  }
  return "?";
}

std::optional<ModelClass> parse_model_class(const std::string& name) {
  if (name == "chain") return ModelClass::Chain;
  if (name == "fork_join") return ModelClass::ForkJoin;
  if (name == "cyclic") return ModelClass::Cyclic;
  if (name == "multi_constraint") return ModelClass::MultiConstraint;
  if (name == "interior_pinned") return ModelClass::InteriorPinned;
  return std::nullopt;
}

SyntheticModel make_random_model(const RandomModelSpec& spec) {
  SyntheticModel model;
  switch (spec.model_class) {
    case ModelClass::Chain: {
      RandomChainSpec chain;
      chain.seed = spec.seed;
      chain.response_fraction = spec.response_fraction;
      chain.variable_percent = spec.variable_percent;
      chain.zero_percent = spec.zero_percent;
      chain.source_constrained = spec.source_constrained;
      SyntheticChain generated = make_random_chain(chain);
      model.graph = std::move(generated.graph);
      model.constraints = {generated.constraint};
      break;
    }
    case ModelClass::ForkJoin: {
      RandomForkJoinSpec fork_join;
      fork_join.seed = spec.seed;
      fork_join.response_fraction = spec.response_fraction;
      fork_join.variable_percent = spec.variable_percent;
      fork_join.zero_percent = spec.zero_percent;
      fork_join.source_constrained = spec.source_constrained;
      SyntheticChain generated = make_random_fork_join(fork_join);
      model.graph = std::move(generated.graph);
      model.constraints = {generated.constraint};
      break;
    }
    case ModelClass::Cyclic: {
      RandomCyclicSpec cyclic;
      cyclic.base.seed = spec.seed;
      cyclic.base.response_fraction = spec.response_fraction;
      cyclic.base.variable_percent = spec.variable_percent;
      cyclic.base.zero_percent = spec.zero_percent;
      cyclic.base.source_constrained = spec.source_constrained;
      SyntheticChain generated = make_random_cyclic(cyclic);
      model.graph = std::move(generated.graph);
      model.constraints = {generated.constraint};
      break;
    }
    case ModelClass::MultiConstraint: {
      RandomMultiSinkSpec multi;
      multi.seed = spec.seed;
      multi.response_fraction = spec.response_fraction;
      multi.variable_percent = spec.variable_percent;
      multi.zero_percent = spec.zero_percent;
      SyntheticMultiConstraint generated = make_random_multi_sink(multi);
      model.graph = std::move(generated.graph);
      model.constraints = std::move(generated.constraints);
      break;
    }
    case ModelClass::InteriorPinned: {
      RandomInteriorPinSpec pin;
      pin.seed = spec.seed;
      pin.response_fraction = spec.response_fraction;
      pin.variable_percent = spec.variable_percent;
      pin.zero_percent = spec.zero_percent;
      SyntheticChain generated = make_random_interior_pinned(pin);
      model.graph = std::move(generated.graph);
      model.constraints = {generated.constraint};
      break;
    }
  }

  const analysis::GraphAnalysis analysis =
      analysis::compute_buffer_capacities(model.graph, model.constraints);
  VRDF_REQUIRE(analysis.admissible,
               "generated model must analyse admissibly by construction");
  analysis::apply_capacities(model.graph, analysis);
  if (spec.capacity_headroom > 0) {
    for (const analysis::PairAnalysis& pair : analysis.pairs) {
      const dataflow::EdgeId space = pair.buffer.space;
      model.graph.set_initial_tokens(
          space,
          model.graph.edge(space).initial_tokens + spec.capacity_headroom);
    }
  }
  return model;
}

}  // namespace vrdf::models
