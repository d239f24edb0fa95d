// Synthetic model generators for tests, property sweeps and benchmarks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/types.hpp"
#include "dataflow/vrdf_graph.hpp"

namespace vrdf::models {

/// A generated chain together with its throughput constraint.
struct SyntheticChain {
  dataflow::VrdfGraph graph;
  analysis::ThroughputConstraint constraint;
};

struct RandomChainSpec {
  std::uint64_t seed = 1;
  /// Number of actors (>= 2).
  std::size_t length = 4;
  /// Quanta are drawn from [1, max_quantum].
  std::int64_t max_quantum = 16;
  /// Probability (percent, 0..100) that a rate set is variable (an
  /// interval or small explicit set) instead of a singleton.
  int variable_percent = 50;
  /// Probability (percent) that a variable consumption set includes zero
  /// (sink-constrained chains tolerate zero consumption quanta).
  int zero_percent = 20;
  /// Period of the constrained sink.
  Duration period = milliseconds(Rational(1));
  /// Response times are set to this fraction of the maximal admissible
  /// value φ(v) (numerator/denominator <= 1); 1/1 reproduces the
  /// paper's tight MP3 setting.
  Rational response_fraction = Rational(1);
  /// Put the constraint on the source instead of the sink (Sec 4.4);
  /// zero quanta then move to the production side.
  bool source_constrained = false;
};

/// A random, admissible, sink- or source-constrained chain: rates are
/// drawn per spec and response times are derived from pacing so that
/// compute_buffer_capacities always succeeds.
[[nodiscard]] SyntheticChain make_random_chain(const RandomChainSpec& spec);

/// A 5-stage variable-rate video decoding pipeline (sink-constrained):
///   reader -> demux -> vld -> idct -> display
/// with a variable-length-decoder stage whose consumption varies per
/// macroblock row, and a 25 Hz display.
[[nodiscard]] SyntheticChain make_video_pipeline();

/// A source-constrained acquisition chain (Sec 4.4):
///   adc -> filter -> compressor -> writer
/// where the ADC is strictly periodic and the compressor has a variable
/// production quantum that may be zero (nothing to emit for a block).
[[nodiscard]] SyntheticChain make_sensor_acquisition();

/// A copy of `graph` whose response times are replaced by
/// fraction · φ(v) for the given constraints — the generator used to
/// produce admissible test instances from bare topologies.  Returns
/// nullopt when pacing fails (token-free cyclic data edges, unpaced
/// actors, a flow-inconsistent set, ...).  Works on any topology and
/// constraint placement compute_pacing accepts — chains, fork-join
/// graphs, interior pins alike.
[[nodiscard]] std::optional<dataflow::VrdfGraph> with_scaled_response_times(
    const dataflow::VrdfGraph& graph,
    const analysis::ConstraintSet& constraints, Rational fraction);

/// A copy of `graph` with ρ(v) = rho[v.index()]; names, rates, δ and
/// every id are kept.  Copies the graph's buffers (every edge of a model
/// built with add_buffer).
[[nodiscard]] dataflow::VrdfGraph with_response_times(
    const dataflow::VrdfGraph& graph, const std::vector<Duration>& rho);

/// Parameters of the random fork-join generator.  Rates follow a "gear"
/// scheme: each actor v gets an integer gear g(v), and every data edge
/// x→y pins its rate-determining quanta to π̌ = g(x), γ̂ = g(y) (sink
/// mode; mirrored π̂ = g(x), γ̌ = g(y) in source mode).  Then
/// φ(v) = g(v)·τ/g(constrained) uniformly, the min over a fork's
/// out-edges is attained by every edge, and the per-pair sufficiency
/// argument of Sec 4 composes across branches.
///
/// Variability placement matters: a variable quantum on an edge *inside*
/// a fork-join block makes the realized token flows of sibling branches
/// diverge (the join drains them in lockstep, so the surplus branch's
/// buffer fills without bound and back-pressure stalls the fork — no
/// finite capacity satisfies the constraint for every admissible
/// sequence).  Block-internal edges therefore carry exact gear singletons
/// {g(x)} / {g(y)}, which keeps sibling flows proportional for *every*
/// sequence; data-dependent rate sets (including zero quanta on the
/// tolerant side) live on the chain segments before the first fork,
/// between stages, and after the last join, exactly like in
/// make_random_chain.
struct RandomForkJoinSpec {
  std::uint64_t seed = 1;
  /// Fork-join stages composed in series (>= 1): each stage forks into
  /// 2..max_branches parallel branches of 1..max_branch_length actors and
  /// joins them again.
  std::size_t stages = 1;
  std::size_t max_branches = 3;
  std::size_t max_branch_length = 2;
  /// Chain actors inserted before the first fork, between stages and
  /// after the last join (0..max_segment_length each).
  std::size_t max_segment_length = 1;
  /// Gears are drawn from [1, max_gear].
  std::int64_t max_gear = 8;
  /// Upper cap for the free (non-gear) end of variable rate sets on chain
  /// segments.
  std::int64_t max_quantum = 16;
  /// Probability (percent) that a chain-segment rate set is variable
  /// around its gear.
  int variable_percent = 50;
  /// Probability (percent) that a variable tolerant-side set includes zero.
  int zero_percent = 20;
  /// Period of the constrained actor.
  Duration period = milliseconds(Rational(1));
  /// Response times are fraction · φ(v); 1/1 is the paper's tight setting.
  Rational response_fraction = Rational(1);
  /// Constrain the unique source instead of the unique sink (Sec 4.4).
  bool source_constrained = false;
};

/// A random, admissible fork-join model: a series of fork-join stages
/// between one data source and one data sink, never a plain chain.
[[nodiscard]] SyntheticChain make_random_fork_join(const RandomForkJoinSpec& spec);

/// Parameters of the random *cyclic* generator: a fork-join graph per
/// `base`, plus back-edges closing feedback loops from stage joins to the
/// actors they forked from.  A back-edge join→tail carries static gear
/// rates (π = {g(join)}, γ = {g(tail)} — flow-consistent with the
/// skeleton pacing by construction) and enough initial tokens to satisfy
/// the cycle bound period ≥ cycle latency / initial-token credit:
/// δ = PairAnalysis::required_initial_tokens (the analysis' own
/// schedule-alignment requirement, which is δ-independent) plus
/// `token_slack_batches` batches of γ tokens.  Every edge of a closed
/// loop lies inside the stage's fork-join block, where rates are static
/// gear singletons — the cyclic model rule (no variable rates on cycle
/// edges) holds by construction.
struct RandomCyclicSpec {
  RandomForkJoinSpec base;
  /// Probability (percent) that a stage closes a feedback loop from its
  /// join back to the actor it forked from.  At least one loop is always
  /// closed (forced on the last stage when the draws produce none).
  int feedback_percent = 60;
  /// Initial-token batches (of γ tokens each) granted beyond the cycle
  /// latency bound — headroom for the phase-2 periodic enforcement of the
  /// verification harness.
  std::int64_t token_slack_batches = 2;
};

/// A random, admissible cyclic model: fork-join stages with at least one
/// tokened back-edge.  The computed capacities are verified sufficient by
/// the two-phase simulation harness in the tests.
[[nodiscard]] SyntheticChain make_random_cyclic(const RandomCyclicSpec& spec);

/// A feedback (rate-control) pipeline — the canonical cyclic topology:
///
///   src ──→ dec ──→ present
///    ▲       ╎
///    │       ╎ dec→rctl: back-edge, δ = 12 initial tokens
///    └─ rctl ←╌┘
///
/// `src` emits stream blocks only against credits issued by the rate
/// controller (rctl→src), the decoder reports consumed blocks to the
/// controller through the tokened back-edge dec→rctl (δ = 12 circulating
/// reports prime the loop src→dec→rctl→src), and `present` consumes
/// composed frames strictly periodically at 25 Hz (dropping some — zero
/// quantum).  Gears src 4 / dec 2 / rctl 1 / present 1; every cycle edge
/// carries static gear rates, the only variable rates live on the
/// dec→present bridge edge.
struct FeedbackPipeline {
  dataflow::VrdfGraph graph;
  dataflow::ActorId src, dec, present, rctl;
  dataflow::BufferEdges src_dec, dec_present, dec_rctl, rctl_src;
  analysis::ThroughputConstraint constraint;  // present at 25 Hz
};
[[nodiscard]] FeedbackPipeline make_feedback_pipeline();

/// An audio/video playback fork-join (sink-constrained):
///
///            ┌─> adec ─┐
///  src → demux          sync → present
///            └─> vdec ─┘
///
/// The source feeds the demultiplexer with variable-size stream chunks,
/// the demultiplexer splits them into fixed audio and video elementary
/// units, the decoders run at their own (gear-matched) rates, `sync`
/// joins one PCM block with one picture tile per composed frame, and the
/// `present` actor consumes composed frames strictly periodically at
/// 25 Hz — dropping some (zero quantum).  Rates follow the gear scheme of
/// RandomForkJoinSpec: both decoder branches impose the same pacing on
/// the demultiplexer and carry flow-balanced static rates, while the
/// data-dependent variability lives on the chain segments around the
/// fork-join block.
struct AvSyncPipeline {
  dataflow::VrdfGraph graph;
  dataflow::ActorId src, demux, adec, vdec, sync, present;
  dataflow::BufferEdges src_demux, demux_adec, demux_vdec, adec_sync,
      vdec_sync, sync_present;
  analysis::ThroughputConstraint constraint;  // present at 25 Hz
};
[[nodiscard]] AvSyncPipeline make_av_sync_pipeline();

/// The dual-presenter variant of the A/V pipeline — the canonical
/// *multi-constraint* topology, with two strictly periodic data sinks:
///
///            ┌─> adec ──> apresent   (66⅔ Hz audio-block rate)
///  src → demux
///            └─> vdec ──> vpresent   (25 Hz video rate)
///
/// Gears src 4 / demux 2 / adec 3 / vdec 8 / apresent 3 / vpresent 8 with
/// λ = 5 ms: every edge pins π̌ = g(producer), γ̂ = g(consumer), so both
/// presenter constraints propagate the *same* demand φ(v) = g(v)·λ onto
/// every shared actor — the flow-consistency requirement of the
/// multi-constraint analysis, satisfied with two genuinely different
/// periods (15 ms audio vs 40 ms video).  The branch edges are static
/// (a dropped frame is consumed-and-discarded): a presenter whose
/// realized drain could undercut its worst case would let its branch
/// back-pressure the shared demultiplexer and starve the sibling — the
/// constraint-coupling rejection.  Variability lives on the shared chain
/// segment: the demultiplexer consumes 0-2 stream sectors per firing.
struct AvDualSinkPipeline {
  dataflow::VrdfGraph graph;
  dataflow::ActorId src, demux, adec, vdec, apresent, vpresent;
  dataflow::BufferEdges src_demux, demux_adec, demux_vdec, adec_apresent,
      vdec_vpresent;
  analysis::ConstraintSet constraints;  // {apresent 15 ms, vpresent 40 ms}
};
[[nodiscard]] AvDualSinkPipeline make_av_dual_sink_pipeline();

/// A generated graph together with its simultaneous constraint set.
struct SyntheticMultiConstraint {
  dataflow::VrdfGraph graph;
  analysis::ConstraintSet constraints;
};

/// Parameters of the random multi-sink generator: a chain prefix feeding a
/// fork whose branches end in distinct strictly periodic sinks.  Rates
/// follow the gear scheme of RandomForkJoinSpec (π̌ pinned to the
/// producer's gear, γ̂ to the consumer's), and each sink k is constrained
/// with period g(sink_k)·base_period — so every constraint propagates the
/// same demand φ(v) = g(v)·base_period onto the shared prefix and the set
/// is flow-consistent by construction while the sink periods genuinely
/// differ.  Variability placement follows the constraint-coupling rule:
/// branch edges past the fork are static gear singletons (a variable
/// realized flow there could block the fork and starve a sibling sink),
/// while the shared prefix carries data-dependent sets, including zero
/// consumption quanta.
struct RandomMultiSinkSpec {
  std::uint64_t seed = 1;
  /// Number of constrained sinks (>= 2), one branch each.
  std::size_t sinks = 2;
  /// Actors per branch between the fork and its sink (0..this many).
  std::size_t max_branch_length = 2;
  /// Chain actors before the fork actor (0..this many).
  std::size_t max_prefix_length = 2;
  /// Gears are drawn from [1, max_gear].
  std::int64_t max_gear = 8;
  /// Upper cap for the free end of variable production sets.
  std::int64_t max_quantum = 16;
  /// Probability (percent) that a prefix rate set is variable around its
  /// gear.
  int variable_percent = 50;
  /// Probability (percent) that a variable consumption set includes zero.
  int zero_percent = 20;
  /// λ: sink k runs at period gear(sink_k)·base_period.
  Duration base_period = milliseconds(Rational(1));
  /// Response times are fraction · φ(v); 1/1 is the paper's tight setting.
  Rational response_fraction = Rational(1);
};

/// A random, admissible multi-sink model whose computed capacities are
/// verified sufficient by the two-phase simulation harness in the tests
/// (every sink enforced strictly periodic at once, zero starvations).
[[nodiscard]] SyntheticMultiConstraint make_random_multi_sink(
    const RandomMultiSinkSpec& spec);

/// The canonical *interior-pin* topology (PR 5): a fixed-rate DSP core
/// strictly periodic in the middle of a media chain,
///
///   source → dec → **dsp** → render → sink
///
/// with the throughput constraint on `dsp` (5 ms).  The pin splits the
/// chain: source→dec→dsp is paced upstream exactly like a
/// sink-constrained chain (consumer-determined, zero-tolerant
/// consumption quanta), dsp→render→sink downstream like a
/// source-constrained chain (producer-determined, zero-tolerant
/// production quanta).  Gears source 4 / dec 2 / dsp 1 / render 2 /
/// sink 8 with tight response times ρ(v) = φ(v) give hand-computable
/// capacities {11, 4, 7, 19} (dec→dsp takes the tight ⌈x⌉ — the pin's
/// consumption grid is exact, the same argument as a constrained sink).
struct InteriorPinnedPipeline {
  dataflow::VrdfGraph graph;
  dataflow::ActorId source, dec, dsp, render, sink;
  dataflow::BufferEdges source_dec, dec_dsp, dsp_render, render_sink;
  analysis::ThroughputConstraint constraint;  // dsp, strictly periodic 5 ms
};
[[nodiscard]] InteriorPinnedPipeline make_interior_pinned_pipeline();

/// Parameters of the random interior-pin generator: a chain of
/// `upstream_length` actors feeding a strictly periodic pin feeding
/// `downstream_length` actors.  Rates follow the gear scheme
/// (φ(v) = g(v)·τ/g(pin)); upstream edges pin π̌/γ̂ to the gears with
/// sink-mode variability (zero-tolerant consumption), downstream edges
/// pin π̂/γ̌ with source-mode variability (zero-tolerant production) —
/// each side exercises exactly the variability its pacing direction
/// tolerates.
struct RandomInteriorPinSpec {
  std::uint64_t seed = 1;
  /// Actors strictly before / after the pin (>= 1 each).
  std::size_t upstream_length = 2;
  std::size_t downstream_length = 2;
  /// Gears are drawn from [1, max_gear].
  std::int64_t max_gear = 8;
  /// Upper cap for the free (non-gear) end of variable rate sets.
  std::int64_t max_quantum = 16;
  /// Probability (percent) that a rate set is variable around its gear.
  int variable_percent = 50;
  /// Probability (percent) that a variable tolerant-side set includes zero.
  int zero_percent = 20;
  /// Period of the pinned interior actor.
  Duration period = milliseconds(Rational(1));
  /// Response times are fraction · φ(v); 1/1 is the paper's tight setting.
  Rational response_fraction = Rational(1);
};

/// A random, admissible chain with a strictly periodic *interior* actor;
/// the computed capacities are verified sufficient by the two-phase
/// simulation harness in the tests (the pin enforced periodic, zero
/// starvations).
[[nodiscard]] SyntheticChain make_random_interior_pinned(
    const RandomInteriorPinSpec& spec);

/// The five structural classes the randomized robustness harness sweeps —
/// one per generator above.
enum class ModelClass {
  Chain,            // make_random_chain
  ForkJoin,         // make_random_fork_join
  Cyclic,           // make_random_cyclic
  MultiConstraint,  // make_random_multi_sink
  InteriorPinned,   // make_random_interior_pinned
};

/// Stable lower-snake names of the model classes, for reports, journals
/// and CLIs: "chain", "fork_join", "cyclic", "multi_constraint",
/// "interior_pinned".
[[nodiscard]] const char* class_name(ModelClass model_class);

/// Inverse of class_name; nullopt for unknown strings.
[[nodiscard]] std::optional<ModelClass> parse_model_class(
    const std::string& name);

/// Uniform front-end over the five generators for parameter sweeps that
/// only care about seed, slack and variability — every other knob stays
/// at the per-generator default.
struct RandomModelSpec {
  ModelClass model_class = ModelClass::Chain;
  std::uint64_t seed = 1;
  /// ρ(v) = fraction · φ(v); below 1 leaves per-actor robustness slack
  /// (the default halves every response time).
  Rational response_fraction = Rational(1, 2);
  int variable_percent = 50;
  int zero_percent = 20;
  /// Extra containers granted to every buffer beyond the analysed
  /// capacity — per-buffer headroom for robustness experiments.
  std::int64_t capacity_headroom = 0;
  /// Constrain the source instead of the sink (Sec 4.4) for the classes
  /// that have a source-constrained form (Chain, ForkJoin, Cyclic);
  /// MultiConstraint and InteriorPinned ignore the flag — their
  /// constraint placement is the class.
  bool source_constrained = false;
};

/// A generated graph that already carries its installed capacities,
/// together with the constraint set they were computed for.
struct SyntheticModel {
  dataflow::VrdfGraph graph;
  analysis::ConstraintSet constraints;
};

/// Generates a random admissible model of the requested class, computes
/// its buffer capacities, installs them (plus `capacity_headroom` per
/// buffer) and returns the ready-to-simulate graph.
[[nodiscard]] SyntheticModel make_random_model(const RandomModelSpec& spec);

}  // namespace vrdf::models
