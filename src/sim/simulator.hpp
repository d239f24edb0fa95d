// Discrete-event simulator for VRDF graphs.
//
// Implements the model semantics of Sec 3.2 exactly:
//  * a firing is enabled when every input edge of the actor holds at least
//    the firing's consumption quantum;
//  * tokens are consumed atomically at the start of a firing and produced
//    atomically ρ(v) later;
//  * an actor never starts a firing before its previous firing finished;
//  * a token produced at time t is consumable at time t (ties are resolved
//    by processing all productions at t before the enabling pass).
//
// Time is exact; runs are fully deterministic: events are ordered by
// (time, sequence number) and quantum sources are deterministic streams.
//
// Configure, then run: every setter must be called before the first
// run(), which freezes the configuration and chooses the clock.  Later
// run() calls continue the same simulation on that clock.
//
// Internally the engine runs on an integer tick clock whenever possible:
// at the first run it collects every rational time constant the
// simulation can produce (response times, periods, offsets, injected
// delays, the 1/1024 fault and jitter grids, the first stop horizon) and
// sets the tick resolution to the LCM of their denominators, so the hot
// path is int64 arithmetic instead of rational gcd normalization.  When no
// such scale exists (denominator LCM overflow) it uses exact Rational time
// instead; both paths produce bit-for-bit identical results.  A later
// horizon that is not a whole int64 number of ticks at the chosen scale is
// a ContractError.  See docs/performance.md.
//
// Buffer-paired edges share one quantum stream per endpoint: the producer
// of a buffer draws one value q per firing and uses it both as the space
// consumption (from e_ba) and the data production (onto e_ab); the
// consumer symmetrically.  This is the task-level rule "a task requires as
// many empty containers as it produces and returns as many as it
// consumed" (Sec 3.3).
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dataflow/vrdf_graph.hpp"
#include "sim/quantum_source.hpp"
#include "sim/sim_types.hpp"
#include "util/time_scale.hpp"

namespace vrdf::sim {

/// One recorded firing (optional, see Simulator::record_firings).
struct FiringRecord {
  dataflow::ActorId actor;
  std::int64_t index = 0;  // 0-based per-actor firing index
  TimePoint start;
  TimePoint finish;
};

/// An actor's recorded start times fitted to a period τ (see
/// Simulator::fit_periodic_offset).
struct PeriodicFit {
  /// Smallest o with start_k <= o + k·τ for every record:
  /// max_k(start_k − k·τ).
  TimePoint offset;
  /// max_k(start_k − start_0 − k·τ) = offset − start_0 (never
  /// negative): the worst lateness against the grid anchored at start_0.
  Duration lateness;
};

/// One recorded token transfer on an edge (optional, see
/// Simulator::record_transfers).  `cumulative` counts from 1.
struct EdgeTransfer {
  std::int64_t cumulative = 0;
  std::int64_t count = 0;
  TimePoint time;
};

/// One compiled response-time perturbation of one actor — the low-level
/// form every fault kind of sim/fault_injection.hpp lowers to.  On each
/// affected firing k (from <= k < until) the firing's duration becomes
/// ρ + base + step·u_k, where u_k ∈ [0, 1024] is a stateless
/// splitmix64 hash of (rng_seed, k) — replayable regardless of run
/// segmentation, and exactly representable by a tick clock because every
/// grid point is base + step·integer.
struct ResponseTimeFault {
  /// Additive extra duration per affected firing (>= 0; only the internal
  /// grid of set_response_time_jitter has a negative base).
  Duration base;
  /// Grid step of the random extra (zero disables the random part).
  Duration step;
  /// Seed of the per-firing hash (only read when step > 0).
  std::uint64_t rng_seed = 0;
  /// Affected firing window [from, until) in 0-based firing indices.
  std::int64_t from = 0;
  std::int64_t until = std::numeric_limits<std::int64_t>::max();
};

namespace detail {

/// Staged per-port configuration (before the engine is instantiated).
struct PortConfig {
  dataflow::EdgeId in_edge;   // consumed from at start (may be invalid)
  dataflow::EdgeId out_edge;  // produced onto at finish (may be invalid)
  std::unique_ptr<QuantumSource> source;
  /// Source was installed by set_default_sources for a singleton rate set
  /// (lets the engine skip the virtual stream call on the draw hot path).
  bool constant = false;
  /// Source was installed by set_default_sources (samples the governing
  /// rate set, so per-draw validation is redundant).
  bool trusted = false;
};

struct ActorConfig {
  ActorMode mode;
  std::vector<PortConfig> ports;
  std::unordered_map<std::int64_t, Rational> release_delays;  // seconds
  /// set_response_time_jitter's grid; joins `faults` when the engine is
  /// built.
  std::optional<ResponseTimeFault> jitter;
  std::vector<ResponseTimeFault> faults;
  bool record = false;
  std::size_t record_cap = 0;
};

/// Everything configured on a Simulator before its first run; consumed by
/// the engine when the clock is chosen.
struct SimConfig {
  std::vector<ActorConfig> actors;
  std::vector<char> transfer_recording;
  std::vector<std::size_t> transfer_caps;
};

struct TickClock;
struct RationalClock;
template <class Clock>
class Engine;

}  // namespace detail

class Simulator {
public:
  /// The graph is copied conceptually: the simulator snapshots rates,
  /// response times and initial tokens at construction.  The graph object
  /// must outlive the simulator (rate sets are referenced for validation).
  explicit Simulator(const dataflow::VrdfGraph& graph);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Selects the internal time representation.  Auto (the default) uses
  /// the integer tick clock when a scale exists and exact rationals
  /// otherwise; ForceExactRational pins the Rational path.
  ///
  /// This and every other setter below must be called before the first
  /// run; a later call is a ContractError.
  void set_clock_mode(ClockMode mode);
  /// True once the engine runs on the integer tick clock (false before
  /// the first run and in the Rational fallback).
  [[nodiscard]] bool using_tick_clock() const;
  /// Ticks per second of the active tick clock, if any.
  [[nodiscard]] std::optional<std::int64_t> tick_resolution() const;

  /// Sets the execution mode of an actor (default: self-timed).
  void set_actor_mode(dataflow::ActorId actor, ActorMode mode);

  /// Installs the quantum stream for `actor`'s side of the buffer that
  /// `edge` belongs to (either the data or the space edge may be named).
  /// For bare edges, installs the production stream when `actor` is the
  /// edge's source and the consumption stream when it is the target.
  /// Values outside the edge's rate set cause a ModelError during run().
  void set_quantum_source(dataflow::ActorId actor, dataflow::EdgeId edge,
                          std::unique_ptr<QuantumSource> source);

  /// Fills every port that has no explicit source: singleton rate sets get
  /// a constant source; non-singleton sets get a uniformly random source
  /// seeded from `seed` and the port's position (deterministic).
  void set_default_sources(std::uint64_t seed);

  /// Adds an artificial release delay to one firing of one actor: the
  /// firing may not start before its enabling time plus `delay`.  Used by
  /// the monotonicity/linearity property checks (Defs 1 and 2).
  void inject_release_delay(dataflow::ActorId actor, std::int64_t firing_index,
                            Duration delay);

  /// Makes the actor's firings finish early at random: each firing's
  /// duration is drawn uniformly from a 1024-step grid over
  /// [min_fraction·ρ(v), ρ(v)].  ρ(v) is a *worst-case* response time in
  /// the model, so capacities must tolerate any such run (monotonicity,
  /// Def 1); this is the engine's failure-injection hook for testing that
  /// claim end to end.  The grid is one response-time fault with a
  /// non-positive base (ρ·min_fraction − ρ) on every firing; a second call
  /// on the same actor replaces it.  min_fraction must be in (0, 1].
  void set_response_time_jitter(dataflow::ActorId actor, std::uint64_t seed,
                                Rational min_fraction);

  /// Low-level fault-injection hook: appends one response-time
  /// perturbation to `actor` — affected firings take ρ + extra instead of
  /// ρ, i.e. the actor *violates* its declared worst case (unlike jitter,
  /// which stays within it).  Faults on one actor compose additively per
  /// firing.  The friendly, seeded front-end is sim::FaultPlan
  /// (sim/fault_injection.hpp).  base/step must be non-negative.
  void add_response_time_fault(dataflow::ActorId actor,
                               const ResponseTimeFault& fault);

  /// The graph this simulator was built from.
  [[nodiscard]] const dataflow::VrdfGraph& graph() const { return graph_; }

  /// Enables per-firing records for an actor (capped at `max_records`).
  void record_firings(dataflow::ActorId actor, std::size_t max_records = 1 << 20);
  /// Enables production/consumption transfer records for an edge.
  void record_transfers(dataflow::EdgeId edge, std::size_t max_records = 1 << 20);

  /// Runs until the stop condition triggers; may be called repeatedly with
  /// new conditions to continue a run.  The firing target must name an
  /// actor of the graph, and the horizon must not lie before now(); on the
  /// tick clock a later horizon must also be a whole int64 number of ticks
  /// (otherwise pass it to the first run, or pin ForceExactRational).
  /// Violations are ContractErrors.
  RunResult run(const StopCondition& stop);

  /// The simulator's full timing-relevant state at the current instant:
  /// token counts per edge plus, for each busy actor, the remaining time
  /// to its firing's finish.  Two runs of a data-independent graph that
  /// reach equal snapshots evolve identically from there on (used by the
  /// steady-state detector).
  struct StateSnapshot {
    std::vector<std::int64_t> tokens;            // per edge id
    std::vector<std::optional<Rational>> remaining;  // per actor id, seconds

    friend bool operator==(const StateSnapshot&, const StateSnapshot&) = default;
  };
  [[nodiscard]] StateSnapshot snapshot() const;

  [[nodiscard]] const EdgeMetrics& edge_metrics(dataflow::EdgeId edge) const;
  /// Recorded firings of `actor` (requires record_firings).  They are
  /// kept on the engine's clock and converted to FiringRecord when read.
  [[nodiscard]] const std::vector<FiringRecord>& firings(dataflow::ActorId actor) const;
  /// Fits the recorded starts of `actor` to `period` on the engine's own
  /// clock, converting only the results to exact Rational time; nullopt
  /// when nothing was recorded.  `period` must be non-negative.  Throws
  /// OverflowError where the tick-clock arithmetic leaves its bound (see
  /// engine.hpp).
  [[nodiscard]] std::optional<PeriodicFit> fit_periodic_offset(
      dataflow::ActorId actor, Duration period) const;
  /// Token productions onto `edge`, in time order (requires record_transfers).
  [[nodiscard]] const std::vector<EdgeTransfer>& production_events(
      dataflow::EdgeId edge) const;
  /// Token consumptions from `edge`, in time order.
  [[nodiscard]] const std::vector<EdgeTransfer>& consumption_events(
      dataflow::EdgeId edge) const;
  [[nodiscard]] TimePoint now() const;

private:
  [[nodiscard]] bool has_engine() const {
    return tick_ != nullptr || rational_ != nullptr;
  }
  /// Throws ContractError once the first run has built the engine.
  void check_configurable() const;
  /// Reads through the live engine, or `fallback` before the first run.
  template <typename Fn, typename Fallback>
  decltype(auto) dispatch(Fn&& fn, Fallback&& fallback) const;
  /// Chooses the clock for the first run and instantiates the engine.
  void create_engine(const StopCondition& stop);
  /// LCM tick scale over every denominator the configuration can produce,
  /// or nullopt when it overflows the cap (Rational fallback).
  [[nodiscard]] std::optional<TimeScale> compute_scale(
      const StopCondition& stop) const;
  void check_actor(dataflow::ActorId actor) const;
  void check_edge(dataflow::EdgeId edge) const;

  const dataflow::VrdfGraph& graph_;
  ClockMode clock_mode_ = ClockMode::Auto;
  detail::SimConfig config_;  // staged until the engine exists
  std::unique_ptr<detail::Engine<detail::TickClock>> tick_;
  std::unique_ptr<detail::Engine<detail::RationalClock>> rational_;
  // Pre-run answers for the metric accessors (initial token counts, zeroed
  // actor metrics, empty record vectors).
  std::vector<EdgeMetrics> initial_edge_metrics_;
};

}  // namespace vrdf::sim
