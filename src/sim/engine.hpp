// Internal simulation engine, templated over the time representation.
//
// The engine logic (enabling, firing, event heap, metrics, records) is
// written once against a Clock policy:
//
//  * TickClock     — time is an int64 number of ticks at a TimeScale whose
//                    resolution is the LCM of every denominator the run can
//                    produce.  The hot path (heap ordering, now + rho,
//                    periodic schedules) is plain integer arithmetic.
//  * RationalClock — time is an exact Rational of seconds; the fallback
//                    when no int64 tick scale exists.
//
// Both representations are exact, so a run produces bit-for-bit identical
// firing records, metrics and end times under either clock (the
// tick/Rational equivalence test in tests/test_tick_clock.cpp asserts
// this).  Rational values only appear at reporting boundaries
// (starvations, transfer records, snapshots, metrics and firing-record
// accessors); firing records and the periodic offset fit over them stay
// on the clock.
//
// Enabling is incremental: instead of re-scanning all actors to a fixed
// point after every event (O(actors^2) per event on chains), a dirty-actor
// worklist is seeded by the consumers of edges whose token counts grew, by
// finishing actors, and by woken actors.  Starting a firing consumes
// tokens but produces none (production happens at the firing's finish), so
// a start can never enable another actor at the same instant and one pass
// over the worklist reaches the same fixed point the full scan did.
//
// This header is an implementation detail of simulator.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>  // det-lint: ok(release delays, never serialised)
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/checked_int.hpp"
#include "util/error.hpp"
#include "util/time_scale.hpp"

namespace vrdf::sim::detail {

__extension__ typedef __int128 Int128;

struct RationalClock {
  using Time = Rational;
  static constexpr bool kIsTick = false;

  [[nodiscard]] Rational to_rational(const Time& t) const { return t; }
  [[nodiscard]] Time from_rational(const Rational& r) const { return r; }
  [[nodiscard]] static Time add(const Time& a, const Time& b) { return a + b; }
  [[nodiscard]] static Time sub(const Time& a, const Time& b) { return a - b; }
  [[nodiscard]] static Time mul_int(const Time& a, std::int64_t k) {
    return a * Rational(k);
  }

  /// Yields start_k − k·τ for k = 0, 1, 2, … in turn, exactly.
  class PeriodLateness {
  public:
    PeriodLateness(const RationalClock& /*clock*/, const Rational& tau)
        : tau_(tau), k_tau_(-tau) {}
    [[nodiscard]] Rational next(const Rational& start) {
      k_tau_ += tau_;
      return start - k_tau_;
    }

  private:
    Rational tau_;
    Rational k_tau_;
  };
};

struct TickClock {
  using Time = std::int64_t;
  static constexpr bool kIsTick = true;

  TimeScale scale;

  [[nodiscard]] Rational to_rational(Time t) const { return scale.to_rational(t); }
  [[nodiscard]] Time from_rational(const Rational& r) const {
    return scale.to_ticks(r);
  }
  [[nodiscard]] static Time add(Time a, Time b) { return checked_add(a, b); }
  [[nodiscard]] static Time sub(Time a, Time b) { return checked_sub(a, b); }
  [[nodiscard]] static Time mul_int(Time a, std::int64_t k) {
    return checked_mul(a, k);
  }

  /// Ranks start_k − k·τ for k = 0, 1, 2, … in turn without leaving
  /// integers.  With D ticks per second and τ = p/q (p >= 0),
  ///   start_k − k·τ = (S_k·q − k·p·D) / (D·q),
  /// so the Int128 numerator orders the values exactly.  Bound: |S_k| and
  /// q are below 2^63, so |S_k·q| < 2^126; k·p·D is kept at most 2^126
  /// (OverflowError beyond), so the numerator lies in (−2^127, 2^126) and
  /// never wraps.  τ's denominator need not divide D.
  class PeriodLateness {
  public:
    PeriodLateness(const TickClock& clock, const Rational& tau)
        : q_(tau.den()),
          step_(static_cast<Int128>(tau.num()) *
                clock.scale.ticks_per_second()),
          k_step_(-step_) {}
    [[nodiscard]] Int128 next(Time start) {
      k_step_ += step_;
      if (k_step_ > kBound) {
        throw OverflowError(
            "periodic offset fit: k*p*D exceeds its 2^126 bound");
      }
      return static_cast<Int128>(start) * q_ - k_step_;
    }

  private:
    static constexpr Int128 kBound = static_cast<Int128>(1) << 126;
    std::int64_t q_;
    Int128 step_;    // p·D < 2^126
    Int128 k_step_;  // k·p·D for the value next() returns
  };
};

/// A live port: the staged PortConfig with its installed quantum stream.
struct Port {
  dataflow::EdgeId in_edge;   // consumed from at start (may be invalid)
  dataflow::EdgeId out_edge;  // produced onto at finish (may be invalid)
  std::unique_ptr<QuantumSource> source;
  /// The rate set governing this port: production set of the out edge
  /// (equals the consumption set of the in edge for buffer ports).  Cached
  /// so the per-firing quantum validation skips the graph lookup.
  const dataflow::RateSet* rate_set = nullptr;
  /// Set when set_default_sources installed a constant source for a
  /// singleton rate set: the draw can skip the virtual stream call (a
  /// constant source is stateless and its value is in-set by construction).
  bool constant = false;
  /// Set for any default-installed source: it samples the governing rate
  /// set directly, so its values are in-set by construction and the
  /// per-draw validation can be skipped.
  bool trusted = false;
  std::int64_t constant_quantum = 0;
};

enum class EventKind : std::uint8_t { FiringFinish, Wakeup };

template <class Clock>
class Engine {
public:
  using Time = typename Clock::Time;

  Engine(const dataflow::VrdfGraph& graph, SimConfig&& config, Clock clock)
      : graph_(&graph), clock_(std::move(clock)) {
    const std::size_t n_actors = graph.actor_count();
    const std::size_t n_edges = graph.edge_count();
    actors_.resize(n_actors);
    edges_.resize(n_edges);
    edge_target_.resize(n_edges);
    actor_times_.resize(n_actors);
    firing_records_.resize(n_actors);
    firing_views_.resize(n_actors);
    production_records_.resize(n_edges);
    consumption_records_.resize(n_edges);
    transfer_recording_ = std::move(config.transfer_recording);
    transfer_caps_ = std::move(config.transfer_caps);
    worklist_.reserve(n_actors);
    heap_.reserve(2 * n_actors + 64);

    for (const dataflow::EdgeId e : graph.edges()) {
      edges_[e.index()].tokens = graph.edge(e).initial_tokens;
      edges_[e.index()].max_tokens = edges_[e.index()].tokens;
      edges_[e.index()].min_tokens = edges_[e.index()].tokens;
      edge_target_[e.index()] = graph.edge(e).target;
    }

    for (std::size_t i = 0; i < n_actors; ++i) {
      ActorConfig& cfg = config.actors[i];
      ActorState& state = actors_[i];
      state.ports.reserve(cfg.ports.size());
      for (PortConfig& p : cfg.ports) {
        const dataflow::RateSet* set =
            p.out_edge.is_valid() ? &graph.edge(p.out_edge).production
                                  : &graph.edge(p.in_edge).consumption;
        state.ports.push_back(Port{p.in_edge, p.out_edge, std::move(p.source),
                                   set, p.constant, p.trusted,
                                   p.constant ? set->max() : 0});
      }
      state.pending_quanta.resize(state.ports.size());
      state.active_quanta.resize(state.ports.size());
      const dataflow::ActorId id(
          static_cast<dataflow::ActorId::underlying_type>(i));
      state.rho = clock_.from_rational(graph.actor(id).response_time.seconds());
      state.mode_kind = cfg.mode.kind;
      if (cfg.mode.kind != ActorMode::Kind::SelfTimed) {
        state.mode_offset = clock_.from_rational(cfg.mode.offset.seconds());
        state.mode_period = clock_.from_rational(cfg.mode.period.seconds());
      }
      for (const auto& [index, delay] : cfg.release_delays) {
        state.release_delays.emplace(index, clock_.from_rational(delay));
      }
      state.has_release_delays = !state.release_delays.empty();
      for (const ResponseTimeFault& fault : cfg.faults) {
        state.faults.push_back(
            FaultEntry{clock_.from_rational(fault.base.seconds()),
                       clock_.from_rational(fault.step.seconds()),
                       fault.rng_seed, fault.from, fault.until});
      }
      state.has_faults = !state.faults.empty();
      state.record = cfg.record;
      state.record_cap = cfg.record_cap;
    }
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const Clock& clock() const { return clock_; }

  // --------------------------------------------------------------- run
  RunResult run(const StopCondition& stop) {
    std::optional<Time> until;
    if (stop.until_time.has_value()) {
      until = clock_.from_rational(stop.until_time->seconds());
    }
    // Rescan every actor once: a fresh engine has nothing queued, and a
    // run that stopped at its firing target left its enabling pass undone.
    for (std::size_t i = 0; i < actors_.size(); ++i) {
      mark_dirty(dataflow::ActorId(
          static_cast<dataflow::ActorId::underlying_type>(i)));
    }

    RunResult result;
    const ActorState* target_state = nullptr;
    std::int64_t target_count = 0;
    if (stop.firing_target.has_value()) {
      target_state = &actors_[stop.firing_target->actor.index()];
      target_count = stop.firing_target->count;
    }
    const auto target_reached = [&]() {
      return target_state != nullptr && target_state->finished >= target_count;
    };

    while (true) {
      // Check the firing target before the enabling pass so that the run
      // stops at the moment the target actor's firing *finishes*, without
      // starting fresh firings at the same instant.
      if (target_reached()) {
        result.reason = StopReason::ReachedFiringTarget;
        break;
      }
      process_dirty();
      if (total_firings_ >= stop.max_firings) {
        result.reason = StopReason::EventBudgetExhausted;
        break;
      }
      if (heap_.empty()) {
        result.reason = StopReason::Deadlock;
        collect_blocked_waits(result.blocked);
        break;
      }
      const Time next_time = heap_.front().time;
      if (until.has_value() && *until < next_time) {
        now_ = *until;
        result.reason = StopReason::ReachedTimeLimit;
        break;
      }
      now_ = next_time;
      // Drain all events at this instant before the enabling pass so that
      // simultaneous productions are all visible to it (a token produced
      // at t is consumable at t).
      while (!heap_.empty() && heap_.front().time == now_) {
        std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
        const Event event = heap_.back();
        heap_.pop_back();
        ActorState& state = actors_[event.actor.index()];
        if (event.kind == EventKind::FiringFinish) {
          finish_firing(event.actor, state);
        } else {
          if (state.scheduled_wakeup.has_value() &&
              *state.scheduled_wakeup == now_) {
            state.scheduled_wakeup.reset();
          }
          mark_dirty(event.actor);
        }
      }
    }

    result.end_time = to_time_point(now_);
    result.total_firings = total_firings_;
    result.starvations = starvations_;
    return result;
  }

  // --------------------------------------------------------- observers
  [[nodiscard]] TimePoint now() const { return to_time_point(now_); }

  [[nodiscard]] Simulator::StateSnapshot snapshot() const {
    Simulator::StateSnapshot snap;
    snap.tokens.reserve(edges_.size());
    for (const EdgeMetrics& m : edges_) {
      snap.tokens.push_back(m.tokens);
    }
    snap.remaining.reserve(actors_.size());
    for (const ActorState& state : actors_) {
      if (state.busy) {
        snap.remaining.push_back(
            clock_.to_rational(Clock::sub(state.active_finish, now_)));
      } else {
        snap.remaining.push_back(std::nullopt);
      }
    }
    return snap;
  }

  [[nodiscard]] const EdgeMetrics& edge_metrics(dataflow::EdgeId edge) const {
    return edges_[edge.index()];
  }

  /// The recorded firings as FiringRecords, converted from the clock's
  /// records when read (records are only appended, so each is converted
  /// once).
  [[nodiscard]] const std::vector<FiringRecord>& firings(
      dataflow::ActorId actor) const {
    const std::vector<TimedFiring>& timed = firing_records_[actor.index()];
    std::vector<FiringRecord>& view = firing_views_[actor.index()];
    view.reserve(timed.size());
    for (std::size_t k = view.size(); k < timed.size(); ++k) {
      view.push_back(FiringRecord{actor, static_cast<std::int64_t>(k),
                                  to_time_point(timed[k].start),
                                  to_time_point(timed[k].finish)});
    }
    return view;
  }

  /// Simulator::fit_periodic_offset: finds max_k(start_k − k·τ) on the
  /// clock's own time (Clock::PeriodLateness) and converts only the
  /// arg-max and the first start.
  [[nodiscard]] std::optional<PeriodicFit> fit_periodic_offset(
      dataflow::ActorId actor, const Rational& tau) const {
    const std::vector<TimedFiring>& records = firing_records_[actor.index()];
    if (records.empty()) {
      return std::nullopt;
    }
    typename Clock::PeriodLateness lateness(clock_, tau);
    auto best = lateness.next(records.front().start);
    std::size_t arg = 0;
    for (std::size_t k = 1; k < records.size(); ++k) {
      const auto value = lateness.next(records[k].start);
      if (best < value) {
        best = value;
        arg = k;
      }
    }
    PeriodicFit fit;
    fit.offset = TimePoint(clock_.to_rational(records[arg].start) -
                           tau * Rational(static_cast<std::int64_t>(arg)));
    fit.lateness = fit.offset - to_time_point(records.front().start);
    return fit;
  }

  [[nodiscard]] const std::vector<EdgeTransfer>& production_events(
      dataflow::EdgeId edge) const {
    return production_records_[edge.index()];
  }

  [[nodiscard]] const std::vector<EdgeTransfer>& consumption_events(
      dataflow::EdgeId edge) const {
    return consumption_records_[edge.index()];
  }

private:
  /// Clock-typed form of one ResponseTimeFault (see simulator.hpp for the
  /// field semantics).
  struct FaultEntry {
    Time base{};
    Time step{};
    std::uint64_t rng_seed = 0;
    std::int64_t from = 0;
    std::int64_t until = 0;
  };

  struct ActorState {
    // Static (per configuration).
    std::vector<Port> ports;
    ActorMode::Kind mode_kind = ActorMode::Kind::SelfTimed;
    Time mode_offset{};
    Time mode_period{};
    Time rho{};
    bool has_faults = false;
    std::vector<FaultEntry> faults;
    bool has_release_delays = false;
    // Looked up by firing index only; never iterated into output.
    std::unordered_map<std::int64_t, Time>  // det-lint: ok(never serialised)
        release_delays;
    bool record = false;
    std::size_t record_cap = 0;
    // Runtime.
    bool busy = false;
    bool quanta_drawn = false;
    bool dirty = false;
    std::int64_t started = 0;
    std::int64_t finished = 0;
    std::vector<std::int64_t> pending_quanta;
    std::vector<std::int64_t> active_quanta;
    Time active_start{};
    Time active_finish{};
    std::optional<Time> release_not_before;
    std::optional<Time> scheduled_wakeup;
    std::optional<std::size_t> open_starvation;
  };

  /// One recorded firing on the clock; its position in the actor's
  /// record vector is its firing index.
  struct TimedFiring {
    Time start;
    Time finish;
  };

  struct ActorTimes {
    std::optional<Time> last_start;
  };

  struct Event {
    Time time;
    std::uint64_t seq;
    EventKind kind;
    dataflow::ActorId actor;
  };

  /// std::push_heap builds a max-heap; "after" ordering yields a min-heap
  /// on (time, seq).
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return b.time < a.time;
      }
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] TimePoint to_time_point(const Time& t) const {
    return TimePoint(clock_.to_rational(t));
  }

  void push_event(const Time& time, EventKind kind,
                  dataflow::ActorId actor) {
    heap_.push_back(Event{time, next_seq_++, kind, actor});
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  }

  void mark_dirty(dataflow::ActorId actor) {
    ActorState& state = actors_[actor.index()];
    if (!state.dirty && !state.busy) {
      state.dirty = true;
      worklist_.push_back(actor);
    }
  }

  void process_dirty() {
    while (!worklist_.empty()) {
      const dataflow::ActorId actor = worklist_.back();
      worklist_.pop_back();
      ActorState& state = actors_[actor.index()];
      state.dirty = false;
      try_start(actor, state);
    }
  }

  void draw_quanta(dataflow::ActorId actor, ActorState& state) {
    if (state.quanta_drawn) {
      return;
    }
    for (std::size_t i = 0; i < state.ports.size(); ++i) {
      Port& port = state.ports[i];
      if (port.source == nullptr) {
        std::ostringstream os;
        os << "actor '" << graph_->actor(actor).name << "' port " << i
           << " has no quantum source; call set_quantum_source or "
              "set_default_sources";
        throw ContractError(os.str());
      }
      if (port.constant) {
        state.pending_quanta[i] = port.constant_quantum;
        continue;
      }
      const std::int64_t q = port.source->next(state.started);
      if (!port.trusted && !port.rate_set->contains(q)) {
        std::ostringstream os;
        os << "quantum source " << port.source->describe() << " of actor '"
           << graph_->actor(actor).name << "' produced " << q
           << " which is outside the rate set " << port.rate_set->to_string();
        throw ModelError(os.str());
      }
      state.pending_quanta[i] = q;
    }
    state.quanta_drawn = true;
  }

  [[nodiscard]] bool tokens_available(const ActorState& state) const {
    for (std::size_t i = 0; i < state.ports.size(); ++i) {
      const Port& port = state.ports[i];
      if (port.in_edge.is_valid() &&
          edges_[port.in_edge.index()].tokens < state.pending_quanta[i]) {
        return false;
      }
    }
    return true;
  }

  void schedule_wakeup(dataflow::ActorId actor, ActorState& state,
                       const Time& at) {
    if (!state.scheduled_wakeup.has_value() || *state.scheduled_wakeup != at) {
      state.scheduled_wakeup = at;
      push_event(at, EventKind::Wakeup, actor);
    }
  }

  void try_start(dataflow::ActorId actor, ActorState& state) {
    if (state.busy) {
      return;
    }
    draw_quanta(actor, state);
    const bool have_tokens = tokens_available(state);

    // Mode gating.
    if (state.mode_kind == ActorMode::Kind::StrictlyPeriodic) {
      const Time scheduled = Clock::add(
          state.mode_offset, Clock::mul_int(state.mode_period, state.started));
      if (now_ < scheduled) {
        // Guarantee a wakeup at the activation so a miss is noticed.
        schedule_wakeup(actor, state, scheduled);
        return;
      }
      if (!have_tokens) {
        if (!state.open_starvation.has_value()) {
          open_starvation(actor, state, scheduled);
        }
        return;
      }
      if (scheduled < now_ && !state.open_starvation.has_value()) {
        // Enabled only now although the activation was earlier (e.g. the
        // previous firing finished late); count it as a late start too.
        open_starvation(actor, state, scheduled);
      }
    } else {
      if (!have_tokens) {
        return;
      }
      const std::optional<Time>& last_start =
          actor_times_[actor.index()].last_start;
      if (state.mode_kind == ActorMode::Kind::RateLimited &&
          last_start.has_value()) {
        const Time earliest = Clock::add(*last_start, state.mode_period);
        if (now_ < earliest) {
          schedule_wakeup(actor, state, earliest);
          return;
        }
      }
    }

    // Injected release delays (property checks).
    if (state.has_release_delays) {
      const auto delay_it = state.release_delays.find(state.started);
      if (delay_it != state.release_delays.end() && Time{} < delay_it->second) {
        if (!state.release_not_before.has_value()) {
          state.release_not_before = Clock::add(now_, delay_it->second);
          push_event(*state.release_not_before, EventKind::Wakeup, actor);
          return;
        }
        if (now_ < *state.release_not_before) {
          return;
        }
      }
    }

    start_firing(actor, state);
  }

  void open_starvation(dataflow::ActorId actor, ActorState& state,
                       const Time& scheduled) {
    state.open_starvation = starvations_.size();
    starvations_.push_back(Starvation{actor, state.started,
                                      to_time_point(scheduled), std::nullopt});
  }

  void start_firing(dataflow::ActorId actor, ActorState& state) {
    for (std::size_t i = 0; i < state.ports.size(); ++i) {
      const Port& port = state.ports[i];
      if (port.in_edge.is_valid() && state.pending_quanta[i] > 0) {
        remove_tokens(port.in_edge, state.pending_quanta[i]);
      }
    }
    // The previous firing's quanta are dead; reuse its buffer for the next
    // draw instead of copying.
    std::swap(state.active_quanta, state.pending_quanta);
    state.active_start = now_;
    state.quanta_drawn = false;
    if (state.has_release_delays) {
      state.release_not_before.reset();
    }
    state.busy = true;

    if (state.mode_kind == ActorMode::Kind::StrictlyPeriodic &&
        state.open_starvation.has_value()) {
      starvations_[*state.open_starvation].actual_start = to_time_point(now_);
      state.open_starvation.reset();
    }

    ++state.started;
    ++total_firings_;
    actor_times_[actor.index()].last_start = now_;

    Time rho = state.rho;
    if (state.has_faults) {
      rho = Clock::add(rho, fault_extra(state));
    }
    state.active_finish = Clock::add(now_, rho);
    push_event(state.active_finish, EventKind::FiringFinish, actor);
  }

  /// Injected extra duration for the firing just counted by start_firing
  /// (index started − 1): the sum over the actor's fault entries whose
  /// window covers it.  The random part is a *stateless*
  /// hash of (rng_seed, firing index), so replay is exact regardless of
  /// how the run is segmented across run() calls.
  [[nodiscard]] Time fault_extra(const ActorState& state) const {
    Time extra{};
    const std::int64_t k = state.started - 1;
    for (const FaultEntry& fault : state.faults) {
      if (k < fault.from || k >= fault.until) {
        continue;
      }
      extra = Clock::add(extra, fault.base);
      if (!(fault.step == Time{})) {
        std::uint64_t z = fault.rng_seed +
                          static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        z ^= z >> 31;
        const auto grid_steps = static_cast<std::int64_t>(z % 1025);
        extra = Clock::add(extra, Clock::mul_int(fault.step, grid_steps));
      }
    }
    return extra;
  }

  /// At a deadlock (empty heap) no actor is busy and every actor has had
  /// its quanta drawn by the final enabling pass, so each idle actor's
  /// unsatisfied input edges are exactly known: record one BlockedWait per
  /// missing input.  Reporting only — no draws, no mutation.
  void collect_blocked_waits(std::vector<BlockedWait>& out) const {
    for (std::size_t i = 0; i < actors_.size(); ++i) {
      const ActorState& state = actors_[i];
      if (state.busy || !state.quanta_drawn) {
        continue;
      }
      const dataflow::ActorId id(
          static_cast<dataflow::ActorId::underlying_type>(i));
      for (std::size_t p = 0; p < state.ports.size(); ++p) {
        const Port& port = state.ports[p];
        if (!port.in_edge.is_valid()) {
          continue;
        }
        const std::int64_t needed = state.pending_quanta[p];
        const std::int64_t available = edges_[port.in_edge.index()].tokens;
        if (available >= needed) {
          continue;
        }
        const dataflow::Edge& edge = graph_->edge(port.in_edge);
        // Buffers add the data edge first, so the space half has the
        // larger id of the pair.
        const bool space = edge.paired.is_valid() &&
                           edge.paired.value() < port.in_edge.value();
        out.push_back(BlockedWait{id, port.in_edge, needed, available, space});
      }
    }
  }

  void finish_firing(dataflow::ActorId actor, ActorState& state) {
    for (std::size_t i = 0; i < state.ports.size(); ++i) {
      const Port& port = state.ports[i];
      if (port.out_edge.is_valid() && state.active_quanta[i] > 0) {
        add_tokens(port.out_edge, state.active_quanta[i]);
      }
    }
    state.busy = false;
    ++state.finished;
    if (state.record &&
        firing_records_[actor.index()].size() < state.record_cap) {
      firing_records_[actor.index()].push_back(
          TimedFiring{state.active_start, now_});
    }
    mark_dirty(actor);
  }

  void add_tokens(dataflow::EdgeId edge, std::int64_t count) {
    EdgeMetrics& m = edges_[edge.index()];
    m.tokens = checked_add(m.tokens, count);
    m.produced_total = checked_add(m.produced_total, count);
    m.max_tokens = std::max(m.max_tokens, m.tokens);
    if (transfer_recording_[edge.index()] != 0 &&
        production_records_[edge.index()].size() < transfer_caps_[edge.index()]) {
      production_records_[edge.index()].push_back(
          EdgeTransfer{m.produced_total, count, to_time_point(now_)});
    }
    mark_dirty(edge_target_[edge.index()]);
  }

  void remove_tokens(dataflow::EdgeId edge, std::int64_t count) {
    EdgeMetrics& m = edges_[edge.index()];
    m.tokens = checked_sub(m.tokens, count);
    VRDF_REQUIRE(m.tokens >= 0, "edge token count went negative (engine bug)");
    m.consumed_total = checked_add(m.consumed_total, count);
    m.min_tokens = std::min(m.min_tokens, m.tokens);
    if (transfer_recording_[edge.index()] != 0 &&
        consumption_records_[edge.index()].size() < transfer_caps_[edge.index()]) {
      consumption_records_[edge.index()].push_back(
          EdgeTransfer{m.consumed_total, count, to_time_point(now_)});
    }
  }

  const dataflow::VrdfGraph* graph_;
  Clock clock_;
  Time now_{};
  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;  // binary heap via std::push_heap (min-heap)
  std::vector<ActorState> actors_;
  std::vector<dataflow::ActorId> worklist_;
  std::vector<EdgeMetrics> edges_;
  std::vector<dataflow::ActorId> edge_target_;
  std::vector<ActorTimes> actor_times_;
  std::vector<std::vector<TimedFiring>> firing_records_;
  mutable std::vector<std::vector<FiringRecord>> firing_views_;
  std::vector<std::vector<EdgeTransfer>> production_records_;
  std::vector<std::vector<EdgeTransfer>> consumption_records_;
  std::vector<char> transfer_recording_;
  std::vector<std::size_t> transfer_caps_;
  std::vector<Starvation> starvations_;
  std::int64_t total_firings_ = 0;
};

}  // namespace vrdf::sim::detail
