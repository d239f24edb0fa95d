// Shared simulator types: actor execution modes, stop conditions, metrics
// and run results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/vrdf_graph.hpp"
#include "util/time.hpp"

namespace vrdf::sim {

/// Which internal time representation the simulator uses.  Both are exact
/// and produce identical results; the tick clock is the fast path (see
/// docs/performance.md).
enum class ClockMode {
  /// Tick clock when a scale exists, exact Rational otherwise (default).
  Auto,
  /// Always use exact Rational time (reference path for equivalence tests).
  ForceExactRational,
};

/// How an actor decides when to fire.
struct ActorMode {
  enum class Kind {
    /// Fires as soon as enabled (maximal progress).  Sound reference
    /// behaviour by monotonicity (Def 1).
    SelfTimed,
    /// Fires at offset + k·period; if tokens are missing at an activation
    /// the simulator records a starvation and the firing happens as soon
    /// as it becomes enabled (late).  Activation k+1 stays at
    /// offset + (k+1)·period — the schedule does not drift.
    StrictlyPeriodic,
    /// Fires as soon as enabled but never starts two firings closer than
    /// `period` apart — the "minimal difference between subsequent starts"
    /// φ(v) of the analysis.
    RateLimited,
  };

  Kind kind = Kind::SelfTimed;
  TimePoint offset;  // StrictlyPeriodic only
  Duration period;   // StrictlyPeriodic / RateLimited

  [[nodiscard]] static ActorMode strictly_periodic(TimePoint offset,
                                                   Duration period) {
    return ActorMode{Kind::StrictlyPeriodic, offset, period};
  }
  [[nodiscard]] static ActorMode rate_limited(Duration period) {
    return ActorMode{Kind::RateLimited, TimePoint(), period};
  }
};

/// A periodic activation that could not start on time.
struct Starvation {
  dataflow::ActorId actor;
  std::int64_t firing = 0;      // 0-based firing index
  TimePoint scheduled;          // offset + firing·period
  std::optional<TimePoint> actual_start;  // unset if never started
};

/// Why a run stopped.
enum class StopReason {
  ReachedTimeLimit,
  ReachedFiringTarget,
  /// No event pending and no actor can ever fire again.
  Deadlock,
  /// Event budget exhausted (safety valve against misconfiguration).
  EventBudgetExhausted,
};

struct StopCondition {
  /// Process events up to and including this time.
  std::optional<TimePoint> until_time;
  /// Stop once `actor` finished `count` firings.
  struct FiringTarget {
    dataflow::ActorId actor;
    std::int64_t count = 0;
  };
  std::optional<FiringTarget> firing_target;
  /// Hard cap on processed firings (all actors).
  std::int64_t max_firings = 10'000'000;
};

struct EdgeMetrics {
  std::int64_t tokens = 0;          // current
  std::int64_t max_tokens = 0;      // high-water mark
  std::int64_t min_tokens = 0;      // low-water mark
  std::int64_t produced_total = 0;  // tokens ever produced onto the edge
  std::int64_t consumed_total = 0;  // tokens ever consumed from the edge
};

/// One unsatisfied token demand of an idle actor at a deadlock: the
/// actor's next firing needs `needed` tokens on `edge` but only
/// `available` are present.  The set of these waits is the wait-for
/// relation the stall watchdog (sim/monitor.hpp) walks to name the
/// blocked cycle.
struct BlockedWait {
  /// The waiting actor (the edge's consumer).
  dataflow::ActorId actor;
  /// The edge whose tokens are missing.
  dataflow::EdgeId edge;
  /// The firing's pending consumption quantum on that edge.
  std::int64_t needed = 0;
  /// Tokens currently on the edge (< needed).
  std::int64_t available = 0;
  /// True when `edge` is the space half of a buffer: the actor waits for
  /// free containers (back-pressure), not for data.
  bool waiting_for_space = false;
};

struct RunResult {
  StopReason reason = StopReason::ReachedTimeLimit;
  TimePoint end_time;
  std::int64_t total_firings = 0;
  std::vector<Starvation> starvations;
  /// Populated on every deadlocked run: one entry per missing input of
  /// each permanently blocked actor (empty for other stop reasons).
  std::vector<BlockedWait> blocked;
  [[nodiscard]] bool deadlocked() const { return reason == StopReason::Deadlock; }
};

}  // namespace vrdf::sim
