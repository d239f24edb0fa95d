#include "sim/simulator.hpp"

#include <sstream>
#include <utility>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace vrdf::sim {

using dataflow::ActorId;
using dataflow::BufferEdges;
using dataflow::Edge;
using dataflow::EdgeId;

Simulator::Simulator(const dataflow::VrdfGraph& graph) : graph_(graph) {
  const std::size_t n_actors = graph.actor_count();
  const std::size_t n_edges = graph.edge_count();
  config_.actors.resize(n_actors);
  config_.transfer_recording.assign(n_edges, 0);
  config_.transfer_caps.assign(n_edges, 0);
  initial_edge_metrics_.resize(n_edges);
  for (const EdgeId e : graph.edges()) {
    initial_edge_metrics_[e.index()].tokens = graph.edge(e).initial_tokens;
    initial_edge_metrics_[e.index()].max_tokens = graph.edge(e).initial_tokens;
    initial_edge_metrics_[e.index()].min_tokens = graph.edge(e).initial_tokens;
  }

  // Build ports.  Buffer pairs give each endpoint one port covering both
  // half-edges; bare edges give one single-sided port per endpoint.
  std::vector<char> edge_covered(n_edges, 0);
  for (const BufferEdges& b : graph.buffers()) {
    const Edge& data = graph.edge(b.data);
    config_.actors[data.source.index()].ports.push_back(
        detail::PortConfig{b.space, b.data, nullptr});
    config_.actors[data.target.index()].ports.push_back(
        detail::PortConfig{b.data, b.space, nullptr});
    edge_covered[b.data.index()] = 1;
    edge_covered[b.space.index()] = 1;
  }
  for (const EdgeId e : graph.edges()) {
    if (edge_covered[e.index()] != 0) {
      continue;
    }
    const Edge& edge = graph.edge(e);
    config_.actors[edge.source.index()].ports.push_back(
        detail::PortConfig{EdgeId::invalid(), e, nullptr});
    config_.actors[edge.target.index()].ports.push_back(
        detail::PortConfig{e, EdgeId::invalid(), nullptr});
  }
}

Simulator::~Simulator() = default;

template <typename Fn, typename Fallback>
decltype(auto) Simulator::dispatch(Fn&& fn, Fallback&& fallback) const {
  if (tick_ != nullptr) {
    return fn(*tick_);
  }
  if (rational_ != nullptr) {
    return fn(*rational_);
  }
  return fallback();
}

void Simulator::check_actor(ActorId actor) const {
  VRDF_REQUIRE(actor.is_valid() && actor.index() < config_.actors.size(),
               "actor id out of range");
}

void Simulator::check_edge(EdgeId edge) const {
  VRDF_REQUIRE(edge.is_valid() && edge.index() < initial_edge_metrics_.size(),
               "edge id out of range");
}

void Simulator::check_configurable() const {
  VRDF_REQUIRE(!has_engine(), "configure the simulator before its first run");
}

void Simulator::set_clock_mode(ClockMode mode) {
  check_configurable();
  clock_mode_ = mode;
}

bool Simulator::using_tick_clock() const { return tick_ != nullptr; }

std::optional<std::int64_t> Simulator::tick_resolution() const {
  if (tick_ == nullptr) {
    return std::nullopt;
  }
  return tick_->clock().scale.ticks_per_second();
}

void Simulator::set_actor_mode(ActorId actor, ActorMode mode) {
  check_configurable();
  check_actor(actor);
  if (mode.kind != ActorMode::Kind::SelfTimed) {
    VRDF_REQUIRE(mode.period.is_positive(), "mode period must be positive");
  }
  config_.actors[actor.index()].mode = mode;
}

void Simulator::set_quantum_source(ActorId actor, EdgeId edge,
                                   std::unique_ptr<QuantumSource> source) {
  check_configurable();
  check_actor(actor);
  check_edge(edge);
  VRDF_REQUIRE(source != nullptr, "quantum source must not be null");
  // Normalize a space edge to its data edge: ports store buffer edges as
  // (in, out) pairs, so matching either half works, but bare-edge matching
  // needs the concrete edge.
  for (detail::PortConfig& port : config_.actors[actor.index()].ports) {
    if (port.in_edge == edge || port.out_edge == edge) {
      port.source = std::move(source);
      port.constant = false;
      port.trusted = false;
      return;
    }
  }
  const Edge& named = graph_.edge(edge);
  std::ostringstream os;
  os << "actor '" << graph_.actor(actor).name << "' has no port on edge "
     << graph_.actor(named.source).name << " -> "
     << graph_.actor(named.target).name;
  throw ContractError(os.str());
}

void Simulator::set_default_sources(std::uint64_t seed) {
  check_configurable();
  std::uint64_t salt = 0;
  for (detail::ActorConfig& actor : config_.actors) {
    for (detail::PortConfig& port : actor.ports) {
      ++salt;
      if (port.source != nullptr) {
        continue;
      }
      // The rate set governing this port: production set of the out edge
      // (equals the consumption set of the in edge for buffer ports).
      const dataflow::RateSet& set =
          port.out_edge.is_valid() ? graph_.edge(port.out_edge).production
                                   : graph_.edge(port.in_edge).consumption;
      if (set.is_singleton()) {
        port.source = constant_source(set.max());
        port.constant = true;
      } else {
        port.source = uniform_random_source(set, seed * 0x9E3779B97F4A7C15ULL + salt);
      }
      port.trusted = true;
    }
  }
}

void Simulator::inject_release_delay(ActorId actor, std::int64_t firing_index,
                                     Duration delay) {
  check_configurable();
  check_actor(actor);
  VRDF_REQUIRE(firing_index >= 0, "firing index must be non-negative");
  VRDF_REQUIRE(!delay.is_negative(), "release delay must be non-negative");
  config_.actors[actor.index()].release_delays[firing_index] = delay.seconds();
}

void Simulator::set_response_time_jitter(ActorId actor, std::uint64_t seed,
                                         Rational min_fraction) {
  check_configurable();
  check_actor(actor);
  VRDF_REQUIRE(min_fraction.is_positive() && min_fraction <= Rational(1),
               "jitter fraction must be in (0, 1]");
  // Duration ρ + base + step·u_k = ρ·min_fraction + step·u_k for u_k in
  // [0, 1024].  The splitmix-style seed state keeps streams independent
  // across actors.  The fault hash of firing k reads
  // rng_seed + k·G = seed_state + (k+1)·G: splitmix64's (k+1)-th state
  // after the seed state.
  const Rational rho = graph_.actor(actor).response_time.seconds();
  const std::uint64_t seed_state =
      seed * 0x9E3779B97F4A7C15ULL + actor.value() + 1;
  ResponseTimeFault grid;
  grid.base = Duration(rho * min_fraction - rho);
  grid.step = Duration(rho * (Rational(1) - min_fraction) / Rational(1024));
  grid.rng_seed = seed_state + 0x9E3779B97F4A7C15ULL;
  config_.actors[actor.index()].jitter = grid;
}

void Simulator::add_response_time_fault(ActorId actor,
                                        const ResponseTimeFault& fault) {
  check_configurable();
  check_actor(actor);
  VRDF_REQUIRE(!fault.base.is_negative() && !fault.step.is_negative(),
               "fault base/step must be non-negative");
  VRDF_REQUIRE(fault.from >= 0 && fault.from <= fault.until,
               "fault firing window must be non-negative and ordered");
  config_.actors[actor.index()].faults.push_back(fault);
}

void Simulator::record_firings(ActorId actor, std::size_t max_records) {
  check_configurable();
  check_actor(actor);
  config_.actors[actor.index()].record = true;
  config_.actors[actor.index()].record_cap = max_records;
}

void Simulator::record_transfers(EdgeId edge, std::size_t max_records) {
  check_configurable();
  check_edge(edge);
  config_.transfer_recording[edge.index()] = 1;
  config_.transfer_caps[edge.index()] = max_records;
}

std::optional<TimeScale> Simulator::compute_scale(
    const StopCondition& stop) const {
  TimeScale::Builder builder;
  std::vector<Rational> constants;
  const auto fold = [&](const Rational& r) {
    builder.fold(r);
    constants.push_back(r);
  };
  try {
    for (const ActorId a : graph_.actors()) {
      fold(graph_.actor(a).response_time.seconds());
    }
    for (const detail::ActorConfig& cfg : config_.actors) {
      if (cfg.mode.kind != ActorMode::Kind::SelfTimed) {
        fold(cfg.mode.offset.seconds());
        fold(cfg.mode.period.seconds());
      }
      for (const auto& [index, delay] : cfg.release_delays) {
        fold(delay);
      }
      for (const ResponseTimeFault& fault : cfg.faults) {
        fold(fault.base.seconds());
        fold(fault.step.seconds());
      }
    }
    if (stop.until_time.has_value()) {
      fold(stop.until_time->seconds());
    }
  } catch (const OverflowError&) {
    return std::nullopt;
  }
  std::optional<TimeScale> scale = builder.build();
  if (!scale.has_value()) {
    return std::nullopt;
  }
  // The LCM can be in range while an individual constant's tick count is
  // not (huge numerator at a fine scale); such models stay on Rational.
  for (const Rational& r : constants) {
    if (!scale->fits(r)) {
      return std::nullopt;
    }
  }
  return scale;
}

void Simulator::create_engine(const StopCondition& stop) {
  // From here on jitter is one more fault grid.
  for (detail::ActorConfig& cfg : config_.actors) {
    if (cfg.jitter.has_value()) {
      cfg.faults.push_back(*cfg.jitter);
    }
  }
  std::optional<TimeScale> scale;
  if (clock_mode_ != ClockMode::ForceExactRational) {
    scale = compute_scale(stop);
  }
  if (scale.has_value()) {
    tick_ = std::make_unique<detail::Engine<detail::TickClock>>(
        graph_, std::move(config_), detail::TickClock{*scale});
  } else {
    rational_ = std::make_unique<detail::Engine<detail::RationalClock>>(
        graph_, std::move(config_), detail::RationalClock{});
  }
}

RunResult Simulator::run(const StopCondition& stop) {
  if (stop.firing_target.has_value()) {
    check_actor(stop.firing_target->actor);
  }
  if (stop.until_time.has_value() && *stop.until_time < now()) {
    std::ostringstream os;
    os << "stop horizon " << stop.until_time->seconds().to_string()
       << " s lies before the simulation clock ("
       << now().seconds().to_string() << " s)";
    throw ContractError(os.str());
  }
  if (!has_engine()) {
    create_engine(stop);
  } else if (tick_ != nullptr && stop.until_time.has_value() &&
             !tick_->clock().scale.fits(stop.until_time->seconds())) {
    std::ostringstream os;
    os << "stop horizon " << stop.until_time->seconds().to_string()
       << " s is not a whole int64 number of ticks at this simulator's "
       << tick_->clock().scale.ticks_per_second()
       << " ticks per second; pass the horizon to the first run, or pin "
          "ClockMode::ForceExactRational";
    throw ContractError(os.str());
  }
  return tick_ != nullptr ? tick_->run(stop) : rational_->run(stop);
}

Simulator::StateSnapshot Simulator::snapshot() const {
  return dispatch([](const auto& e) { return e.snapshot(); },
                  [&]() {
                    StateSnapshot snap;
                    snap.tokens.reserve(initial_edge_metrics_.size());
                    for (const EdgeMetrics& m : initial_edge_metrics_) {
                      snap.tokens.push_back(m.tokens);
                    }
                    snap.remaining.assign(config_.actors.size(), std::nullopt);
                    return snap;
                  });
}

const EdgeMetrics& Simulator::edge_metrics(EdgeId edge) const {
  check_edge(edge);
  return dispatch(
      [&](const auto& e) -> const EdgeMetrics& { return e.edge_metrics(edge); },
      [&]() -> const EdgeMetrics& { return initial_edge_metrics_[edge.index()]; });
}

namespace {
template <typename T>
const std::vector<T>& empty_records() {
  static const std::vector<T> kEmpty;
  return kEmpty;
}
}  // namespace

const std::vector<FiringRecord>& Simulator::firings(ActorId actor) const {
  check_actor(actor);
  return dispatch(
      [&](const auto& e) -> const std::vector<FiringRecord>& {
        return e.firings(actor);
      },
      []() -> const std::vector<FiringRecord>& {
        return empty_records<FiringRecord>();
      });
}

std::optional<PeriodicFit> Simulator::fit_periodic_offset(
    ActorId actor, Duration period) const {
  check_actor(actor);
  VRDF_REQUIRE(!period.is_negative(), "fit period must be non-negative");
  return dispatch(
      [&](const auto& e) {
        return e.fit_periodic_offset(actor, period.seconds());
      },
      []() -> std::optional<PeriodicFit> { return std::nullopt; });
}

const std::vector<EdgeTransfer>& Simulator::production_events(EdgeId edge) const {
  check_edge(edge);
  return dispatch(
      [&](const auto& e) -> const std::vector<EdgeTransfer>& {
        return e.production_events(edge);
      },
      []() -> const std::vector<EdgeTransfer>& {
        return empty_records<EdgeTransfer>();
      });
}

const std::vector<EdgeTransfer>& Simulator::consumption_events(EdgeId edge) const {
  check_edge(edge);
  return dispatch(
      [&](const auto& e) -> const std::vector<EdgeTransfer>& {
        return e.consumption_events(edge);
      },
      []() -> const std::vector<EdgeTransfer>& {
        return empty_records<EdgeTransfer>();
      });
}

TimePoint Simulator::now() const {
  return dispatch([](const auto& e) { return e.now(); },
                  []() { return TimePoint(); });
}

}  // namespace vrdf::sim
