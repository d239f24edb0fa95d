#include "sim/fault_injection.hpp"

#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace vrdf::sim {

namespace {

constexpr std::int64_t kNoEnd = std::numeric_limits<std::int64_t>::max();

[[nodiscard]] std::int64_t window_end(std::int64_t from, std::int64_t firings) {
  if (firings < 0) {
    return kNoEnd;
  }
  return from > kNoEnd - firings ? kNoEnd : from + firings;
}

}  // namespace

FaultPlan& FaultPlan::rho_overrun(dataflow::ActorId actor, Duration extra,
                                  Rational factor, std::int64_t from_firing,
                                  std::int64_t firings) {
  VRDF_REQUIRE(actor.is_valid(), "fault actor must be valid");
  VRDF_REQUIRE(!extra.is_negative(), "overrun extra must be non-negative");
  VRDF_REQUIRE(factor >= Rational(1), "overrun factor must be >= 1");
  VRDF_REQUIRE(from_firing >= 0, "fault window start must be non-negative");
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::RhoOverrun;
  spec.actor = actor;
  spec.extra = extra;
  spec.factor = factor;
  spec.from_firing = from_firing;
  spec.firings = firings;
  specs_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::transient_stall(dataflow::ActorId actor,
                                      std::int64_t at_firing, Duration outage) {
  VRDF_REQUIRE(actor.is_valid(), "fault actor must be valid");
  VRDF_REQUIRE(at_firing >= 0, "stalled firing index must be non-negative");
  VRDF_REQUIRE(outage.is_positive(), "stall outage must be positive");
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::TransientStall;
  spec.actor = actor;
  spec.extra = outage;
  spec.from_firing = at_firing;
  spec.firings = 1;
  specs_.push_back(spec);
  return *this;
}

void FaultPlan::apply(Simulator& sim) const {
  const dataflow::VrdfGraph& graph = sim.graph();
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& spec = specs_[i];
    VRDF_REQUIRE(spec.actor.index() < graph.actor_count(),
                 "fault actor does not exist in the simulated graph");
    ResponseTimeFault fault;
    fault.from = spec.from_firing;
    fault.until = window_end(spec.from_firing, spec.firings);
    switch (spec.kind) {
      case FaultSpec::Kind::RhoOverrun:
        // ρ·factor + extra  ==  ρ + (factor − 1)·ρ + extra, folded into
        // one additive constant the tick scale can represent.
        fault.base = spec.extra + graph.actor(spec.actor).response_time *
                                      (spec.factor - Rational(1));
        break;
      case FaultSpec::Kind::TransientStall:
        fault.base = spec.extra;
        break;
    }
    if (fault.base.is_zero()) {
      continue;  // a zero-extra overrun is a no-op
    }
    sim.add_response_time_fault(spec.actor, fault);
  }
}

std::string FaultPlan::describe(const dataflow::VrdfGraph& graph) const {
  std::ostringstream os;
  os << "fault plan (seed " << seed_ << ")";
  for (const FaultSpec& spec : specs_) {
    os << "\n  ";
    const std::string& name = graph.actor(spec.actor).name;
    switch (spec.kind) {
      case FaultSpec::Kind::RhoOverrun:
        os << "rho_overrun on '" << name << "': rho*"
           << spec.factor.to_string() << " + " << spec.extra.to_string()
           << " from firing " << spec.from_firing;
        if (spec.firings >= 0) {
          os << " for " << spec.firings << " firings";
        }
        break;
      case FaultSpec::Kind::TransientStall:
        os << "transient_stall on '" << name << "': firing "
           << spec.from_firing << " frozen for " << spec.extra.to_string();
        break;
    }
  }
  return os.str();
}

}  // namespace vrdf::sim
