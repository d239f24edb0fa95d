// Multiprocessor platform with per-processor arbitration — the deployment
// substrate the paper assumes (Sec 3.1: "all shared resources have
// run-time arbiters" whose worst-case response time is independent of
// activation rates, per [15]).
//
// A Platform is a set of processors, each running a TDM wheel.  Tasks are
// bound to a processor with a slot budget and a worst-case execution
// time; the platform derives each task's ServiceModel, from which the
// deployment analysis takes the worst-case response time κ that feeds
// the task graph and from there the buffer-capacity analysis.
// Validation guarantees a TDM wheel is never oversubscribed
// (Σ slots ≤ period).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/arbiter.hpp"
#include "util/time.hpp"

namespace vrdf::sched {

class Platform {
public:
  struct Binding {
    std::string task;
    std::size_t processor = 0;
    Duration slot;
    Duration wcet;
  };

  /// Adds a processor with a TDM wheel of `wheel_period`; returns its
  /// index.
  std::size_t add_processor(std::string name, Duration wheel_period);

  /// Binds a task to a processor with a slot budget and WCET.  Throws a
  /// line-attributable ContractError when the processor index is out of
  /// range, the wheel would be oversubscribed (Σ slots > period), the
  /// slot is not positive, or the task name is already bound.
  void bind_task(const std::string& task, std::size_t processor, Duration slot,
                 Duration wcet);

  /// Retunes the slot budget of a bound task in place.  Throws when the
  /// task is unknown, the slot is not positive, or the new slot would
  /// oversubscribe the wheel.
  void set_slot(const std::string& task, Duration slot);

  [[nodiscard]] std::size_t processor_count() const { return processors_.size(); }
  [[nodiscard]] const std::string& processor_name(std::size_t index) const;
  [[nodiscard]] Duration wheel_period(std::size_t index) const;

  /// Remaining unallocated wheel time.
  [[nodiscard]] Duration slack(std::size_t processor) const;

  /// The service derivation of a bound task's allocation.
  [[nodiscard]] ServiceModel service_model(const std::string& task) const;

  /// Processor index a bound task runs on.
  [[nodiscard]] std::size_t processor_of(const std::string& task) const;

  [[nodiscard]] bool is_bound(const std::string& task) const;

  /// All bindings in insertion order.
  [[nodiscard]] const std::vector<Binding>& bindings() const { return bindings_; }

  /// Utilization of a processor: allocated slot time over the wheel
  /// period.
  [[nodiscard]] Rational utilization(std::size_t processor) const;

private:
  struct Processor {
    std::string name;
    Duration wheel_period;
    Duration allocated;
  };

  /// Bounds-checked processor access; the error names the index and the
  /// processor count (PR 4 error conventions).
  [[nodiscard]] const Processor& checked_processor_(std::size_t index) const;
  [[nodiscard]] const Binding* find_binding(const std::string& task) const;

  std::vector<Processor> processors_;
  std::vector<Binding> bindings_;
};

}  // namespace vrdf::sched
