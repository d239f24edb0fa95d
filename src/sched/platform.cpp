#include "sched/platform.hpp"

#include "util/error.hpp"

namespace vrdf::sched {

std::size_t Platform::add_processor(std::string name, Duration wheel_period) {
  VRDF_REQUIRE(!name.empty(), "processor name must be non-empty");
  VRDF_REQUIRE(wheel_period.is_positive(), "wheel period must be positive");
  for (const Processor& p : processors_) {
    VRDF_REQUIRE(p.name != name, "processor name '" + name + "' already used");
  }
  processors_.push_back(
      Processor{std::move(name), wheel_period, Duration()});
  return processors_.size() - 1;
}

void Platform::bind_task(const std::string& task, std::size_t processor,
                         Duration slot, Duration wcet) {
  (void)checked_processor_(processor);  // the range error comes first
  VRDF_REQUIRE(slot.is_positive(), "slot budget of task '" + task +
                                       "' must be positive");
  VRDF_REQUIRE(wcet.is_positive(),
               "WCET of task '" + task + "' must be positive");
  VRDF_REQUIRE(find_binding(task) == nullptr,
               "task '" + task + "' is already bound");
  Processor& proc = processors_[processor];
  const Duration after = proc.allocated + slot;
  VRDF_REQUIRE(after <= proc.wheel_period,
               "TDM wheel of processor '" + proc.name +
                   "' oversubscribed by binding task '" + task + "'");
  proc.allocated = after;
  bindings_.push_back(Binding{task, processor, slot, wcet});
}

void Platform::set_slot(const std::string& task, Duration slot) {
  VRDF_REQUIRE(slot.is_positive(), "slot budget of task '" + task +
                                       "' must be positive");
  Binding* binding = nullptr;
  for (Binding& b : bindings_) {
    if (b.task == task) {
      binding = &b;
      break;
    }
  }
  VRDF_REQUIRE(binding != nullptr, "task '" + task + "' is not bound");
  Processor& proc = processors_[binding->processor];
  const Duration after = proc.allocated - binding->slot + slot;
  VRDF_REQUIRE(after <= proc.wheel_period,
               "TDM wheel of processor '" + proc.name +
                   "' oversubscribed by retuning the slot of task '" + task +
                   "'");
  proc.allocated = after;
  binding->slot = slot;
}

const std::string& Platform::processor_name(std::size_t index) const {
  return checked_processor_(index).name;
}

Duration Platform::wheel_period(std::size_t index) const {
  return checked_processor_(index).wheel_period;
}

Duration Platform::slack(std::size_t processor) const {
  const Processor& proc = checked_processor_(processor);
  return proc.wheel_period - proc.allocated;
}

ServiceModel Platform::service_model(const std::string& task) const {
  const Binding* binding = find_binding(task);
  VRDF_REQUIRE(binding != nullptr, "task '" + task + "' is not bound");
  return ServiceModel{binding->wcet, binding->slot,
                      processors_[binding->processor].wheel_period};
}

std::size_t Platform::processor_of(const std::string& task) const {
  const Binding* binding = find_binding(task);
  VRDF_REQUIRE(binding != nullptr, "task '" + task + "' is not bound");
  return binding->processor;
}

bool Platform::is_bound(const std::string& task) const {
  return find_binding(task) != nullptr;
}

Rational Platform::utilization(std::size_t processor) const {
  const Processor& proc = checked_processor_(processor);
  return proc.allocated.seconds() / proc.wheel_period.seconds();
}

const Platform::Processor& Platform::checked_processor_(
    std::size_t index) const {
  VRDF_REQUIRE(index < processors_.size(),
               "processor index " + std::to_string(index) +
                   " out of range (platform has " +
                   std::to_string(processors_.size()) + " processors)");
  return processors_[index];
}

const Platform::Binding* Platform::find_binding(const std::string& task) const {
  for (const Binding& b : bindings_) {
    if (b.task == task) {
      return &b;
    }
  }
  return nullptr;
}

}  // namespace vrdf::sched
