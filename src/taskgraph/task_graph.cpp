#include "taskgraph/task_graph.hpp"

#include "util/error.hpp"

namespace vrdf::taskgraph {

TaskId TaskGraph::add_task(std::string name, Duration worst_case_response_time) {
  VRDF_REQUIRE(!name.empty(), "task name must be non-empty");
  VRDF_REQUIRE(worst_case_response_time.is_positive(),
               "task worst-case response time must be positive");
  const TaskId id(static_cast<TaskId::underlying_type>(tasks_.size()));
  const bool fresh = names_.insert(id, name, task_name());
  VRDF_REQUIRE(fresh, "task name '" + name + "' is already in use");
  tasks_.push_back(Task{std::move(name), worst_case_response_time});
  return id;
}

BufferId TaskGraph::add_buffer(TaskId producer, TaskId consumer,
                               dataflow::RateSet production,
                               dataflow::RateSet consumption) {
  VRDF_REQUIRE(producer.index() < tasks_.size(),
               "buffer producer does not exist");
  VRDF_REQUIRE(consumer.index() < tasks_.size(),
               "buffer consumer does not exist");
  VRDF_REQUIRE(producer != consumer, "a task cannot buffer to itself");
  const BufferId id(static_cast<BufferId::underlying_type>(buffers_.size()));
  buffers_.push_back(Buffer{producer, consumer, std::move(production),
                            std::move(consumption), std::nullopt});
  return id;
}

const Task& TaskGraph::task(TaskId id) const {
  VRDF_REQUIRE(id.index() < tasks_.size(), "task id out of range");
  return tasks_[id.index()];
}

std::optional<TaskId> TaskGraph::find_task(std::string_view name) const {
  return names_.find(name, task_name());
}

void TaskGraph::set_capacity(BufferId id, std::int64_t capacity) {
  VRDF_REQUIRE(id.index() < buffers_.size(), "buffer id out of range");
  VRDF_REQUIRE(capacity > 0, "buffer capacity must be positive");
  buffers_[id.index()].capacity = capacity;
}

VrdfConstruction TaskGraph::to_vrdf() const {
  std::vector<Duration> response_times;
  response_times.reserve(tasks_.size());
  for (const Task& t : tasks_) {
    response_times.push_back(t.worst_case_response_time);
  }
  return to_vrdf(response_times);
}

VrdfConstruction TaskGraph::to_vrdf(
    const std::vector<Duration>& response_times) const {
  VRDF_REQUIRE(response_times.size() == tasks_.size(),
               "response-time vector must have one entry per task (" +
                   std::to_string(response_times.size()) + " given, " +
                   std::to_string(tasks_.size()) + " tasks)");
  VrdfConstruction out;
  out.actor_of_task.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    VRDF_REQUIRE(response_times[i].is_positive(),
                 "response time of task '" + tasks_[i].name +
                     "' must be positive");
    out.actor_of_task.push_back(
        out.graph.add_actor(tasks_[i].name, response_times[i]));
  }
  out.edges_of_buffer.reserve(buffers_.size());
  for (const Buffer& b : buffers_) {
    // δ(e_ba) = ζ(b_ab): the buffer capacity becomes the initial tokens on
    // the space edge (Sec 3.3); unset capacities contribute zero tokens.
    const std::int64_t capacity = b.capacity.value_or(0);
    out.edges_of_buffer.push_back(out.graph.add_buffer(
        out.actor_of_task[b.producer.index()],
        out.actor_of_task[b.consumer.index()], b.production, b.consumption,
        capacity));
  }
  return out;
}

}  // namespace vrdf::taskgraph
