// Task graphs — the paper's implementation model (Sec 3.1).
//
// T = (W, B, ξ, λ, κ, ζ): tasks W communicate over circular FIFO buffers B.
// A task execution starts only when its input buffer holds enough full
// containers (a value from λ(b)) *and* its output buffer holds enough empty
// containers (a value from ξ(b), the amount it will produce), so the
// execution runs to completion without blocking.  κ(w) is the worst-case
// response time guaranteed by the run-time arbiter; ζ(b) is the buffer
// capacity in containers — the quantity this library computes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "dataflow/rate_set.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "graph/ids.hpp"
#include "util/time.hpp"

namespace vrdf::taskgraph {

struct TaskTag {};
struct BufferTag {};
using TaskId = graph::Id<TaskTag>;
using BufferId = graph::Id<BufferTag>;

// A task id and the actor id the Sec 3.3 construction gives it are
// different types; VrdfConstruction::actor_of_task maps one to the other.
static_assert(!std::is_convertible_v<TaskId, dataflow::ActorId> &&
              !std::is_convertible_v<dataflow::ActorId, TaskId>);

struct Task {
  std::string name;
  Duration worst_case_response_time;  // κ(w) > 0
};

struct Buffer {
  TaskId producer;
  TaskId consumer;
  dataflow::RateSet production;   // ξ(b): containers produced per execution
  dataflow::RateSet consumption;  // λ(b): containers consumed per execution
  /// ζ(b): capacity in containers; nullopt until computed/assigned.
  std::optional<std::int64_t> capacity;
};

/// Result of the Sec 3.3 model construction: the VRDF graph plus the
/// task→actor and buffer→edge-pair correspondences.
struct VrdfConstruction {
  dataflow::VrdfGraph graph;
  std::vector<dataflow::ActorId> actor_of_task;      // indexed by TaskId
  std::vector<dataflow::BufferEdges> edges_of_buffer;  // indexed by BufferId
};

class TaskGraph {
public:
  /// Adds a task; names must be unique, κ must be positive.
  TaskId add_task(std::string name, Duration worst_case_response_time);

  /// Adds a buffer b_ab from producer to consumer with production set ξ and
  /// consumption set λ.  Capacity starts unset (buffers are initially
  /// empty; ζ is what the analysis computes).
  BufferId add_buffer(TaskId producer, TaskId consumer,
                      dataflow::RateSet production, dataflow::RateSet consumption);

  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] std::size_t buffer_count() const { return buffers_.size(); }
  [[nodiscard]] const Task& task(TaskId id) const;
  /// Task lookup by unique name, O(log n).
  [[nodiscard]] std::optional<TaskId> find_task(std::string_view name) const;

  /// Sets ζ(b).
  void set_capacity(BufferId id, std::int64_t capacity);

  /// Sec 3.3 construction: one actor per task with ρ(v) = κ(w); one buffer
  /// pair of anti-parallel edges per buffer with δ(space edge) = ζ(b).
  /// Buffers with unset capacity get δ = 0 (analysis will fill them in).
  [[nodiscard]] VrdfConstruction to_vrdf() const;

  /// As to_vrdf(), but with ρ(v) taken from `response_times` (indexed by
  /// TaskId) instead of the stored κ — the deployment path derives κ from
  /// the platform's arbiters and injects it here.  The vector must have
  /// one positive entry per task.
  [[nodiscard]] VrdfConstruction to_vrdf(
      const std::vector<Duration>& response_times) const;

private:
  [[nodiscard]] auto task_name() const {
    return [this](TaskId id) -> const std::string& {
      return tasks_[id.index()].name;
    };
  }

  std::vector<Task> tasks_;
  graph::NameIndex<TaskId> names_;
  std::vector<Buffer> buffers_;
};

}  // namespace vrdf::taskgraph
