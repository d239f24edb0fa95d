// Unit tests for the task-graph model and the Sec 3.3 VRDF construction.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "dataflow/validation.hpp"
#include "taskgraph/task_graph.hpp"
#include "util/error.hpp"

namespace vrdf::taskgraph {
namespace {

using dataflow::RateSet;

const Duration kKappa = milliseconds(Rational(2));

TaskGraph three_task_chain() {
  TaskGraph g;
  const TaskId a = g.add_task("a", kKappa);
  const TaskId b = g.add_task("b", kKappa);
  const TaskId c = g.add_task("c", kKappa);
  (void)g.add_buffer(a, b, RateSet::singleton(3), RateSet::of({2, 3}));
  (void)g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(4));
  return g;
}

/// The Sec 3.1 chain restriction, read off the buffer view of the Sec 3.3
/// construction.
bool is_chain(const TaskGraph& g) {
  const auto view = g.to_vrdf().graph.buffer_view();
  return view.has_value() && view->is_chain;
}

/// δ(space edge) of buffer `b` in the Sec 3.3 construction: ζ(b), or 0
/// while unset.
std::int64_t installed_capacity(const TaskGraph& g, BufferId b) {
  const VrdfConstruction built = g.to_vrdf();
  return built.graph.edge(built.edges_of_buffer[b.index()].space)
      .initial_tokens;
}

TEST(TaskGraph, BasicConstruction) {
  const TaskGraph g = three_task_chain();
  EXPECT_EQ(g.task_count(), 3u);
  EXPECT_EQ(g.buffer_count(), 2u);
  EXPECT_EQ(g.task(TaskId(0)).name, "a");
  const VrdfConstruction built = g.to_vrdf();
  EXPECT_EQ(built.graph.edge(built.edges_of_buffer[0].data).production,
            RateSet::singleton(3));
}

TEST(TaskGraph, RejectsBadInputs) {
  TaskGraph g;
  const TaskId a = g.add_task("a", kKappa);
  EXPECT_THROW(g.add_task("a", kKappa), ContractError);
  EXPECT_THROW(g.add_task("", kKappa), ContractError);
  EXPECT_THROW(g.add_task("b", Duration()), ContractError);
  EXPECT_THROW(
      g.add_buffer(a, a, RateSet::singleton(1), RateSet::singleton(1)),
      ContractError);
  // Buffers may only join tasks that exist; ids index the task array.
  EXPECT_THROW(
      g.add_buffer(a, TaskId(5), RateSet::singleton(1), RateSet::singleton(1)),
      ContractError);
  EXPECT_THROW(g.add_buffer(TaskId::invalid(), a, RateSet::singleton(1),
                            RateSet::singleton(1)),
               ContractError);
  EXPECT_EQ(g.buffer_count(), 0u);
  EXPECT_THROW((void)g.task(TaskId(5)), ContractError);
  EXPECT_THROW((void)g.task(TaskId::invalid()), ContractError);
}

TEST(TaskGraph, FindTask) {
  const TaskGraph g = three_task_chain();
  EXPECT_EQ(g.find_task("b"), TaskId(1));
  EXPECT_FALSE(g.find_task("zz").has_value());
}

TEST(TaskGraph, NameIndexResolvesPrefixesSlicesAndCopies) {
  TaskGraph g;
  const TaskId a10 = g.add_task("a10", kKappa);
  const TaskId a = g.add_task("a", kKappa);
  const TaskId a1 = g.add_task("a1", kKappa);
  EXPECT_EQ(g.find_task("a"), a);
  EXPECT_EQ(g.find_task("a1"), a1);
  EXPECT_EQ(g.find_task("a10"), a10);
  EXPECT_FALSE(g.find_task("a100").has_value());
  // A slice of a longer buffer, not NUL-terminated.
  const std::string text = "a10xyz";
  EXPECT_EQ(g.find_task(std::string_view(text).substr(0, 2)), a1);
  EXPECT_EQ(g.find_task(std::string_view(text).substr(0, 3)), a10);
  // A copy answers with the same ids, and its index is its own.
  TaskGraph copy = g;
  for (const char* name : {"a", "a1", "a10"}) {
    EXPECT_EQ(copy.find_task(name), g.find_task(name)) << name;
  }
  const TaskId b = copy.add_task("b", kKappa);
  EXPECT_EQ(copy.find_task("b"), b);
  EXPECT_FALSE(g.find_task("b").has_value());
  // The construction's actors carry the task names.
  const VrdfConstruction vrdf = g.to_vrdf();
  for (const char* name : {"a", "a1", "a10"}) {
    EXPECT_EQ(vrdf.graph.find_actor(name),
              vrdf.actor_of_task[g.find_task(name)->index()])
        << name;
  }
}

TEST(TaskGraph, NameIndexScalesAndKeepsInsertionOrder) {
  constexpr std::size_t kTasks = 4096;
  const auto name_of = [](std::size_t i) {
    std::string name = "t";
    name += std::to_string((i * 2654435761u) % kTasks);
    return name;
  };
  TaskGraph g;
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(g.add_task(name_of(i), kKappa),
              TaskId(static_cast<TaskId::underlying_type>(i)));
  }
  for (std::size_t i = 0; i < kTasks; ++i) {
    const TaskId id(static_cast<TaskId::underlying_type>(i));
    ASSERT_EQ(g.task(id).name, name_of(i));
    ASSERT_EQ(g.find_task(name_of(i)), id);
  }
  EXPECT_FALSE(g.find_task("t4096").has_value());
}

TEST(TaskGraph, DuplicateNameErrorUnchanged) {
  TaskGraph g;
  (void)g.add_task("a1", kKappa);
  std::string what;
  try {
    (void)g.add_task("a1", kKappa);
  } catch (const ContractError& e) {
    what = e.what();
  }
  EXPECT_EQ(what.substr(0, what.find(" [")),
            "contract violation: task name 'a1' is already in use");
  EXPECT_EQ(g.task_count(), 1u);
  EXPECT_EQ(g.add_task("a", kKappa), TaskId(1));
  EXPECT_EQ(g.find_task("a1"), TaskId(0));
}

TEST(TaskGraph, CapacityAssignment) {
  TaskGraph g = three_task_chain();
  EXPECT_EQ(installed_capacity(g, BufferId(0)), 0);
  g.set_capacity(BufferId(0), 7);
  EXPECT_EQ(installed_capacity(g, BufferId(0)), 7);
  EXPECT_THROW(g.set_capacity(BufferId(0), 0), ContractError);
}

TEST(TaskGraph, ChainRecognition) {
  // The chain order is the buffer view of the Sec 3.3 construction, which
  // adds task i as actor i and buffer j as edges_of_buffer[j].
  const auto expect_order = [](const TaskGraph& g,
                               const std::vector<TaskId>& tasks) {
    EXPECT_TRUE(is_chain(g));
    const VrdfConstruction built = g.to_vrdf();
    const auto view = dataflow::validate_cyclic_model(built.graph).view;
    ASSERT_TRUE(view.has_value() && view->is_chain);
    std::vector<dataflow::ActorId> actors;
    for (const TaskId t : tasks) {
      actors.push_back(built.actor_of_task[t.index()]);
    }
    EXPECT_EQ(view->actors, actors);
    ASSERT_EQ(view->buffers.size(), built.edges_of_buffer.size());
    for (std::size_t j = 0; j < view->buffers.size(); ++j) {
      EXPECT_EQ(view->buffers[j].data, built.edges_of_buffer[j].data);
    }
  };
  expect_order(three_task_chain(), {TaskId(0), TaskId(1), TaskId(2)});

  // Built backwards: buffers added sink-first keep their own ids.
  TaskGraph backwards;
  const TaskId x = backwards.add_task("x", kKappa);
  const TaskId y = backwards.add_task("y", kKappa);
  const TaskId z = backwards.add_task("z", kKappa);
  (void)backwards.add_buffer(z, y, RateSet::singleton(1), RateSet::singleton(1));
  (void)backwards.add_buffer(y, x, RateSet::singleton(1), RateSet::singleton(1));
  expect_order(backwards, {z, y, x});

  TaskGraph single;
  (void)single.add_task("only", kKappa);
  EXPECT_TRUE(is_chain(single));
  EXPECT_FALSE(is_chain(TaskGraph{}));
}

TEST(TaskGraph, NonChainDetected) {
  TaskGraph g;
  const TaskId a = g.add_task("a", kKappa);
  const TaskId b = g.add_task("b", kKappa);
  const TaskId c = g.add_task("c", kKappa);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(is_chain(g));

  // Mixed direction a -> b <- c is an undirected path but no chain.
  TaskGraph mixed;
  const TaskId p = mixed.add_task("p", kKappa);
  const TaskId q = mixed.add_task("q", kKappa);
  const TaskId r = mixed.add_task("r", kKappa);
  (void)mixed.add_buffer(p, q, RateSet::singleton(1), RateSet::singleton(1));
  (void)mixed.add_buffer(r, q, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(is_chain(mixed));

  // Two isolated tasks, and a union of two paths, are not connected.
  TaskGraph isolated;
  (void)isolated.add_task("u", kKappa);
  (void)isolated.add_task("v", kKappa);
  EXPECT_FALSE(is_chain(isolated));
  TaskGraph two_paths = isolated;
  const TaskId w = two_paths.add_task("w", kKappa);
  const TaskId t = two_paths.add_task("t", kKappa);
  (void)two_paths.add_buffer(TaskId(0), TaskId(1), RateSet::singleton(1),
                             RateSet::singleton(1));
  (void)two_paths.add_buffer(w, t, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(is_chain(two_paths));

  // A buffer pair in both directions is a cycle.
  TaskGraph loop;
  const TaskId m = loop.add_task("m", kKappa);
  const TaskId o = loop.add_task("o", kKappa);
  (void)loop.add_buffer(m, o, RateSet::singleton(1), RateSet::singleton(1));
  (void)loop.add_buffer(o, m, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(is_chain(loop));
}

TEST(TaskGraph, TwoBuffersBetweenSameTasksIsNotAChain) {
  // Sec 3.1: at most one input and one output buffer per task.
  TaskGraph g;
  const TaskId a = g.add_task("a", kKappa);
  const TaskId b = g.add_task("b", kKappa);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(a, b, RateSet::singleton(2), RateSet::singleton(2));
  EXPECT_FALSE(is_chain(g));
}

TEST(Construction, ActorsMirrorTasks) {
  TaskGraph g = three_task_chain();
  const VrdfConstruction built = g.to_vrdf();
  ASSERT_EQ(built.actor_of_task.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto task_id = TaskId(static_cast<TaskId::underlying_type>(i));
    const dataflow::Actor& actor =
        built.graph.actor(built.actor_of_task[i]);
    EXPECT_EQ(actor.name, g.task(task_id).name);
    // ρ(v) = κ(w).
    EXPECT_EQ(actor.response_time, g.task(task_id).worst_case_response_time);
  }
}

TEST(Construction, BuffersBecomeAntiParallelEdgePairs) {
  TaskGraph g = three_task_chain();
  g.set_capacity(BufferId(0), 9);
  const VrdfConstruction built = g.to_vrdf();
  ASSERT_EQ(built.edges_of_buffer.size(), 2u);

  const dataflow::Edge& data = built.graph.edge(built.edges_of_buffer[0].data);
  const dataflow::Edge& space = built.graph.edge(built.edges_of_buffer[0].space);
  // π(e_ab) = ξ(b), γ(e_ab) = λ(b).
  EXPECT_EQ(data.production, RateSet::singleton(3));
  EXPECT_EQ(data.consumption, RateSet::of({2, 3}));
  // π(e_ba) = λ(b), γ(e_ba) = ξ(b); δ(e_ba) = ζ(b).
  EXPECT_EQ(space.production, RateSet::of({2, 3}));
  EXPECT_EQ(space.consumption, RateSet::singleton(3));
  EXPECT_EQ(space.initial_tokens, 9);
  // Data edges start empty (buffers are initially empty, Sec 3.1).
  EXPECT_EQ(data.initial_tokens, 0);
  // Unset capacity maps to zero initial tokens.
  EXPECT_EQ(built.graph.edge(built.edges_of_buffer[1].space).initial_tokens, 0);
}

TEST(Construction, ResultIsStronglyConsistentChain) {
  TaskGraph g = three_task_chain();
  const VrdfConstruction built = g.to_vrdf();
  const dataflow::ValidationReport report =
      dataflow::validate_cyclic_model(built.graph);
  EXPECT_TRUE(report.ok()) << report.summary();
  ASSERT_TRUE(report.view.has_value() && report.view->is_chain);
  EXPECT_EQ(report.view->actors.size(), 3u);
}

}  // namespace
}  // namespace vrdf::taskgraph
