// Unit tests for rate sets, VRDF graph construction, chain recognition,
// and validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "dataflow/rate_set.hpp"
#include "dataflow/validation.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace vrdf::dataflow {
namespace {

const Duration kRho = milliseconds(Rational(1));

/// A data-edge shape: actors a0, a1, ... and one unit-rate buffer per
/// (producer, consumer, initial data tokens) triple, in order, then the
/// bare (unpaired) edges.
struct Shape {
  std::size_t actors = 0;
  std::vector<std::tuple<std::size_t, std::size_t, std::int64_t>> buffers;
  std::vector<std::pair<std::size_t, std::size_t>> bare = {};
};

ActorId actor(std::size_t index) {
  return ActorId(static_cast<ActorId::underlying_type>(index));
}

VrdfGraph build(const Shape& shape) {
  VrdfGraph g;
  for (std::size_t i = 0; i < shape.actors; ++i) {
    std::string name = "a";
    name += std::to_string(i);
    (void)g.add_actor(name, kRho);
  }
  for (const auto& [from, to, tokens] : shape.buffers) {
    (void)g.add_buffer(actor(from), actor(to), RateSet::singleton(1),
                       RateSet::singleton(1), /*capacity=*/0, tokens);
  }
  for (const auto& [from, to] : shape.bare) {
    (void)g.add_edge(actor(from), actor(to), RateSet::singleton(1),
                     RateSet::singleton(1));
  }
  return g;
}

TEST(RateSet, SingletonBasics) {
  const RateSet s = RateSet::singleton(3);
  EXPECT_EQ(s.min(), 3);
  EXPECT_EQ(s.max(), 3);
  EXPECT_TRUE(s.is_singleton());
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.to_string(), "{3}");
}

TEST(RateSet, ExplicitSetDeduplicatesAndSorts) {
  const RateSet s = RateSet::of({3, 2, 3, 5});
  EXPECT_EQ(s.min(), 2);
  EXPECT_EQ(s.max(), 5);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.nth(0), 2);
  EXPECT_EQ(s.nth(1), 3);
  EXPECT_EQ(s.nth(2), 5);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.to_string(), "{2,3,5}");
}

TEST(RateSet, IntervalBasics) {
  const RateSet s = RateSet::interval(0, 960);
  EXPECT_EQ(s.min(), 0);
  EXPECT_EQ(s.max(), 960);
  EXPECT_TRUE(s.contains_zero());
  EXPECT_EQ(s.size(), 961u);
  EXPECT_TRUE(s.contains(500));
  EXPECT_FALSE(s.contains(961));
  EXPECT_EQ(s.nth(0), 0);
  EXPECT_EQ(s.nth(960), 960);
  EXPECT_EQ(s.to_string(), "[0,960]");
}

TEST(RateSet, DegenerateIntervalBecomesSingleton) {
  const RateSet s = RateSet::interval(4, 4);
  EXPECT_TRUE(s.is_singleton());
  EXPECT_EQ(s.to_string(), "{4}");
}

TEST(RateSet, PfNRulesEnforced) {
  EXPECT_THROW(RateSet::singleton(0), ContractError);   // {0} excluded
  EXPECT_THROW(RateSet::singleton(-1), ContractError);
  EXPECT_THROW(RateSet::of({0}), ContractError);        // {0} excluded
  EXPECT_THROW(RateSet::of({-1, 2}), ContractError);
  EXPECT_THROW(RateSet::interval(0, 0), ContractError);
  EXPECT_THROW(RateSet::interval(5, 2), ContractError);
  EXPECT_NO_THROW(RateSet::of({0, 2}));  // zero alongside positive is fine
}

TEST(RateSet, EqualityAcrossRepresentations) {
  EXPECT_EQ(RateSet::of({1, 2, 3}), RateSet::interval(1, 3));
  EXPECT_EQ(RateSet::interval(1, 3), RateSet::of({1, 2, 3}));
  EXPECT_NE(RateSet::of({1, 3}), RateSet::interval(1, 3));
  EXPECT_EQ(RateSet::of({2, 3}), RateSet::of({3, 2}));
}

TEST(RateSet, SingletonSpellingsAgree) {
  // singleton(v), of({v}), of({v,v}) and interval(v,v) are one set: equal,
  // rendered "{v}", and alike on every member query.
  for (const std::int64_t v : {1, 7, 960}) {
    const std::vector<RateSet> spellings = {
        RateSet::singleton(v), RateSet::of({v}), RateSet::of({v, v}),
        RateSet::interval(v, v)};
    for (const RateSet& s : spellings) {
      EXPECT_EQ(s, spellings[0]);
      std::string braced = "{";
      braced += std::to_string(v);
      braced += '}';
      EXPECT_EQ(s.to_string(), braced);
      EXPECT_TRUE(s.is_singleton());
      EXPECT_EQ(s.size(), 1u);
      EXPECT_EQ(s.nth(0), v);
      EXPECT_THROW((void)s.nth(1), ContractError);
      EXPECT_TRUE(s.contains(v));
      EXPECT_FALSE(s.contains(v - 1));
      EXPECT_FALSE(s.contains(v + 1));
    }
  }
}

TEST(RateSet, MixedRepresentationEquality) {
  // An explicit set equals an interval exactly when it enumerates it, and
  // each keeps its own spelling.
  EXPECT_EQ(RateSet::of({1, 2}), RateSet::interval(1, 2));
  EXPECT_EQ(RateSet::of({1, 2}).to_string(), "{1,2}");
  EXPECT_EQ(RateSet::interval(1, 2).to_string(), "[1,2]");
  EXPECT_NE(RateSet::of({0, 2}), RateSet::interval(0, 2));
  EXPECT_NE(RateSet::singleton(2), RateSet::interval(2, 3));
  EXPECT_NE(RateSet::of({2, 3}), RateSet::singleton(2));
  EXPECT_NE(RateSet::interval(1, 3), RateSet::interval(1, 4));
  const RateSet gappy = RateSet::of({0, 2, 5});
  EXPECT_EQ(gappy.size(), 3u);
  EXPECT_EQ(gappy.nth(1), 2);
  EXPECT_FALSE(gappy.contains(1));
  EXPECT_TRUE(gappy.contains(5));
}

TEST(VrdfGraph, ActorsAndBuffers) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  const BufferEdges buf =
      g.add_buffer(a, b, RateSet::singleton(3), RateSet::of({2, 3}), 4);
  EXPECT_EQ(g.actor_count(), 2u);
  EXPECT_EQ(g.edge_count(), 2u);
  const Edge& data = g.edge(buf.data);
  const Edge& space = g.edge(buf.space);
  EXPECT_EQ(data.source, a);
  EXPECT_EQ(data.target, b);
  EXPECT_EQ(space.source, b);
  EXPECT_EQ(space.target, a);
  EXPECT_EQ(data.initial_tokens, 0);
  EXPECT_EQ(space.initial_tokens, 4);
  EXPECT_EQ(data.paired, buf.space);
  EXPECT_EQ(space.paired, buf.data);
  // Sec 3.3: π(e_ba) = λ(b), γ(e_ba) = ξ(b).
  EXPECT_EQ(space.production, data.consumption);
  EXPECT_EQ(space.consumption, data.production);
}

TEST(VrdfGraph, RejectsDuplicateNamesAndBadInputs) {
  VrdfGraph g;
  (void)g.add_actor("a", kRho);
  EXPECT_THROW(g.add_actor("a", kRho), ContractError);
  EXPECT_THROW(g.add_actor("", kRho), ContractError);
  EXPECT_THROW(g.add_actor("b", Duration()), ContractError);
}

TEST(VrdfGraph, RejectsDanglingEdgesAndOutOfRangeIds) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const RateSet one = RateSet::singleton(1);
  for (const ActorId bad : {ActorId(7), ActorId::invalid()}) {
    EXPECT_THROW(g.add_edge(a, bad, one, one), ContractError);
    EXPECT_THROW(g.add_edge(bad, a, one, one), ContractError);
    EXPECT_THROW(g.add_buffer(a, bad, one, one), ContractError);
    EXPECT_THROW(g.add_buffer(bad, a, one, one), ContractError);
    EXPECT_THROW((void)g.actor(bad), ContractError);
  }
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.buffers().empty());
  for (const EdgeId bad : {EdgeId(0), EdgeId::invalid()}) {
    EXPECT_THROW((void)g.edge(bad), ContractError);
    EXPECT_THROW(g.set_initial_tokens(bad, 1), ContractError);
  }
}

TEST(VrdfGraph, ParallelBuffersAndSelfLoopsRepresentable) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  const RateSet one = RateSet::singleton(1);
  (void)g.add_buffer(a, b, one, one);
  (void)g.add_buffer(a, b, one, one);
  const EdgeId loop = g.add_edge(a, a, one, one, 1);
  const std::vector<std::pair<ActorId, ActorId>> ends = {
      {a, b}, {b, a}, {a, b}, {b, a}, {a, a}};
  ASSERT_EQ(g.edge_count(), ends.size());
  EXPECT_EQ(g.buffers().size(), 2u);
  EXPECT_FALSE(g.edge(loop).paired.is_valid());
  // edges() yields every id once, in insertion order.
  std::size_t i = 0;
  for (const EdgeId e : g.edges()) {
    ASSERT_LT(i, ends.size());
    EXPECT_EQ(e.index(), i);
    EXPECT_EQ(g.edge(e).source, ends[i].first);
    EXPECT_EQ(g.edge(e).target, ends[i].second);
    ++i;
  }
  EXPECT_EQ(i, ends.size());
}

TEST(VrdfGraph, FindActorByName) {
  VrdfGraph g;
  const ActorId a = g.add_actor("vMP3", kRho);
  EXPECT_EQ(g.find_actor("vMP3"), a);
  EXPECT_FALSE(g.find_actor("nope").has_value());
}

/// The ContractError text `call` raises, cut at VRDF_REQUIRE's
/// " [expr at file:line]" suffix, or "" if it returns.
template <typename Call>
std::string contract_message(Call call) {
  try {
    call();
  } catch (const ContractError& e) {
    const std::string what = e.what();
    return what.substr(0, what.find(" ["));
  }
  return "";
}

TEST(VrdfGraph, NameIndexResolvesPrefixesAndSlices) {
  VrdfGraph g;
  const ActorId a10 = g.add_actor("a10", kRho);
  const ActorId a = g.add_actor("a", kRho);
  const ActorId a1 = g.add_actor("a1", kRho);
  EXPECT_EQ(g.find_actor("a"), a);
  EXPECT_EQ(g.find_actor("a1"), a1);
  EXPECT_EQ(g.find_actor("a10"), a10);
  EXPECT_FALSE(g.find_actor("a100").has_value());
  EXPECT_FALSE(g.find_actor("").has_value());
  EXPECT_FALSE(g.find_actor("A").has_value());
  // A slice of a longer buffer, not NUL-terminated.
  const std::string text = "a10xyz";
  EXPECT_EQ(g.find_actor(std::string_view(text).substr(0, 2)), a1);
  EXPECT_EQ(g.find_actor(std::string_view(text).substr(0, 1)), a);
  EXPECT_EQ(g.find_actor(std::string_view(text).substr(0, 3)), a10);
  // A copy answers with the same ids, and its index is its own.
  VrdfGraph copy = g;
  for (const char* name : {"a", "a1", "a10"}) {
    EXPECT_EQ(copy.find_actor(name), g.find_actor(name)) << name;
  }
  const ActorId b = copy.add_actor("b", kRho);
  EXPECT_EQ(copy.find_actor("b"), b);
  EXPECT_FALSE(g.find_actor("b").has_value());
}

TEST(VrdfGraph, NameIndexScalesAndKeepsInsertionOrder) {
  // 4096 names inserted out of name order: each is found at its insertion
  // id, and actors() still runs in insertion order.
  constexpr std::size_t kActors = 4096;
  const auto name_of = [](std::size_t i) {
    std::string name = "n";
    name += std::to_string((i * 2654435761u) % kActors);
    return name;
  };
  VrdfGraph g;
  for (std::size_t i = 0; i < kActors; ++i) {
    ASSERT_EQ(g.add_actor(name_of(i), kRho), actor(i));
  }
  std::size_t expected = 0;
  for (const ActorId id : g.actors()) {
    ASSERT_EQ(id, actor(expected));
    ASSERT_EQ(g.actor(id).name, name_of(expected));
    ASSERT_EQ(g.find_actor(name_of(expected)), id);
    ++expected;
  }
  EXPECT_EQ(expected, kActors);
  EXPECT_FALSE(g.find_actor("n4096").has_value());
}

TEST(VrdfGraph, DuplicateNameErrorUnchanged) {
  VrdfGraph g;
  (void)g.add_actor("a1", kRho);
  (void)g.add_actor("a", kRho);
  const std::uint64_t revision = g.revision();
  EXPECT_EQ(contract_message([&] { (void)g.add_actor("a1", kRho); }),
            "contract violation: actor name 'a1' is already in use");
  EXPECT_EQ(contract_message([&] { (void)g.add_actor("a", kRho); }),
            "contract violation: actor name 'a' is already in use");
  // A refused name leaves the graph and its index as they were.
  EXPECT_EQ(g.actor_count(), 2u);
  EXPECT_EQ(g.revision(), revision);
  EXPECT_EQ(g.find_actor("a1"), actor(0));
  EXPECT_EQ(g.add_actor("a10", kRho), actor(2));
}

TEST(VrdfGraph, SetInitialTokens) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  const BufferEdges buf =
      g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  g.set_initial_tokens(buf.space, 42);
  EXPECT_EQ(g.edge(buf.space).initial_tokens, 42);
  EXPECT_THROW(g.set_initial_tokens(buf.space, -1), ContractError);
}

TEST(VrdfGraph, ChainShapeOrdersActorsAndBuffers) {
  VrdfGraph g;
  const ActorId c = g.add_actor("c", kRho);
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  // Insert out of order: a -> b -> c.
  const BufferEdges bc =
      g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(1));
  const BufferEdges ab =
      g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  const auto view = validate_cyclic_model(g).view;
  ASSERT_TRUE(view.has_value() && view->is_chain);
  EXPECT_EQ(view->actors, (std::vector<ActorId>{a, b, c}));
  ASSERT_EQ(view->buffers.size(), 2u);
  EXPECT_EQ(view->buffers[0].data, ab.data);
  EXPECT_EQ(view->buffers[1].data, bc.data);
  EXPECT_EQ(view->data_sources, (std::vector<ActorId>{a}));
  EXPECT_EQ(view->data_sinks, (std::vector<ActorId>{c}));

  // Buffers added sink-first, and a single actor (a chain of length one).
  const auto backwards =
      validate_cyclic_model(build({3, {{2, 1, 0}, {1, 0, 0}}})).view;
  ASSERT_TRUE(backwards.has_value() && backwards->is_chain);
  EXPECT_EQ(backwards->actors, (std::vector<ActorId>{actor(2), actor(1),
                                                     actor(0)}));
  ASSERT_EQ(backwards->buffers.size(), 2u);
  EXPECT_EQ(backwards->buffers[0].data, EdgeId(0));
  EXPECT_EQ(backwards->buffers[1].data, EdgeId(2));
  const auto single = validate_cyclic_model(build({1, {}})).view;
  ASSERT_TRUE(single.has_value() && single->is_chain);
  EXPECT_EQ(single->actors, (std::vector<ActorId>{actor(0)}));
  EXPECT_TRUE(single->buffers.empty());
}

TEST(VrdfGraph, ChainShapeRejectsBareEdges) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(validate_cyclic_model(g).view.has_value());
}

TEST(VrdfGraph, ChainShapeRejectsBranching) {
  const std::vector<std::pair<const char*, Shape>> shapes = {
      {"fork", {3, {{0, 1, 0}, {0, 2, 0}}}},
      {"mixed direction a -> b <- c", {3, {{0, 1, 0}, {2, 1, 0}}}},
      {"parallel forward buffers", {2, {{0, 1, 0}, {0, 1, 0}}}},
      {"parallel buffers inside a longer chain",
       {3, {{0, 1, 0}, {1, 2, 0}, {1, 2, 0}}}},
      {"two-actor feedback loop", {2, {{0, 1, 0}, {1, 0, 1}}}},
      {"tokened self-loop", {2, {{0, 1, 0}, {0, 0, 1}}}},
      {"single actor with a self-loop", {1, {{0, 0, 1}}}},
      {"token-free cycle", {3, {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}}}},
      {"two isolated actors", {2, {}}},
      {"union of two paths", {4, {{0, 1, 0}, {2, 3, 0}}}},
      {"path plus an isolated actor", {4, {{0, 1, 0}, {1, 2, 0}}}},
      {"empty graph", {0, {}}},
  };
  for (const auto& [label, shape] : shapes) {
    const auto view = validate_cyclic_model(build(shape)).view;
    EXPECT_FALSE(view.has_value() && view->is_chain) << label;
  }
  // The two-actor loop is a cyclic buffer network, not a chain: both of
  // its buffers stay in the view.
  const auto loop = build(shapes[4].second).buffer_view();
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->buffers.size(), 2u);
  EXPECT_TRUE(loop->is_cyclic);
}

TEST(VrdfGraph, BufferViewOnDiamond) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  const ActorId c = g.add_actor("c", kRho);
  const ActorId d = g.add_actor("d", kRho);
  const BufferEdges ab =
      g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  const BufferEdges ac =
      g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(1));
  const BufferEdges bd =
      g.add_buffer(b, d, RateSet::singleton(1), RateSet::singleton(1));
  const BufferEdges cd =
      g.add_buffer(c, d, RateSet::singleton(1), RateSet::singleton(1));
  const auto view = g.buffer_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->is_chain);
  EXPECT_EQ(view->actors.front(), a);
  EXPECT_EQ(view->actors.back(), d);
  // a's two out-buffers come first (insertion order among equals), then
  // the branch-to-join buffers.
  ASSERT_EQ(view->buffers.size(), 4u);
  EXPECT_EQ(view->buffers[0].data, ab.data);
  EXPECT_EQ(view->buffers[1].data, ac.data);
  EXPECT_EQ(view->out_buffers[a.index()],
            (std::vector<std::size_t>{0, 1}));
  ASSERT_EQ(view->in_buffers[d.index()].size(), 2u);
  std::vector<EdgeId> join_inputs{
      view->buffers[view->in_buffers[d.index()][0]].data,
      view->buffers[view->in_buffers[d.index()][1]].data};
  std::sort(join_inputs.begin(), join_inputs.end(),
            [](EdgeId x, EdgeId y) { return x.value() < y.value(); });
  EXPECT_EQ(join_inputs, (std::vector<EdgeId>{bd.data, cd.data}));
  EXPECT_EQ(view->data_sources, (std::vector<ActorId>{a}));
  EXPECT_EQ(view->data_sinks, (std::vector<ActorId>{d}));
  // All four diamond edges lie on the reconvergent cycle.
  EXPECT_EQ(view->on_reconvergent_path,
            (std::vector<bool>{true, true, true, true}));
}

TEST(VrdfGraph, BufferViewMarksChainSegmentsAsNonReconvergent) {
  // src → fork → {x, y} → join → snk: the two outer edges are bridges.
  VrdfGraph g;
  const ActorId src = g.add_actor("src", kRho);
  const ActorId fork = g.add_actor("fork", kRho);
  const ActorId x = g.add_actor("x", kRho);
  const ActorId y = g.add_actor("y", kRho);
  const ActorId join = g.add_actor("join", kRho);
  const ActorId snk = g.add_actor("snk", kRho);
  (void)g.add_buffer(src, fork, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(fork, x, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(fork, y, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(x, join, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(y, join, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(join, snk, RateSet::singleton(1), RateSet::singleton(1));
  const auto view = g.buffer_view();
  ASSERT_TRUE(view.has_value());
  for (std::size_t pos = 0; pos < view->buffers.size(); ++pos) {
    const Edge& data = g.edge(view->buffers[pos].data);
    const bool is_segment_edge = data.source == src || data.target == snk;
    EXPECT_EQ(view->on_reconvergent_path[pos], !is_segment_edge)
        << "buffer " << pos;
  }
}

TEST(VrdfGraph, BufferViewRejectsBareEdgesAndDataCycles) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(g.buffer_view().has_value());

  VrdfGraph h;
  const ActorId c = h.add_actor("c", kRho);
  const ActorId d = h.add_actor("d", kRho);
  (void)h.add_buffer(c, d, RateSet::singleton(1), RateSet::singleton(1));
  (void)h.add_buffer(d, c, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(h.buffer_view().has_value());
}

TEST(VrdfGraph, BufferViewAllowsParallelBuffers) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(a, b, RateSet::singleton(2), RateSet::singleton(2));
  const auto view = g.buffer_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->is_chain);  // double fan-out is not the Sec 3.1 shape
  EXPECT_EQ(view->buffers.size(), 2u);
}

/// Checks every BufferView field, connectivity and the chain verdicts of
/// the structural pass against brute-force definitions: BFS reachability
/// and connectivity over the data edges, recomputed per edge.
void expect_pass_matches_brute_force(const VrdfGraph& g,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  const std::size_t n = g.actor_count();
  const std::vector<BufferEdges> buffers = g.buffers();
  const std::size_t nb = buffers.size();
  const auto src = [&](std::size_t i) {
    return g.edge(buffers[i].data).source.index();
  };
  const auto dst = [&](std::size_t i) {
    return g.edge(buffers[i].data).target.index();
  };
  const auto tokens = [&](std::size_t i) {
    return g.edge(buffers[i].data).initial_tokens;
  };
  // Directed reachability over the data edges `use` keeps.
  const auto reaches = [&](std::size_t from, std::size_t to,
                           const auto& use) {
    std::vector<char> seen(n, 0);
    std::deque<std::size_t> queue{from};
    seen[from] = 1;
    while (!queue.empty()) {
      const std::size_t v = queue.front();
      queue.pop_front();
      if (v == to) {
        return true;
      }
      for (std::size_t i = 0; i < nb; ++i) {
        if (use(i) && src(i) == v && seen[dst(i)] == 0) {
          seen[dst(i)] = 1;
          queue.push_back(dst(i));
        }
      }
    }
    return false;
  };
  // Undirected reachability over the data and bare edges (a space edge
  // only doubles its data edge) except `skip`.
  std::vector<EdgeId> undirected;
  for (const EdgeId e : g.edges()) {
    const EdgeId paired = g.edge(e).paired;
    if (!paired.is_valid() || paired.value() > e.value()) {
      undirected.push_back(e);
    }
  }
  const auto linked = [&](std::size_t from, std::size_t to, EdgeId skip) {
    std::vector<char> seen(n, 0);
    std::deque<std::size_t> queue{from};
    seen[from] = 1;
    while (!queue.empty()) {
      const std::size_t v = queue.front();
      queue.pop_front();
      for (const EdgeId e : undirected) {
        const Edge& edge = g.edge(e);
        if (e == skip || (edge.source.index() != v && edge.target.index() != v)) {
          continue;
        }
        for (const std::size_t m : {edge.source.index(), edge.target.index()}) {
          if (seen[m] == 0) {
            seen[m] = 1;
            queue.push_back(m);
          }
        }
      }
    }
    return seen[to] != 0;
  };
  bool connected = true;
  for (std::size_t v = 1; v < n; ++v) {
    connected = connected && linked(0, v, EdgeId::invalid());
  }
  bool all_paired = true;
  for (const EdgeId e : g.edges()) {
    all_paired = all_paired && g.edge(e).paired.is_valid();
  }
  const auto any = [](std::size_t) { return true; };
  const auto token_free = [&](std::size_t i) { return tokens(i) == 0; };
  std::vector<char> on_cycle(nb, 0);
  bool token_free_cycle = false;
  bool cyclic = false;
  for (std::size_t i = 0; i < nb; ++i) {
    on_cycle[i] = static_cast<char>(reaches(dst(i), src(i), any));
    cyclic = cyclic || on_cycle[i] != 0;
    token_free_cycle = token_free_cycle ||
                       (tokens(i) == 0 && reaches(dst(i), src(i), token_free));
  }

  const ValidationReport report = validate_cyclic_model(g);
  const auto has_error = [&](const std::string& text) {
    return std::any_of(report.errors.begin(), report.errors.end(),
                       [&](const std::string& e) { return e == text; });
  };
  EXPECT_EQ(has_error("graph is not weakly connected"), !connected);
  EXPECT_EQ(has_error("graph has no actors"), n == 0);
  const bool network_ok = n > 0 && connected && all_paired;
  ASSERT_EQ(report.view.has_value(), all_paired && !token_free_cycle);
  EXPECT_EQ(g.buffer_view().has_value(), report.view.has_value());
  if (!report.view.has_value()) {
    return;
  }
  const VrdfGraph::BufferView& view = *report.view;

  // Greedy feedback classification in buffer order: a tokened cycle edge
  // is a back-edge when the skeleton built so far already closes it.
  std::vector<char> in_skeleton(nb, 0);
  std::vector<char> feedback(nb, 0);
  for (std::size_t i = 0; i < nb; ++i) {
    in_skeleton[i] = static_cast<char>(on_cycle[i] == 0 || tokens(i) == 0);
  }
  const auto skeleton = [&](std::size_t i) { return in_skeleton[i] != 0; };
  for (std::size_t i = 0; i < nb; ++i) {
    if (in_skeleton[i] == 0) {
      feedback[i] = static_cast<char>(reaches(dst(i), src(i), skeleton));
      in_skeleton[i] = static_cast<char>(feedback[i] == 0);
    }
  }

  // `actors` is a permutation and a topological order of the skeleton.
  ASSERT_EQ(view.actors.size(), n);
  std::vector<std::size_t> position(n, n);
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_EQ(position[view.actors[p].index()], n) << "repeated actor";
    position[view.actors[p].index()] = p;
  }
  // `buffers` is ordered by (producer position, buffer index).
  std::vector<std::size_t> expected(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    expected[i] = i;
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) {
                     return position[src(a)] < position[src(b)];
                   });
  ASSERT_EQ(view.buffers.size(), nb);
  std::vector<std::vector<std::size_t>> in_buffers(n);
  std::vector<std::vector<std::size_t>> out_buffers(n);
  std::vector<std::size_t> feedback_buffers;
  for (std::size_t p = 0; p < nb; ++p) {
    const std::size_t i = expected[p];
    EXPECT_EQ(view.buffers[p].data, buffers[i].data) << "position " << p;
    EXPECT_EQ(view.buffers[p].space, buffers[i].space) << "position " << p;
    EXPECT_EQ(view.on_cycle[p], on_cycle[i] != 0) << "buffer " << i;
    EXPECT_EQ(view.is_feedback[p], feedback[i] != 0) << "buffer " << i;
    EXPECT_EQ(view.on_reconvergent_path[p],
              linked(src(i), dst(i), buffers[i].data))
        << "buffer " << i;
    if (feedback[i] != 0) {
      feedback_buffers.push_back(p);
    } else {
      EXPECT_LT(position[src(i)], position[dst(i)]) << "buffer " << i;
      out_buffers[src(i)].push_back(p);
      in_buffers[dst(i)].push_back(p);
    }
  }
  EXPECT_EQ(view.in_buffers, in_buffers);
  EXPECT_EQ(view.out_buffers, out_buffers);
  EXPECT_EQ(view.feedback_buffers, feedback_buffers);
  EXPECT_EQ(view.is_cyclic, cyclic);
  // The fork-join (DAG) class: an acyclic network validates.
  EXPECT_EQ(report.ok() && !view.is_cyclic, network_ok && !cyclic);
  std::vector<ActorId> sources;
  std::vector<ActorId> sinks;
  bool degrees_chain_like = true;
  for (const ActorId a : view.actors) {
    if (in_buffers[a.index()].empty()) {
      sources.push_back(a);
    }
    if (out_buffers[a.index()].empty()) {
      sinks.push_back(a);
    }
    degrees_chain_like = degrees_chain_like &&
                         in_buffers[a.index()].size() <= 1 &&
                         out_buffers[a.index()].size() <= 1;
  }
  EXPECT_EQ(view.data_sources, sources);
  EXPECT_EQ(view.data_sinks, sinks);
  const bool is_chain = n > 0 && connected && !cyclic && degrees_chain_like;
  EXPECT_EQ(view.is_chain, is_chain);
  // The Sec 3.1 class: a chain-shaped network validates.
  EXPECT_EQ(report.ok() && view.is_chain, network_ok && is_chain);
}

TEST(VrdfGraph, StructuralPassMatchesBruteForce) {
  const std::vector<std::pair<const char*, Shape>> shapes = {
      {"empty graph", {0, {}}},
      {"single actor", {1, {}}},
      {"two isolated actors", {2, {}}},
      {"chain", {4, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}}}},
      {"chain built backwards", {3, {{2, 1, 0}, {1, 0, 0}}}},
      {"mixed direction a -> b <- c", {3, {{0, 1, 0}, {2, 1, 0}}}},
      {"parallel buffers", {2, {{0, 1, 0}, {0, 1, 0}}}},
      {"parallel buffers inside a longer chain",
       {3, {{0, 1, 0}, {1, 2, 0}, {1, 2, 0}}}},
      {"diamond with a tail",
       {5, {{0, 1, 0}, {0, 2, 0}, {1, 3, 0}, {2, 3, 0}, {3, 4, 0}}}},
      {"tokened self-loop", {2, {{0, 1, 0}, {1, 1, 2}}}},
      {"single actor with a tokened self-loop", {1, {{0, 0, 1}}}},
      {"anti-parallel data buffers", {2, {{0, 1, 0}, {1, 0, 1}}}},
      {"anti-parallel data buffers, tokened forward",
       {2, {{0, 1, 1}, {1, 0, 0}}}},
      {"multi-tokened cycle", {3, {{0, 1, 1}, {1, 2, 2}, {2, 0, 1}}}},
      {"every cycle edge tokened, plus a chord",
       {4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}, {0, 2, 0}}}},
      {"two tokened cycles joined by a bridge, self-loop on the first",
       {4, {{0, 1, 0}, {1, 0, 1}, {1, 2, 0}, {2, 3, 0}, {3, 2, 1}, {0, 0, 1}}}},
      {"parallel and anti-parallel buffers",
       {3, {{0, 1, 0}, {0, 1, 0}, {1, 2, 0}, {2, 1, 3}}}},
      {"disconnected components", {4, {{0, 1, 0}, {2, 3, 0}, {3, 2, 1}}}},
      {"union of two paths", {4, {{0, 1, 0}, {2, 3, 0}}}},
      {"path plus an isolated actor", {4, {{0, 1, 0}, {1, 2, 0}}}},
      {"unpaired edge", {2, {}, {{0, 1}}}},
      {"unpaired edge joining two components", {4, {{0, 1, 0}, {2, 3, 0}}, {{1, 2}}}},
      {"token-free cycle", {3, {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}}}},
      {"token-free self-loop", {2, {{0, 1, 0}, {1, 1, 0}}}},
      {"token-free cycle beside a tokened one",
       {4, {{0, 1, 0}, {1, 0, 1}, {2, 3, 0}, {3, 2, 0}, {1, 2, 0}}}},
  };
  for (const auto& [label, shape] : shapes) {
    expect_pass_matches_brute_force(build(shape), label);
  }
  for (const models::ModelClass model_class :
       {models::ModelClass::Chain, models::ModelClass::ForkJoin,
        models::ModelClass::Cyclic, models::ModelClass::MultiConstraint,
        models::ModelClass::InteriorPinned}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const models::SyntheticModel model =
          models::make_random_model({.model_class = model_class, .seed = seed});
      expect_pass_matches_brute_force(
          model.graph, std::string(models::class_name(model_class)) +
                           " seed " + std::to_string(seed));
    }
  }
}

TEST(Validation, DagModelAcceptsForkJoin) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  const ActorId c = g.add_actor("c", kRho);
  const ActorId d = g.add_actor("d", kRho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, d, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(c, d, RateSet::singleton(1), RateSet::singleton(1));
  const ValidationReport report = validate_cyclic_model(g);
  EXPECT_TRUE(report.ok()) << report.summary();
  ASSERT_TRUE(report.view.has_value());
  EXPECT_FALSE(report.view->is_cyclic);
  // ...and is not the Sec 3.1 chain shape.
  EXPECT_FALSE(report.view->is_chain);
}

TEST(Validation, DagModelRejectsDataCycle) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  const BufferEdges back =
      g.add_buffer(b, a, RateSet::singleton(1), RateSet::singleton(1));
  // Token-free, the cycle deadlocks and has no view.
  EXPECT_FALSE(validate_cyclic_model(g).ok());
  EXPECT_FALSE(validate_cyclic_model(g).view.has_value());
  // Tokened, it validates as a cyclic network: still no DAG.
  g.set_initial_tokens(back.data, 1);
  const ValidationReport tokened = validate_cyclic_model(g);
  EXPECT_TRUE(tokened.ok()) << tokened.summary();
  ASSERT_TRUE(tokened.view.has_value());
  EXPECT_TRUE(tokened.view->is_cyclic);
}

TEST(Validation, DagModelReportsDisconnectionAndBareEdges) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_actor("lonely", kRho);
  (void)g.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1));
  const ValidationReport report = validate_cyclic_model(g);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("not weakly connected"), std::string::npos);
  EXPECT_NE(report.summary().find("not part of a buffer pair"),
            std::string::npos);
}

TEST(Validation, AcceptsConsistentChain) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_buffer(a, b, RateSet::singleton(3), RateSet::of({2, 3}));
  const ValidationReport report = validate_cyclic_model(g);
  EXPECT_TRUE(report.ok()) << report.summary();
  ASSERT_TRUE(report.view.has_value());
  EXPECT_TRUE(report.view->is_chain);
}

TEST(Validation, ReportsEmptyGraph) {
  VrdfGraph g;
  EXPECT_FALSE(validate_cyclic_model(g).ok());
}

TEST(Validation, ReportsUnpairedEdge) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1));
  const ValidationReport report = validate_cyclic_model(g);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("not part of a buffer pair"),
            std::string::npos);
}

TEST(Validation, ReportsDisconnectedGraph) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_actor("lonely", kRho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(validate_cyclic_model(g).ok());
}

}  // namespace
}  // namespace vrdf::dataflow
