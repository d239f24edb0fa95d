// Unit tests for rate sets, VRDF graph construction, chain recognition,
// and validation.
#include <gtest/gtest.h>

#include <algorithm>

#include "dataflow/rate_set.hpp"
#include "dataflow/validation.hpp"
#include "dataflow/vrdf_graph.hpp"
#include "util/error.hpp"

namespace vrdf::dataflow {
namespace {

const Duration kRho = milliseconds(Rational(1));

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
  EXPECT_EQ(s.values(), (std::vector<std::int64_t>{2, 3, 5}));
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

TEST(VrdfGraph, FindActorByName) {
  VrdfGraph g;
  const ActorId a = g.add_actor("vMP3", kRho);
  EXPECT_EQ(g.find_actor("vMP3"), a);
  EXPECT_FALSE(g.find_actor("nope").has_value());
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

TEST(VrdfGraph, ChainViewOrdersActorsAndBuffers) {
  VrdfGraph g;
  const ActorId c = g.add_actor("c", kRho);
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  // Insert out of order: a -> b -> c.
  const BufferEdges bc =
      g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(1));
  const BufferEdges ab =
      g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  const auto view = g.chain_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->actors, (std::vector<ActorId>{a, b, c}));
  ASSERT_EQ(view->buffers.size(), 2u);
  EXPECT_EQ(view->buffers[0].data, ab.data);
  EXPECT_EQ(view->buffers[1].data, bc.data);
}

TEST(VrdfGraph, ChainViewRejectsBareEdges) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(g.chain_view().has_value());
}

TEST(VrdfGraph, ChainViewRejectsBranching) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  const ActorId c = g.add_actor("c", kRho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(1));
  EXPECT_FALSE(g.chain_view().has_value());
}

TEST(VrdfGraph, BufferViewOnChainMatchesChainView) {
  VrdfGraph g;
  const ActorId c = g.add_actor("c", kRho);
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  const BufferEdges bc =
      g.add_buffer(b, c, RateSet::singleton(1), RateSet::singleton(1));
  const BufferEdges ab =
      g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  const auto view = g.buffer_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->is_chain);
  EXPECT_EQ(view->actors, (std::vector<ActorId>{a, b, c}));
  ASSERT_EQ(view->buffers.size(), 2u);
  EXPECT_EQ(view->buffers[0].data, ab.data);
  EXPECT_EQ(view->buffers[1].data, bc.data);
  EXPECT_EQ(view->data_sources, (std::vector<ActorId>{a}));
  EXPECT_EQ(view->data_sinks, (std::vector<ActorId>{c}));
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
  EXPECT_TRUE(validate_dag_model(g).ok());
  // ...which the chain validator still rejects, with its Sec 3.1 message.
  const ValidationReport chain_report = validate_chain_model(g);
  ASSERT_FALSE(chain_report.ok());
  EXPECT_NE(chain_report.summary().find("do not form a chain"),
            std::string::npos);
}

TEST(Validation, DagModelRejectsDataCycle) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
  (void)g.add_buffer(b, a, RateSet::singleton(1), RateSet::singleton(1));
  const ValidationReport report = validate_dag_model(g);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("directed cycle"), std::string::npos);
}

TEST(Validation, DagModelReportsDisconnectionAndBareEdges) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_actor("lonely", kRho);
  (void)g.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1));
  const ValidationReport report = validate_dag_model(g);
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
  const ValidationReport report = validate_chain_model(g);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Validation, ReportsEmptyGraph) {
  VrdfGraph g;
  EXPECT_FALSE(validate_chain_model(g).ok());
}

TEST(Validation, ReportsUnpairedEdge) {
  VrdfGraph g;
  const ActorId a = g.add_actor("a", kRho);
  const ActorId b = g.add_actor("b", kRho);
  (void)g.add_edge(a, b, RateSet::singleton(1), RateSet::singleton(1));
  const ValidationReport report = validate_chain_model(g);
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
  EXPECT_FALSE(validate_chain_model(g).ok());
}

}  // namespace
}  // namespace vrdf::dataflow
