// Unit tests for the digraph container and its ids.  The structural
// algorithms over the data edges are tested through VrdfGraph
// (test_dataflow: VrdfGraph.StructuralPassMatchesBruteForce).
#include <gtest/gtest.h>

#include "graph/digraph.hpp"
#include "util/error.hpp"

namespace vrdf::graph {
namespace {

TEST(Digraph, AddAndQuery) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge_source(e), a);
  EXPECT_EQ(g.edge_target(e), b);
  EXPECT_EQ(g.out_degree(a), 1u);
  EXPECT_EQ(g.in_degree(b), 1u);
  EXPECT_EQ(g.out_degree(b), 0u);
}

TEST(Digraph, RejectsDanglingEdges) {
  Digraph g;
  const NodeId a = g.add_node();
  EXPECT_THROW(g.add_edge(a, NodeId(7)), ContractError);
  EXPECT_THROW(g.add_edge(NodeId::invalid(), a), ContractError);
}

TEST(Digraph, ParallelEdgesAndSelfLoopsRepresentable) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, b);
  (void)g.add_edge(a, a);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.out_degree(a), 3u);
}

TEST(Ids, InvalidAndValidBehaviour) {
  EXPECT_FALSE(NodeId::invalid().is_valid());
  EXPECT_TRUE(NodeId(0).is_valid());
  EXPECT_EQ(NodeId(3).index(), 3u);
  EXPECT_NE(std::hash<NodeId>{}(NodeId(1)), std::hash<NodeId>{}(NodeId(2)));
}

}  // namespace
}  // namespace vrdf::graph
