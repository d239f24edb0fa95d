// Unit tests for the typed ids.  The models that own them are tested in
// test_dataflow (VrdfGraph) and test_taskgraph (TaskGraph).
#include <gtest/gtest.h>

#include "graph/ids.hpp"

namespace vrdf::graph {
namespace {

struct TestTag {};
using TestId = Id<TestTag>;

TEST(Ids, InvalidAndValidBehaviour) {
  EXPECT_FALSE(TestId::invalid().is_valid());
  EXPECT_TRUE(TestId(0).is_valid());
  EXPECT_EQ(TestId(3).index(), 3u);
  EXPECT_NE(std::hash<TestId>{}(TestId(1)), std::hash<TestId>{}(TestId(2)));
}

}  // namespace
}  // namespace vrdf::graph
