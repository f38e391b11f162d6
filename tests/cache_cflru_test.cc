#include "cache/cflru.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace reqblock {
namespace {

using testing::read_req;
using testing::Driven;
using testing::write_req;

TEST(CflruPolicyTest, AllDirtyDegeneratesToLru) {
  Driven<CflruPolicy> p(8, 0.5);
  for (Lpn l = 0; l < 4; ++l) p.on_insert(l, write_req(l, l, 1), true);
  EXPECT_EQ(p.select_victim().pages[0], 0u);
  EXPECT_EQ(p.select_victim().pages[0], 1u);
}

TEST(CflruPolicyTest, CleanPageInWindowPreferred) {
  Driven<CflruPolicy> p(8, 0.5);  // window = 4 entries
  p.on_insert(0, write_req(0, 0, 1), true);   // dirty, will be LRU tail
  p.on_insert(1, read_req(1, 1, 1), false);   // clean
  p.on_insert(2, write_req(2, 2, 1), true);
  // Tail order: 0 (dirty), 1 (clean), 2 (dirty). Window covers all three.
  EXPECT_EQ(p.select_victim().pages[0], 1u);
}

TEST(CflruPolicyTest, CleanOutsideWindowNotConsidered) {
  Driven<CflruPolicy> p(8, 0.25);  // window = 2 entries
  p.on_insert(0, read_req(0, 0, 1), false);  // clean but oldest
  p.on_insert(1, write_req(1, 1, 1), true);
  p.on_insert(2, write_req(2, 2, 1), true);
  p.on_insert(3, write_req(3, 3, 1), true);
  // Window scans only lpns 0 and 1 from the tail; 0 is clean -> victim.
  EXPECT_EQ(p.select_victim().pages[0], 0u);

  // Now make a clean page sit beyond the window.
  Driven<CflruPolicy> q(8, 0.25);
  q.on_insert(10, write_req(0, 10, 1), true);
  q.on_insert(11, write_req(1, 11, 1), true);
  q.on_insert(12, read_req(2, 12, 1), false);  // clean, 3rd from tail
  q.on_insert(13, write_req(3, 13, 1), true);
  // Window = {10, 11}: both dirty -> plain LRU tail (10).
  EXPECT_EQ(q.select_victim().pages[0], 10u);
}

TEST(CflruPolicyTest, WriteHitDirtiesCleanPage) {
  Driven<CflruPolicy> p(8, 1.0);
  p.on_insert(0, read_req(0, 0, 1), false);  // clean
  p.on_insert(1, write_req(1, 1, 1), true);
  p.on_hit(0, write_req(2, 0, 1), true);     // now dirty, and MRU
  // No clean page anywhere -> dirty LRU tail is lpn 1.
  EXPECT_EQ(p.select_victim().pages[0], 1u);
}

TEST(CflruPolicyTest, ReadHitKeepsCleanState) {
  Driven<CflruPolicy> p(8, 1.0);
  p.on_insert(0, read_req(0, 0, 1), false);
  p.on_insert(1, write_req(1, 1, 1), true);
  p.on_hit(0, read_req(2, 0, 1), false);
  // lpn 0 stays clean, so despite being MRU it is still the clean victim.
  EXPECT_EQ(p.select_victim().pages[0], 0u);
}

TEST(CflruPolicyTest, InvalidWindowFractionThrows) {
  EXPECT_THROW(CflruPolicy(8, -0.1), std::logic_error);
  EXPECT_THROW(CflruPolicy(8, 1.5), std::logic_error);
}

TEST(CflruPolicyTest, EmptyVictim) {
  Driven<CflruPolicy> p(8, 0.5);
  EXPECT_TRUE(p.select_victim().empty());
}

}  // namespace
}  // namespace reqblock
