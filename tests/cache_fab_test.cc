#include "cache/fab.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace reqblock {
namespace {

using testing::Driven;
using testing::write_req;

TEST(FabPolicyTest, EvictsLargestGroup) {
  Driven<FabPolicy> fab(/*pages_per_block=*/8);
  // Block 0: pages 0..2 (3 pages). Block 1: pages 8..12 (5 pages).
  for (Lpn l = 0; l < 3; ++l) fab.on_insert(l, write_req(0, l, 1), true);
  for (Lpn l = 8; l < 13; ++l) fab.on_insert(l, write_req(1, l, 1), true);
  const auto v = fab.select_victim();
  EXPECT_EQ(v.pages.size(), 5u);
  for (const Lpn l : v.pages) {
    EXPECT_GE(l, 8u);
    EXPECT_LT(l, 13u);
  }
  EXPECT_EQ(fab->pages(), 3u);
}

TEST(FabPolicyTest, TieBrokenBySmallestBlockId) {
  Driven<FabPolicy> fab(8);
  for (Lpn l = 16; l < 18; ++l) fab.on_insert(l, write_req(0, l, 1), true);
  for (Lpn l = 0; l < 2; ++l) fab.on_insert(l, write_req(1, l, 1), true);
  // Both groups hold 2 pages; block 0 < block 2.
  const auto v = fab.select_victim();
  ASSERT_EQ(v.pages.size(), 2u);
  EXPECT_LT(*std::max_element(v.pages.begin(), v.pages.end()), 8u);
}

TEST(FabPolicyTest, RecencyIgnored) {
  Driven<FabPolicy> fab(8);
  for (Lpn l = 0; l < 4; ++l) fab.on_insert(l, write_req(0, l, 1), true);
  fab.on_insert(8, write_req(1, 8, 1), true);
  // Heavy hits on the big group change nothing: it is still evicted first.
  for (int i = 0; i < 10; ++i) fab.on_hit(0, write_req(2, 0, 1), true);
  EXPECT_EQ(fab.select_victim().pages.size(), 4u);
}

TEST(FabPolicyTest, GroupSizeQuery) {
  Driven<FabPolicy> fab(8);
  fab.on_insert(0, write_req(0, 0, 1), true);
  fab.on_insert(1, write_req(0, 1, 1), true);
  EXPECT_EQ(fab->group_size(0), 2u);
  EXPECT_EQ(fab->group_size(7), 0u);
}

TEST(FabPolicyTest, MetadataPerGroup) {
  Driven<FabPolicy> fab(8);
  fab.on_insert(0, write_req(0, 0, 1), true);   // block 0
  fab.on_insert(9, write_req(1, 9, 1), true);   // block 1
  EXPECT_EQ(fab->metadata_bytes(), 48u);
}

TEST(FabPolicyTest, EmptyVictim) {
  Driven<FabPolicy> fab(8);
  EXPECT_TRUE(fab.select_victim().empty());
}

}  // namespace
}  // namespace reqblock
