#include "cache/vbbms.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace reqblock {
namespace {

using testing::Driven;
using testing::write_req;

VbbmsOptions opts() { return VbbmsOptions{}; }

TEST(VbbmsPolicyTest, ClassifiesByRequestSize) {
  Driven<VbbmsPolicy> p(100, opts());
  p.on_insert(0, write_req(0, 0, 2), true);     // small -> random region
  p.on_insert(100, write_req(1, 100, 8), true); // large -> sequential region
  EXPECT_EQ(p->random_pages(), 1u);
  EXPECT_EQ(p->seq_pages(), 1u);
}

TEST(VbbmsPolicyTest, ThresholdBoundary) {
  Driven<VbbmsPolicy> p(100, opts());  // threshold 5
  p.on_insert(0, write_req(0, 0, 4), true);
  p.on_insert(10, write_req(1, 10, 5), true);
  EXPECT_EQ(p->random_pages(), 1u);
  EXPECT_EQ(p->seq_pages(), 1u);
}

TEST(VbbmsPolicyTest, RandomRegionUsesVirtualBlockLru) {
  Driven<VbbmsPolicy> p(100, opts());
  // Virtual blocks of 3 pages: lpns 0..2 -> vb0, 3..5 -> vb1.
  p.on_insert(0, write_req(0, 0, 1), true);
  p.on_insert(1, write_req(1, 1, 1), true);
  p.on_insert(3, write_req(2, 3, 1), true);
  p.on_hit(0, write_req(3, 0, 1), true);  // promote vb0
  // Make the random region dominate so eviction picks it.
  const auto v = p.select_victim();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v.pages.size(), 1u);
  EXPECT_EQ(v.pages[0], 3u);  // vb1 is LRU
}

TEST(VbbmsPolicyTest, SequentialRegionIsFifo) {
  VbbmsOptions o = opts();
  o.random_fraction = 0.5;
  Driven<VbbmsPolicy> p(4, o);  // tiny: quotas 2 and 2
  p.on_insert(100, write_req(0, 100, 8), true);  // seq vb 25
  p.on_insert(104, write_req(1, 104, 8), true);  // seq vb 26
  p.on_hit(100, write_req(2, 100, 8), true);     // FIFO ignores the hit
  const auto v = p.select_victim();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v.pages[0], 100u);  // oldest still evicts first
}

TEST(VbbmsPolicyTest, WholeVirtualBlockEvictedTogether) {
  Driven<VbbmsPolicy> p(100, opts());
  for (Lpn l = 0; l < 3; ++l) p.on_insert(l, write_req(l, l, 1), true);
  const auto v = p.select_victim();
  EXPECT_EQ(v.pages.size(), 3u);  // vb0 holds lpns 0,1,2
  EXPECT_FALSE(v.colocate);
}

TEST(VbbmsPolicyTest, EvictsOverloadedRegion) {
  VbbmsOptions o = opts();
  o.random_fraction = 0.6;
  Driven<VbbmsPolicy> p(10, o);  // random quota 6, seq quota 4
  // Load 5 sequential pages (load 1.25) vs 3 random pages (load 0.5).
  p.on_insert(100, write_req(0, 100, 8), true);
  p.on_insert(101, write_req(0, 101, 8), true);
  p.on_insert(102, write_req(0, 102, 8), true);
  p.on_insert(103, write_req(0, 103, 8), true);
  p.on_insert(104, write_req(0, 104, 8), true);
  p.on_insert(0, write_req(1, 0, 1), true);
  p.on_insert(1, write_req(1, 1, 1), true);
  p.on_insert(2, write_req(1, 2, 1), true);
  const auto v = p.select_victim();
  ASSERT_FALSE(v.empty());
  EXPECT_GE(v.pages[0], 100u);  // sequential region pays
}

TEST(VbbmsPolicyTest, FallsBackToNonEmptyRegion) {
  Driven<VbbmsPolicy> p(10, opts());
  p.on_insert(0, write_req(0, 0, 1), true);  // only random has pages
  const auto v = p.select_victim();
  EXPECT_EQ(v.pages.size(), 1u);
  EXPECT_EQ(p->pages(), 0u);
}

TEST(VbbmsPolicyTest, ReinsertionAfterEvictionCanSwitchRegion) {
  Driven<VbbmsPolicy> p(10, opts());
  p.on_insert(0, write_req(0, 0, 1), true);  // random
  auto v = p.select_victim();
  ASSERT_EQ(v.pages[0], 0u);
  p.on_insert(0, write_req(1, 0, 8), true);  // now sequential
  EXPECT_EQ(p->seq_pages(), 1u);
  EXPECT_EQ(p->random_pages(), 0u);
}

TEST(VbbmsPolicyTest, MetadataCountsVirtualBlocks) {
  Driven<VbbmsPolicy> p(100, opts());
  p.on_insert(0, write_req(0, 0, 1), true);    // random vb
  p.on_insert(1, write_req(1, 1, 1), true);    // same random vb
  p.on_insert(100, write_req(2, 100, 8), true);  // seq vb
  EXPECT_EQ(p->metadata_bytes(), 48u);
}

TEST(VbbmsPolicyTest, InvalidOptionsThrow) {
  VbbmsOptions o = opts();
  o.random_fraction = 0.0;
  EXPECT_THROW(VbbmsPolicy(10, o), std::logic_error);
  o = opts();
  o.random_vb_pages = 0;
  EXPECT_THROW(VbbmsPolicy(10, o), std::logic_error);
}

TEST(VbbmsPolicyTest, EmptyVictim) {
  Driven<VbbmsPolicy> p(10, opts());
  EXPECT_TRUE(p.select_victim().empty());
}

}  // namespace
}  // namespace reqblock
