#include "cache/bplru.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace reqblock {
namespace {

using testing::Driven;
using testing::write_req;

TEST(BplruPolicyTest, BlockLevelLruEviction) {
  Driven<BplruPolicy> p(8);
  p.on_insert(0, write_req(0, 0, 1), true);    // block 0
  p.on_insert(8, write_req(1, 8, 1), true);    // block 1
  p.on_insert(16, write_req(2, 16, 1), true);  // block 2
  p.on_hit(0, write_req(3, 0, 1), false);      // promote block 0
  const auto v = p.select_victim();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v.pages[0], 8u);  // block 1 is LRU
}

TEST(BplruPolicyTest, VictimIsColocatedNoPaddingByDefault) {
  Driven<BplruPolicy> p(8);
  p.on_insert(0, write_req(0, 0, 1), true);
  p.on_insert(3, write_req(1, 3, 1), true);
  const auto v = p.select_victim();
  EXPECT_TRUE(v.colocate);
  ASSERT_EQ(v.pages.size(), 2u);
  EXPECT_TRUE(v.padding_reads.empty());
}

TEST(BplruPolicyTest, PaddingModeRequestsMissingPages) {
  BplruOptions opts;
  opts.page_padding = true;
  Driven<BplruPolicy> p(8, opts);
  p.on_insert(0, write_req(0, 0, 1), true);
  p.on_insert(3, write_req(1, 3, 1), true);
  const auto v = p.select_victim();
  EXPECT_TRUE(v.colocate);
  ASSERT_EQ(v.pages.size(), 2u);
  // Padding requests the 6 missing pages of block 0.
  EXPECT_EQ(v.padding_reads.size(), 6u);
  for (const Lpn l : v.padding_reads) {
    EXPECT_LT(l, 8u);
    EXPECT_NE(l, 0u);
    EXPECT_NE(l, 3u);
  }
}

TEST(BplruPolicyTest, SequentialFullBlockDemotedToTail) {
  Driven<BplruPolicy> p(4);
  // Fill block 2 fully in order -> demoted.
  for (Lpn l = 8; l < 12; ++l) p.on_insert(l, write_req(0, l, 1), true);
  EXPECT_TRUE(p->is_sequential_demoted(2));
  // Insert another block afterwards; the sequential block still evicts
  // first because demotion put it at the tail.
  p.on_insert(0, write_req(1, 0, 1), true);
  const auto v = p.select_victim();
  EXPECT_EQ(v.pages.size(), 4u);
  EXPECT_EQ(*std::min_element(v.pages.begin(), v.pages.end()), 8u);
}

TEST(BplruPolicyTest, OutOfOrderWritesAreNotSequential) {
  Driven<BplruPolicy> p(4);
  p.on_insert(9, write_req(0, 9, 1), true);  // offset 1 first
  p.on_insert(8, write_req(0, 8, 1), true);
  p.on_insert(10, write_req(0, 10, 1), true);
  p.on_insert(11, write_req(0, 11, 1), true);
  EXPECT_FALSE(p->is_sequential_demoted(2));
}

TEST(BplruPolicyTest, RewriteBreaksSequentialFlag) {
  Driven<BplruPolicy> p(4);
  for (Lpn l = 8; l < 12; ++l) p.on_insert(l, write_req(0, l, 1), true);
  EXPECT_TRUE(p->is_sequential_demoted(2));
  p.on_hit(9, write_req(1, 9, 1), true);  // rewrite
  EXPECT_FALSE(p->is_sequential_demoted(2));
  // And the block is now MRU: a different block should evict first.
  p.on_insert(0, write_req(2, 0, 1), true);
  p.on_insert(4, write_req(3, 4, 1), true);
  p.on_hit(0, write_req(4, 0, 1), false);
  p.on_hit(9, write_req(5, 9, 1), false);
  const auto v = p.select_victim();
  EXPECT_EQ(v.pages[0], 4u);  // block 1 became LRU
}

TEST(BplruPolicyTest, FullyCachedBlockHasNoPadding) {
  BplruOptions opts;
  opts.page_padding = true;
  Driven<BplruPolicy> p(4, opts);
  for (Lpn l = 0; l < 4; ++l) p.on_insert(l, write_req(0, l, 1), true);
  const auto v = p.select_victim();
  EXPECT_EQ(v.pages.size(), 4u);
  EXPECT_TRUE(v.padding_reads.empty());
}

TEST(BplruPolicyTest, PagesAndMetadata) {
  Driven<BplruPolicy> p(8);
  p.on_insert(0, write_req(0, 0, 1), true);
  p.on_insert(1, write_req(0, 1, 1), true);
  p.on_insert(8, write_req(1, 8, 1), true);
  EXPECT_EQ(p->pages(), 3u);
  EXPECT_EQ(p->metadata_bytes(), 48u);  // two block nodes x 24 B
  p.select_victim();
  EXPECT_EQ(p->metadata_bytes(), 24u);
}

TEST(BplruPolicyTest, EmptyVictim) {
  Driven<BplruPolicy> p(8);
  EXPECT_TRUE(p.select_victim().empty());
}

TEST(BplruPolicyTest, PageAccountingByDefault) {
  Driven<BplruPolicy> p(8);
  p.on_insert(0, write_req(0, 0, 1), true);
  p.on_insert(16, write_req(1, 16, 1), true);
  EXPECT_EQ(p->occupied_pages(), 2u);
}

TEST(BplruPolicyTest, BlockUnitAllocationReservesWholeBlocks) {
  BplruOptions opts;
  opts.block_unit_allocation = true;
  Driven<BplruPolicy> p(8, opts);
  p.on_insert(0, write_req(0, 0, 1), true);   // block 0: 1 page
  p.on_insert(16, write_req(1, 16, 1), true); // block 2: 1 page
  EXPECT_EQ(p->pages(), 2u);
  EXPECT_EQ(p->occupied_pages(), 16u);  // two full 8-page block units
  p.select_victim();
  EXPECT_EQ(p->occupied_pages(), 8u);
}

TEST(BplruPolicyTest, BlockUnitAllocationLimitsResidency) {
  // Through the manager: capacity 16 pages = two 8-page block units, so
  // sparse blocks evict each other even though few pages are cached.
  testing::Harness h(testing::policy_config("bplru", 16, 8));
  auto* policy = dynamic_cast<BplruPolicy*>(&h.cache->policy());
  ASSERT_NE(policy, nullptr);
  // Default is page accounting; rebuild with unit allocation via config.
  PolicyConfig cfg = testing::policy_config("bplru", 16, 8);
  cfg.bplru.block_unit_allocation = true;
  testing::Harness h2(cfg);
  for (std::uint64_t i = 0; i < 6; ++i) {
    h2.serve(testing::write_req(i, i * 8, 1,
                                static_cast<SimTime>(i) * kSecond));
    // At most 2 sparse blocks resident at any time.
    ASSERT_LE(h2.cache->cached_pages(), 2u);
  }
}

}  // namespace
}  // namespace reqblock
