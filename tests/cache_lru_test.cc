#include "cache/lru.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace reqblock {
namespace {

using testing::Driven;
using testing::kTestSlots;
using testing::write_req;

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  Driven<LruPolicy> lru(kTestSlots);
  lru.on_insert(1, write_req(0, 1, 1), true);
  lru.on_insert(2, write_req(1, 2, 1), true);
  lru.on_insert(3, write_req(2, 3, 1), true);
  const auto v = lru.select_victim();
  ASSERT_EQ(v.pages.size(), 1u);
  EXPECT_EQ(v.pages[0], 1u);
  EXPECT_FALSE(v.colocate);
  EXPECT_TRUE(v.padding_reads.empty());
}

TEST(LruPolicyTest, HitPromotes) {
  Driven<LruPolicy> lru(kTestSlots);
  lru.on_insert(1, write_req(0, 1, 1), true);
  lru.on_insert(2, write_req(1, 2, 1), true);
  lru.on_hit(1, write_req(2, 1, 1), true);
  EXPECT_EQ(lru.select_victim().pages[0], 2u);
}

TEST(LruPolicyTest, ReadHitAlsoPromotes) {
  Driven<LruPolicy> lru(kTestSlots);
  lru.on_insert(1, write_req(0, 1, 1), true);
  lru.on_insert(2, write_req(1, 2, 1), true);
  lru.on_hit(1, testing::read_req(2, 1, 1), false);
  EXPECT_EQ(lru.select_victim().pages[0], 2u);
}

TEST(LruPolicyTest, PagesTracksPopulation) {
  Driven<LruPolicy> lru(kTestSlots);
  EXPECT_EQ(lru->pages(), 0u);
  lru.on_insert(5, write_req(0, 5, 1), true);
  lru.on_insert(6, write_req(0, 6, 1), true);
  EXPECT_EQ(lru->pages(), 2u);
  lru.select_victim();
  EXPECT_EQ(lru->pages(), 1u);
}

TEST(LruPolicyTest, MetadataIsTwelveBytesPerPage) {
  Driven<LruPolicy> lru(kTestSlots);
  for (Lpn l = 0; l < 10; ++l) lru.on_insert(l, write_req(l, l, 1), true);
  EXPECT_EQ(lru->metadata_bytes(), 120u);
}

TEST(LruPolicyTest, EmptyVictimWhenNoPages) {
  Driven<LruPolicy> lru(kTestSlots);
  EXPECT_TRUE(lru.select_victim().empty());
}

TEST(LruPolicyTest, DoubleInsertRejected) {
  Driven<LruPolicy> lru(kTestSlots);
  lru.on_insert(1, write_req(0, 1, 1), true);
  EXPECT_THROW(lru.on_insert(1, write_req(1, 1, 1), true), std::logic_error);
}

TEST(LruPolicyTest, HitOnUntrackedRejected) {
  Driven<LruPolicy> lru(kTestSlots);
  EXPECT_THROW(lru.on_hit(9, write_req(0, 9, 1), true), std::logic_error);
}

TEST(LruPolicyTest, FullOrderMaintainedUnderChurn) {
  Driven<LruPolicy> lru(kTestSlots);
  for (Lpn l = 0; l < 8; ++l) lru.on_insert(l, write_req(l, l, 1), true);
  // Touch even pages; odd pages should then evict first, in order.
  for (Lpn l = 0; l < 8; l += 2) lru.on_hit(l, write_req(10, l, 1), true);
  for (Lpn expect : {1, 3, 5, 7, 0, 2, 4, 6}) {
    EXPECT_EQ(lru.select_victim().pages[0], expect);
  }
}

}  // namespace
}  // namespace reqblock
