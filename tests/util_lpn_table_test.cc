// LpnTable and LpnHashMap against std::map: randomized insert / erase /
// find sequences over chunk edges, stored zeros, sorted iteration, chunk
// reclamation, and the LPN bound.
#include "util/lpn_table.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace reqblock {
namespace {

constexpr Lpn kChunk = LpnTable<int>::kChunkEntries;

/// LPNs clustered on chunk edges (0, 4095, 4096, ...) plus a sparse tail.
Lpn draw_lpn(Rng& rng) {
  static const Lpn kEdges[] = {0,          1,          kChunk - 1, kChunk,
                               kChunk + 1, 2 * kChunk - 1, 2 * kChunk,
                               7 * kChunk + 63, 7 * kChunk + 64,
                               kLpnBound - 1};
  switch (rng.next_below(4)) {
    case 0:
      return kEdges[rng.next_below(std::size(kEdges))];
    case 1:
      return rng.next_below(3 * kChunk);
    case 2:
      return 40 * kChunk + rng.next_below(64);  // one dense run
    default:
      return rng.next_below(64) * kChunk + rng.next_below(kChunk);
  }
}

TEST(LpnTableTest, RandomizedDifferentialAgainstStdMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    LpnTable<std::uint64_t> table;
    std::map<Lpn, std::uint64_t> ref;
    Rng rng(seed);
    for (int step = 0; step < 20000; ++step) {
      const Lpn lpn = draw_lpn(rng);
      switch (rng.next_below(4)) {
        case 0: {  // insert-or-get; half the stored values are 0
          const auto [v, inserted] = table.try_emplace(lpn);
          ASSERT_EQ(inserted, ref.count(lpn) == 0) << lpn;
          if (inserted) {
            ASSERT_EQ(*v, 0u);
          }
          *v = rng.next_below(2) == 0 ? 0 : step;
          ref[lpn] = *v;
          break;
        }
        case 1:
          ASSERT_EQ(table.erase(lpn), ref.erase(lpn) == 1) << lpn;
          break;
        case 2:
          ++table[lpn];
          ++ref[lpn];
          break;
        default: {
          const std::uint64_t* v = table.find(lpn);
          const auto it = ref.find(lpn);
          ASSERT_EQ(v != nullptr, it != ref.end()) << lpn;
          if (v != nullptr) {
            ASSERT_EQ(*v, it->second) << lpn;
          }
        }
      }
      ASSERT_EQ(table.size(), ref.size());
    }
    // Sorted iteration visits exactly the reference, zeros included.
    using Entries = std::vector<std::pair<Lpn, std::uint64_t>>;
    Entries seen;
    table.for_each([&](Lpn l, std::uint64_t v) { seen.emplace_back(l, v); });
    EXPECT_EQ(seen, Entries(ref.begin(), ref.end()));
    // One live chunk per distinct chunk index; emptied chunks are freed.
    std::set<Lpn> chunks;
    for (const auto& [l, v] : ref) chunks.insert(l / kChunk);
    EXPECT_EQ(table.live_chunks(), chunks.size());
  }
}

TEST(LpnTableTest, StoredZeroIsPresent) {
  LpnTable<std::uint64_t> table;
  EXPECT_FALSE(table.contains(kChunk));
  table[kChunk] = 0;
  EXPECT_TRUE(table.contains(kChunk));
  EXPECT_FALSE(table.contains(kChunk - 1));
  EXPECT_FALSE(table.contains(kChunk + 1));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.erase(kChunk));
  EXPECT_FALSE(table.contains(kChunk));
  EXPECT_EQ(table.live_chunks(), 0u);
}

TEST(LpnTableTest, BoundIsRefusedWithoutGrowingTheDirectory) {
  LpnTable<std::uint64_t> table;
  table[5] = 1;
  const std::size_t slots = table.directory_slots();
  for (const Lpn bad : {kLpnBound, kLpnBound + kChunk, ~Lpn{0}}) {
    EXPECT_THROW(table.try_emplace(bad), std::logic_error) << bad;
    EXPECT_EQ(table.find(bad), nullptr);
    EXPECT_FALSE(table.erase(bad));
  }
  EXPECT_EQ(table.directory_slots(), slots);
  EXPECT_EQ(table.size(), 1u);
  table[kLpnBound - 1] = 2;  // the last supported LPN
  EXPECT_EQ(table.directory_slots(), kLpnBound / kChunk);
  EXPECT_EQ(*table.find(kLpnBound - 1), 2u);
}

TEST(LpnHashMapTest, RandomizedDifferentialAgainstStdMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    LpnHashMap<std::uint64_t> map;
    std::map<Lpn, std::uint64_t> ref;
    Rng rng(seed);
    for (int step = 0; step < 20000; ++step) {
      // A small key space keeps the map near its working size, so erases
      // shift real probe chains; sequential runs collide on purpose.
      const Lpn lpn = rng.next_below(2) == 0 ? rng.next_below(512)
                                             : 4096 * rng.next_below(512);
      switch (rng.next_below(3)) {
        case 0: {
          const auto [v, inserted] = map.try_emplace(lpn, step);
          ASSERT_EQ(inserted, ref.emplace(lpn, step).second) << lpn;
          ASSERT_EQ(*v, ref[lpn]);
          break;
        }
        case 1:
          ASSERT_EQ(map.erase(lpn), ref.erase(lpn) == 1) << lpn;
          break;
        default: {
          const std::uint64_t* v = map.find(lpn);
          const auto it = ref.find(lpn);
          ASSERT_EQ(v != nullptr, it != ref.end()) << lpn;
          if (v != nullptr) {
            ASSERT_EQ(*v, it->second) << lpn;
          }
        }
      }
      ASSERT_EQ(map.size(), ref.size());
    }
    std::map<Lpn, std::uint64_t> seen;
    map.for_each([&](Lpn l, std::uint64_t v) { seen.emplace(l, v); });
    EXPECT_EQ(seen, ref);
  }
}

TEST(LpnHashMapTest, BoundIsRefused) {
  LpnHashMap<int> map;
  EXPECT_THROW(map.try_emplace(kLpnBound, 1), std::logic_error);
  EXPECT_THROW(map.try_emplace(~Lpn{0}, 1), std::logic_error);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.try_emplace(kLpnBound - 1, 1).second);
  // The all-ones key marks empty slots; it is never found or erased.
  EXPECT_EQ(map.find(~Lpn{0}), nullptr);
  EXPECT_FALSE(map.erase(~Lpn{0}));
  EXPECT_EQ(map.size(), 1u);
}

}  // namespace
}  // namespace reqblock
