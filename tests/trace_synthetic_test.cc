#include "trace/synthetic.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "trace/trace_stats.h"

namespace reqblock {
namespace {

// Replayed streams are held as vectors of requests: no inner padding.
static_assert(sizeof(IoRequest) == 32);

WorkloadProfile small_profile() {
  WorkloadProfile p;
  p.name = "unit";
  p.total_requests = 20000;
  p.seed = 99;
  p.write_ratio = 0.6;
  p.hot_extents = 512;
  p.hot_slot_pages = 8;
  p.large_write_fraction = 0.2;
  p.small_write_mean_pages = 2.0;
  p.large_write_min_pages = 8;
  p.large_write_max_pages = 24;
  p.hot_zipf_theta = 1.0;
  p.cold_stream_pages = 1 << 16;
  return p;
}

TEST(SyntheticTraceTest, EmitsExactlyTotalRequests) {
  SyntheticTraceSource src(small_profile());
  IoRequest r;
  std::uint64_t n = 0;
  while (src.next(r)) ++n;
  EXPECT_EQ(n, 20000u);
}

TEST(SyntheticTraceTest, DeterministicAcrossResets) {
  SyntheticTraceSource src(small_profile());
  const auto first = src.collect();
  const auto second = src.collect();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].arrival, second[i].arrival);
    ASSERT_EQ(first[i].type, second[i].type);
    ASSERT_EQ(first[i].lpn, second[i].lpn);
    ASSERT_EQ(first[i].pages, second[i].pages);
  }
}

TEST(SyntheticTraceTest, IdsAreSequential) {
  SyntheticTraceSource src(small_profile());
  const auto all = src.collect();
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i].id, i);
  }
}

TEST(SyntheticTraceTest, ArrivalsMonotonicallyNondecreasing) {
  SyntheticTraceSource src(small_profile());
  const auto all = src.collect();
  for (std::size_t i = 1; i < all.size(); ++i) {
    ASSERT_GE(all[i].arrival, all[i - 1].arrival);
  }
}

TEST(SyntheticTraceTest, WriteRatioApproximatelyMatches) {
  SyntheticTraceSource src(small_profile());
  TraceStats stats = TraceStatsCollector::collect(src);
  EXPECT_NEAR(stats.write_ratio(), 0.6, 0.02);
}

TEST(SyntheticTraceTest, MeanWriteSizeApproximatelyMatches) {
  const auto profile = small_profile();
  SyntheticTraceSource src(profile);
  TraceStats stats = TraceStatsCollector::collect(src);
  const double expected_pages = profile.expected_write_pages();
  const double measured_pages = stats.mean_write_kb() / 4.0;
  // The small-size draw is a clamped discretized exponential, so allow a
  // generous band around the analytic mix.
  EXPECT_NEAR(measured_pages, expected_pages, expected_pages * 0.35);
}

TEST(SyntheticTraceTest, RequestsStayInsideFootprint) {
  const auto profile = small_profile();
  SyntheticTraceSource src(profile);
  const auto all = src.collect();
  const Lpn footprint = profile.footprint_pages();
  for (const auto& r : all) {
    ASSERT_LE(r.end_lpn(), footprint);
    ASSERT_GE(r.pages, 1u);
  }
}

TEST(SyntheticTraceTest, HotExtentsAreStable) {
  // The same hot extent must always be accessed with the same (lpn, pages),
  // otherwise request blocks would not be a stable unit of reuse.
  const auto profile = small_profile();
  SyntheticTraceSource src(profile);
  const auto all = src.collect();
  std::unordered_map<Lpn, std::uint32_t> size_of;
  const Lpn hot_end = profile.hot_region_pages();
  for (const auto& r : all) {
    if (!r.is_write() || r.lpn >= hot_end) continue;
    if (r.lpn % profile.hot_slot_pages != 0) continue;  // extent-aligned only
    const auto [it, fresh] = size_of.emplace(r.lpn, r.pages);
    if (!fresh) {
      ASSERT_EQ(it->second, r.pages);
    }
  }
  EXPECT_GT(size_of.size(), 50u);
}

TEST(SyntheticTraceTest, SmallRequestsHaveMoreReuseThanLarge) {
  // The generator's core property (paper Observations 1-2): addresses
  // written by small requests recur much more often.
  const auto profile = small_profile();
  SyntheticTraceSource src(profile);
  const auto all = src.collect();
  std::unordered_map<Lpn, int> count_small, count_large;
  for (const auto& r : all) {
    if (!r.is_write()) continue;
    auto& m = r.pages <= profile.hot_slot_pages ? count_small : count_large;
    ++m[r.lpn];
  }
  auto reuse = [](const std::unordered_map<Lpn, int>& m) {
    if (m.empty()) return 0.0;
    std::uint64_t repeated = 0;
    for (const auto& [lpn, c] : m) {
      if (c >= 2) ++repeated;
    }
    return static_cast<double>(repeated) / static_cast<double>(m.size());
  };
  EXPECT_GT(reuse(count_small), 2.0 * reuse(count_large));
}

TEST(SyntheticTraceTest, ScaledProfileChangesCount) {
  const auto p = small_profile().scaled(0.5);
  EXPECT_EQ(p.total_requests, 10000u);
  EXPECT_EQ(small_profile().scaled(2.0).total_requests, 40000u);
  EXPECT_THROW(small_profile().scaled(0.0), std::logic_error);
}

TEST(SyntheticTraceTest, CappedProfile) {
  EXPECT_EQ(small_profile().capped(100).total_requests, 100u);
  EXPECT_EQ(small_profile().capped(0).total_requests, 20000u);
  EXPECT_EQ(small_profile().capped(10000000).total_requests, 20000u);
}

TEST(SyntheticTraceTest, LargeWritesComeFromColdRegion) {
  const auto profile = small_profile();
  SyntheticTraceSource src(profile);
  const auto all = src.collect();
  const Lpn hot_end = profile.hot_region_pages();
  for (const auto& r : all) {
    if (r.is_write() && r.pages > profile.hot_slot_pages) {
      ASSERT_GE(r.lpn, hot_end) << "large write in hot region";
    }
  }
}

}  // namespace
}  // namespace reqblock
