// Randomized property test for Req-block: a synthetic mixed read/write
// trace replayed (a) directly against the policy with a deep audit after
// every single operation, and (b) through the full CacheManager+FTL stack
// with run-time audits forced to "full". A churn test checks that pooled
// request blocks are recycled without carrying state between lives. Coverage counters prove the
// stream exercised every interesting transition — split, promotion
// (upgrade to SRL), downgraded merge, batch eviction, guard bypass — so a
// green run means those paths ran *and* never violated an invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/req_block_policy.h"
#include "test_util.h"
#include "util/audit.h"
#include "util/rng.h"

namespace reqblock::testing {
namespace {

class AuditLevelGuard {
 public:
  explicit AuditLevelGuard(AuditLevel level)
      : previous_(set_audit_level(level)) {}
  ~AuditLevelGuard() { set_audit_level(previous_); }

 private:
  AuditLevel previous_;
};

void expect_clean_audit(const Driven<ReqBlockPolicy>& policy,
                        std::uint64_t op) {
  AuditReport report("Req-block");
  policy->audit(report);
  ASSERT_TRUE(report.ok()) << "after op " << op << ":\n"
                           << report.to_string();
}

TEST(ReqBlockProperty, RandomTraceAuditsCleanAndCoversAllTransitions) {
  ReqBlockOptions opt;
  opt.delta = 5;
  Driven<ReqBlockPolicy> policy(kTestSlots, opt);
  Rng rng(0xFEED5EED);

  std::uint64_t splits = 0;       // hit on a > delta block
  std::uint64_t promotions = 0;   // hit on a <= delta block -> SRL
  std::uint64_t merges = 0;       // eviction dragged the IRL origin along
  std::uint64_t batches = 0;      // eviction of more than one page
  std::uint64_t ops = 0;

  for (std::uint64_t req_id = 1; ops < 40'000; ++req_id) {
    const Lpn start = rng.next_below(384);
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.next_below(16));
    const IoRequest req = write_req(req_id, start, len);
    policy.begin_request(req);
    for (std::uint32_t i = 0; i < len; ++i) {
      const Lpn lpn = start + i;
      const ReqBlock* blk = policy->block_of(lpn);
      if (blk != nullptr) {
        const bool will_split = blk->page_count() > opt.delta;
        policy.on_hit(lpn, req, /*is_write=*/true);
        if (will_split) {
          ++splits;
          // The page must now live in a DRL block remembering its origin.
          const ReqBlock* moved = policy->block_of(lpn);
          ASSERT_NE(moved, nullptr);
          EXPECT_EQ(moved->level, ReqList::kDRL);
          EXPECT_NE(moved->origin_id, 0u);
        } else {
          ++promotions;
          const ReqBlock* moved = policy->block_of(lpn);
          ASSERT_NE(moved, nullptr);
          EXPECT_EQ(moved->level, ReqList::kSRL);
          EXPECT_GE(moved->access_cnt, 2u);
        }
      } else {
        policy.on_insert(lpn, req, /*is_write=*/true);
        const ReqBlock* inserted = policy->block_of(lpn);
        ASSERT_NE(inserted, nullptr);
        EXPECT_EQ(inserted->level, ReqList::kIRL);
      }
      ++ops;
      while (policy->pages() > 192) {
        const ReqBlock* victim_preview = nullptr;
        {
          // Identify the upcoming victim's own size so a larger batch can
          // only mean the origin was merged in.
          const ReqList order[] = {ReqList::kIRL, ReqList::kDRL,
                                   ReqList::kSRL};
          double best = 0.0;
          for (const ReqList level : order) {
            const ReqBlock* cand = policy->tail_of(level);
            while (cand != nullptr && policy->is_guarded(cand)) {
              cand = policy->prev_in_list(cand);
            }
            if (cand == nullptr) continue;
            const double f =
                req_block_freq(*cand, policy->now(), opt.freq_mode);
            if (victim_preview == nullptr || f < best) {
              best = f;
              victim_preview = cand;
            }
          }
        }
        const std::size_t victim_own_pages =
            victim_preview == nullptr ? 0 : victim_preview->page_count();
        VictimBatch batch = policy.select_victim();
        ASSERT_FALSE(batch.empty());
        if (batch.pages.size() > 1) ++batches;
        if (batch.pages.size() > victim_own_pages) ++merges;
      }
      expect_clean_audit(policy, ops);
    }
  }

  EXPECT_GT(splits, 100u) << "trace never split a large block";
  EXPECT_GT(promotions, 100u) << "trace never promoted to SRL";
  EXPECT_GT(merges, 10u) << "trace never exercised downgraded merging";
  EXPECT_GT(batches, 100u) << "trace never evicted a multi-page batch";
}

// Full stack: the same kind of mixed trace through CacheManager + FTL with
// run-time audits at "full". CacheManager::serve audits itself (and the
// policy, and throws on violation) after every request, so simply
// completing the replay is the assertion; the version oracle check on
// reads keeps the data path honest too.
TEST(ReqBlockProperty, FullStackRandomTraceUnderFullAudits) {
  AuditLevelGuard audits(AuditLevel::kFull);
  Harness h(policy_config("reqblock", 256));
  Rng rng(0xBADF00D);

  std::uint64_t id = 1;
  SimTime at = 0;
  for (std::uint64_t i = 0; i < 4'000; ++i) {
    const Lpn start = rng.next_below(1024);
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.next_below(12));
    const bool is_read = rng.next_below(10) < 3;
    const IoRequest req = is_read ? read_req(id, start, len, at)
                                  : write_req(id, start, len, at);
    ++id;
    at += 5;  // nondecreasing arrivals
    ASSERT_NO_THROW(h.serve(req)) << "request " << i;
  }
  const CacheMetrics& m = h.cache->metrics();
  EXPECT_GT(m.page_hits, 0u);
  EXPECT_GT(m.evictions, 0u);

  // End-of-run device audit, like the simulator's.
  AuditReport report("Ftl");
  h.ftl.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// Pool churn: request blocks are recycled, not reallocated. A small buffer
// is driven through many split / promote / merge cycles, audited after
// every operation (the audit also checks that every free pooled block is
// blank). Each time a request's pages land in the block created for it,
// that block must carry nothing from an earlier life: exactly this
// request's pages, a reset access count, the right split origin (none for
// an insertion block), and a fresh link at the head of its list.
TEST(ReqBlockProperty, PooledBlocksRecycleWithoutCarryingState) {
  ReqBlockOptions opt;
  opt.delta = 3;
  Driven<ReqBlockPolicy> policy(kTestSlots, opt);
  Rng rng(0xC0FFEE);
  constexpr std::size_t kCapacity = 48;

  const auto expect_fresh = [&](const ReqBlock* blk, const IoRequest& req,
                                std::vector<Lpn> pages, ReqList level,
                                std::uint64_t origin) {
    ASSERT_NE(blk, nullptr);
    EXPECT_EQ(blk->req_id, req.id);
    EXPECT_EQ(blk->level, level);
    EXPECT_EQ(blk->access_cnt, 1u);
    EXPECT_EQ(blk->origin_id, origin);
    EXPECT_EQ(policy->prev_in_list(blk), nullptr) << "not at its list head";
    std::vector<Lpn> held;
    for (const SlotPage& p : blk->pages) held.push_back(p.lpn);
    std::sort(held.begin(), held.end());
    std::sort(pages.begin(), pages.end());
    EXPECT_EQ(held, pages);
  };

  std::unordered_map<const ReqBlock*, std::uint64_t> id_at;  // storage → id
  std::uint64_t recycled = 0;
  std::uint64_t splits = 0;
  std::uint64_t promotions = 0;
  std::uint64_t merges = 0;
  std::uint64_t ops = 0;
  const auto note_block = [&](const ReqBlock* blk) {
    const auto [it, first_use] = id_at.try_emplace(blk, blk->block_id);
    if (!first_use && it->second != blk->block_id) {
      ++recycled;
      it->second = blk->block_id;
    }
  };

  for (std::uint64_t req_id = 1; req_id <= 20'000; ++req_id) {
    const Lpn start = rng.next_below(96);
    const auto len = 1 + static_cast<std::uint32_t>(rng.next_below(8));
    const IoRequest req = write_req(req_id, start, len);
    policy.begin_request(req);
    std::vector<Lpn> inserted;
    std::vector<Lpn> split;
    std::uint64_t split_origin = 0;
    for (std::uint32_t i = 0; i < len; ++i) {
      const Lpn lpn = start + i;
      const ReqBlock* blk = policy->block_of(lpn);
      if (blk == nullptr) {
        while (policy->pages() >= kCapacity) {
          const std::size_t blocks_before = policy->block_count();
          ASSERT_FALSE(policy.select_victim().empty());
          // Victim plus its IRL origin: two blocks left in one batch.
          if (blocks_before - policy->block_count() == 2) ++merges;
        }
        policy.on_insert(lpn, req, /*is_write=*/true);
        inserted.push_back(lpn);
        if (inserted.size() == 1) note_block(policy->block_of(lpn));
        expect_fresh(policy->block_of(lpn), req, inserted, ReqList::kIRL, 0);
      } else if (blk->page_count() > opt.delta) {
        if (split.empty()) split_origin = blk->block_id;
        policy.on_hit(lpn, req, /*is_write=*/true);
        split.push_back(lpn);
        ++splits;
        if (split.size() == 1) note_block(policy->block_of(lpn));
        expect_fresh(policy->block_of(lpn), req, split, ReqList::kDRL,
                     split_origin);
      } else {
        policy.on_hit(lpn, req, /*is_write=*/true);
        ++promotions;
      }
      ++ops;
      expect_clean_audit(policy, ops);
      if (::testing::Test::HasFailure()) return;
    }
  }

  EXPECT_GT(recycled, 5'000u) << "blocks were not reused from the pool";
  // Live blocks never outnumber cached pages, plus the emptied origin of a
  // split that outlives its replacement's creation by one step.
  EXPECT_LE(policy->pooled_blocks(), kCapacity + 1);
  EXPECT_GT(splits, 1'000u);
  EXPECT_GT(promotions, 1'000u);
  EXPECT_GT(merges, 100u);
}

// Guard property: a single in-flight request larger than the whole buffer
// cannot evict its own block; the policy reports "no victim" and the
// manager bypasses the overflow pages to flash instead of deadlocking or
// self-evicting.
TEST(ReqBlockProperty, OversizedRequestBypassesInsteadOfSelfEvicting) {
  AuditLevelGuard audits(AuditLevel::kFull);
  Harness h(policy_config("reqblock", 8));
  ASSERT_NO_THROW(h.serve(write_req(1, 0, 32)));
  const CacheMetrics& m = h.cache->metrics();
  EXPECT_GT(m.bypass_pages, 0u);
  EXPECT_LE(h.cache->cached_pages(), 8u);
}

}  // namespace
}  // namespace reqblock::testing
