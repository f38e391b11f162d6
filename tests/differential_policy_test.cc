// Differential checker: replay identical randomized operation streams
// through each optimized policy and its slow-but-obviously-correct
// reference model (tests/reference_models.h), requiring identical eviction
// decisions at every step and a clean deep audit throughout. Any divergence
// is a bug in the optimized structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/fifo.h"
#include "cache/lfu.h"
#include "cache/lru.h"
#include "core/req_block_policy.h"
#include "reference_models.h"
#include "test_util.h"
#include "util/audit.h"
#include "util/rng.h"

namespace reqblock::testing {
namespace {

/// Restores the runtime audit level on scope exit.
class AuditLevelGuard {
 public:
  explicit AuditLevelGuard(AuditLevel level)
      : previous_(set_audit_level(level)) {}
  ~AuditLevelGuard() { set_audit_level(previous_); }

 private:
  AuditLevel previous_;
};

/// Audits `policy` and fails the test with the full report on violation.
void expect_clean_audit(const WriteBufferPolicy& policy,
                        std::uint64_t op_index) {
  AuditReport report(policy.name());
  policy.audit(report);
  ASSERT_TRUE(report.ok()) << "after op " << op_index << ":\n"
                           << report.to_string();
}

// One op stream drives both sides: ~70% accesses (hit or insert depending
// on residency), ~30% evictions once the structure has warmed up. Deep
// audits run on a stride so the 100k-op streams stay fast while still
// covering thousands of full walks.
constexpr std::uint64_t kOps = 100'000;
constexpr std::uint64_t kLpnSpace = 512;
constexpr std::uint64_t kAuditStride = 97;  // prime: no phase-lock with ops

template <typename Policy, typename Reference>
void run_differential(std::uint64_t seed) {
  Driven<Policy> policy(kTestSlots);
  Reference reference;
  Rng rng(seed);
  std::uint64_t evictions = 0;

  for (std::uint64_t op = 0; op < kOps; ++op) {
    const bool evict = reference.size() > 64 && rng.next_below(10) < 3;
    if (evict) {
      const Lpn expected = reference.victim();
      VictimBatch batch = policy.select_victim();
      ASSERT_EQ(batch.pages.size(), 1u) << "op " << op;
      ASSERT_EQ(batch.pages.front(), expected)
          << policy->name() << " diverged from reference at op " << op;
      ++evictions;
    } else {
      const Lpn lpn = rng.next_below(kLpnSpace);
      const IoRequest req = write_req(op, lpn, 1);
      if (reference.contains(lpn)) {
        reference.hit(lpn);
        policy.on_hit(lpn, req, /*is_write=*/true);
      } else {
        reference.insert(lpn);
        policy.on_insert(lpn, req, /*is_write=*/true);
      }
    }
    ASSERT_EQ(policy->pages(), reference.size()) << "op " << op;
    if (op % kAuditStride == 0) expect_clean_audit(*policy, op);
  }
  expect_clean_audit(*policy, kOps);
  // The stream must actually have exercised the eviction path.
  EXPECT_GT(evictions, 10'000u);
}

TEST(DifferentialPolicy, LruMatchesReferenceOver100kOps) {
  run_differential<LruPolicy, ReferenceLru>(0xA11CE);
}

TEST(DifferentialPolicy, FifoMatchesReferenceOver100kOps) {
  run_differential<FifoPolicy, ReferenceFifo>(0xB0B);
}

TEST(DifferentialPolicy, LfuMatchesReferenceOver100kOps) {
  run_differential<LfuPolicy, ReferenceLfu>(0xCAFE);
}

// Req-block differential: drive the policy exactly like the cache manager
// does (begin_request, then per-page hit/insert), and before every
// select_victim compute the brute-force Eq. 1 victim and its expected
// downgraded-merge batch; the optimized eviction must return the same page
// set. Audits run after every request.
TEST(DifferentialPolicy, ReqBlockMatchesBruteForceEq1Over100kOps) {
  ReqBlockOptions opt;
  opt.delta = 5;
  Driven<ReqBlockPolicy> policy(kTestSlots, opt);
  Rng rng(0xD1FF);

  std::uint64_t pages_processed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t merged_evictions = 0;
  std::uint64_t req_id = 1;

  while (pages_processed < kOps) {
    // Synthetic request: start in a 4 KiB-page LPN space small enough to
    // re-hit earlier requests, size 1..16 pages so both the <= delta and
    // > delta regimes occur.
    const Lpn start = rng.next_below(kLpnSpace);
    const std::uint32_t len = 1 + static_cast<std::uint32_t>(
                                      rng.next_below(16));
    const IoRequest req = write_req(req_id, start, len);
    ++req_id;
    policy.begin_request(req);
    for (std::uint32_t i = 0; i < len; ++i) {
      const Lpn lpn = start + i;
      if (policy.slot_of(lpn) != kNoSlot) {
        policy.on_hit(lpn, req, /*is_write=*/true);
      } else {
        policy.on_insert(lpn, req, /*is_write=*/true);
      }
      ++pages_processed;
      // Keep the structure near a fixed size, evicting like the manager
      // does when over capacity.
      while (policy->pages() > 256) {
        const ReqBlock* expected_victim = brute_force_victim(*policy);
        const std::vector<Lpn> expected =
            expected_victim_pages(*policy, expected_victim);
        // Capture before select_victim: the victim block is destroyed by
        // the eviction itself.
        const bool victim_was_split =
            expected_victim != nullptr && expected_victim->origin_id != 0;
        const std::size_t victim_own_pages =
            expected_victim == nullptr ? 0 : expected_victim->pages.size();
        VictimBatch batch = policy.select_victim();
        std::vector<Lpn> got = batch.pages;
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expected)
            << "Req-block eviction diverged from brute-force Eq.1 after "
            << pages_processed << " pages";
        ASSERT_FALSE(batch.empty())
            << "policy refused to evict with no in-flight guard conflict";
        ++evictions;
        if (victim_was_split && expected.size() > victim_own_pages) {
          ++merged_evictions;
        }
      }
    }
    expect_clean_audit(*policy, pages_processed);
  }

  // The workload must have hit the interesting paths, not skated past them.
  EXPECT_GT(evictions, 1'000u);
  EXPECT_GT(merged_evictions, 0u) << "no downgraded merge ever happened";
}

// Same differential under every FreqMode, so the Eq. 1 ablation variants
// stay consistent with their brute-force definition too.
TEST(DifferentialPolicy, ReqBlockBruteForceAgreesUnderFreqModes) {
  for (const FreqMode mode : {FreqMode::kFull, FreqMode::kNoTime,
                              FreqMode::kNoSize, FreqMode::kCountOnly}) {
    ReqBlockOptions opt;
    opt.delta = 3;
    opt.freq_mode = mode;
    Driven<ReqBlockPolicy> policy(kTestSlots, opt);
    Rng rng(0x5EED + static_cast<std::uint64_t>(mode));

    std::uint64_t req_id = 1;
    for (std::uint64_t op = 0; op < 20'000; ++op) {
      const Lpn start = rng.next_below(128);
      const std::uint32_t len =
          1 + static_cast<std::uint32_t>(rng.next_below(8));
      const IoRequest req = write_req(req_id++, start, len);
      policy.begin_request(req);
      for (std::uint32_t i = 0; i < len; ++i) {
        const Lpn lpn = start + i;
        if (policy.slot_of(lpn) != kNoSlot) {
          policy.on_hit(lpn, req, true);
        } else {
          policy.on_insert(lpn, req, true);
        }
        while (policy->pages() > 96) {
          const std::vector<Lpn> expected =
              expected_victim_pages(*policy, brute_force_victim(*policy));
          VictimBatch batch = policy.select_victim();
          std::vector<Lpn> got = batch.pages;
          std::sort(got.begin(), got.end());
          ASSERT_EQ(got, expected) << "mode " << static_cast<int>(mode);
        }
      }
    }
  }
}

}  // namespace
}  // namespace reqblock::testing
