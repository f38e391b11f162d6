// Slow-but-obviously-correct reference models for the differential checker.
//
// Each reference implements one replacement discipline with the most naive
// data structure that can express it (a std::vector scanned linearly), so
// its correctness is evident by inspection. The differential tests replay
// identical operation streams through a real policy and its reference and
// require identical victim choices at every eviction — any divergence is a
// bug in the optimized structure (or a silent behavior change).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/freq.h"
#include "core/req_block_policy.h"
#include "util/check.h"
#include "util/types.h"

namespace reqblock::testing {

/// Reference LRU: a vector ordered oldest-access-first. O(n) per op.
class ReferenceLru {
 public:
  void insert(Lpn lpn) {
    REQB_CHECK(!contains(lpn));
    order_.push_back(lpn);
  }

  void hit(Lpn lpn) {
    const auto it = std::find(order_.begin(), order_.end(), lpn);
    REQB_CHECK(it != order_.end());
    order_.erase(it);
    order_.push_back(lpn);  // most recent at the back
  }

  /// Evicts and returns the least recently used page.
  Lpn victim() {
    REQB_CHECK(!order_.empty());
    const Lpn v = order_.front();
    order_.erase(order_.begin());
    return v;
  }

  bool contains(Lpn lpn) const {
    return std::find(order_.begin(), order_.end(), lpn) != order_.end();
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::vector<Lpn> order_;
};

/// Reference FIFO: insertion order only; hits change nothing.
class ReferenceFifo {
 public:
  void insert(Lpn lpn) {
    REQB_CHECK(!contains(lpn));
    order_.push_back(lpn);
  }

  void hit(Lpn lpn) { REQB_CHECK(contains(lpn)); }

  Lpn victim() {
    REQB_CHECK(!order_.empty());
    const Lpn v = order_.front();
    order_.erase(order_.begin());
    return v;
  }

  bool contains(Lpn lpn) const {
    return std::find(order_.begin(), order_.end(), lpn) != order_.end();
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::vector<Lpn> order_;
};

/// Reference LFU with LRU tie-breaking inside a frequency class: pages kept
/// in access order (least recent first within equal counts via stable
/// scanning).
class ReferenceLfu {
 public:
  void insert(Lpn lpn) {
    REQB_CHECK(!contains(lpn));
    entries_.push_back({lpn, 1, clock_++});
  }

  void hit(Lpn lpn) {
    Entry* e = find(lpn);
    REQB_CHECK(e != nullptr);
    ++e->freq;
    e->last_access = clock_++;
  }

  /// Evicts the page with the lowest frequency; among ties, the least
  /// recently accessed (matching the real policy's in-class LRU order).
  Lpn victim() {
    REQB_CHECK(!entries_.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      const Entry& cand = entries_[i];
      const Entry& cur = entries_[best];
      if (cand.freq < cur.freq ||
          (cand.freq == cur.freq && cand.last_access < cur.last_access)) {
        best = i;
      }
    }
    const Lpn v = entries_[best].lpn;
    entries_.erase(entries_.begin() +
                   static_cast<std::ptrdiff_t>(best));
    return v;
  }

  bool contains(Lpn lpn) const {
    return const_cast<ReferenceLfu*>(this)->find(lpn) != nullptr;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Lpn lpn;
    std::uint64_t freq;
    std::uint64_t last_access;
  };

  Entry* find(Lpn lpn) {
    for (Entry& e : entries_) {
      if (e.lpn == lpn) return &e;
    }
    return nullptr;
  }

  std::uint64_t clock_ = 0;
  std::vector<Entry> entries_;
};

/// Brute-force Eq. 1 victim selection replicating the paper's get_victim():
/// walk each list from the tail past guarded blocks, score the three
/// candidates with req_block_freq at the policy's current tick, and take
/// the strict minimum in the deterministic tie-break order IRL, DRL, SRL.
/// Returns nullptr when nothing is evictable.
inline const ReqBlock* brute_force_victim(const ReqBlockPolicy& policy) {
  const ReqList order[] = {ReqList::kIRL, ReqList::kDRL, ReqList::kSRL};
  const ReqBlock* victim = nullptr;
  double best = std::numeric_limits<double>::infinity();
  for (const ReqList level : order) {
    const ReqBlock* cand = policy.tail_of(level);
    while (cand != nullptr && policy.is_guarded(cand)) {
      cand = policy.prev_in_list(cand);
    }
    if (cand == nullptr) continue;
    const double f =
        req_block_freq(*cand, policy.now(), policy.options().freq_mode);
    if (f < best) {
      best = f;
      victim = cand;
    }
  }
  return victim;
}

/// The page set Req-block must evict for `victim`, including the
/// downgraded-merge origin (Fig. 6) when the policy would drag it along.
/// Call BEFORE select_victim; returns the expected batch, sorted.
inline std::vector<Lpn> expected_victim_pages(const ReqBlockPolicy& policy,
                                              const ReqBlock* victim) {
  std::vector<Lpn> pages;
  if (victim == nullptr) return pages;
  for (const SlotPage& p : victim->pages) pages.push_back(p.lpn);
  if (policy.options().merge_on_evict && victim->origin_id != 0) {
    // The origin is merged only if it still exists, still sits in IRL, and
    // is not shielded by the in-flight request.
    const ReqBlock* origin = nullptr;
    for (const ReqBlock* b = policy.tail_of(ReqList::kIRL); b != nullptr;
         b = policy.prev_in_list(b)) {
      if (b->block_id == victim->origin_id) {
        origin = b;
        break;
      }
    }
    if (origin != nullptr && !policy.is_guarded(origin)) {
      for (const SlotPage& p : origin->pages) pages.push_back(p.lpn);
    }
  }
  std::sort(pages.begin(), pages.end());
  return pages;
}

}  // namespace reqblock::testing
