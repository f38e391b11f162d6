#include "cache/bplru.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

BplruPolicy::BplruPolicy(std::uint32_t pages_per_block, BplruOptions options)
    : pages_per_block_(pages_per_block), options_(options) {
  REQB_CHECK_MSG(pages_per_block_ >= 1, "block must hold pages");
}

BplruPolicy::Block* BplruPolicy::acquire_block(Lpn id) {
  Block* b = pool_.acquire();
  std::vector<SlotPage> pages = std::move(b->pages);
  *b = Block{};
  b->pages = std::move(pages);
  b->block_id = id;
  blocks_.try_emplace(id, b);
  return b;
}

void BplruPolicy::on_hit(Lpn lpn, Slot, const IoRequest&, bool is_write) {
  Block* const* found = blocks_.find(block_of(lpn));
  REQB_CHECK_MSG(found != nullptr, "BPLRU hit on untracked page");
  Block& b = **found;
  if (is_write) {
    // A rewrite contradicts the "sequential data won't return" heuristic.
    b.sequential = false;
  }
  b.demoted = false;
  lru_.move_to_front(&b);
}

void BplruPolicy::on_insert(Lpn lpn, Slot slot, const IoRequest&, bool) {
  const Lpn id = block_of(lpn);
  // Writes cluster: the LRU head is the likeliest block, checked without
  // a probe.
  Block* b = lru_.head();
  if (b == nullptr || b->block_id != id) {
    Block* const* found = blocks_.find(id);
    if (found != nullptr) {
      b = *found;
    } else {
      b = acquire_block(id);
      lru_.push_front(b);
    }
  }
  b->pages.push_back({static_cast<std::uint32_t>(lpn), slot});
  ++total_pages_;

  const auto offset = static_cast<std::uint32_t>(lpn % pages_per_block_);
  if (b->sequential && offset == b->next_seq_offset) {
    ++b->next_seq_offset;
  } else {
    b->sequential = false;
  }
  if (b->sequential && b->next_seq_offset == pages_per_block_) {
    // LRU compensation: a fully sequentially written block goes straight
    // to the eviction end.
    b->demoted = true;
    lru_.move_to_back(b);
  } else {
    b->demoted = false;
    if (lru_.head() != b) lru_.move_to_front(b);
  }
}

void BplruPolicy::select_victim(VictimBatch& batch) {
  Block* victim = lru_.pop_back();
  if (victim == nullptr) return;
  for (const SlotPage& p : victim->pages) batch.pages.push_back(p.lpn);
  batch.colocate = true;
  if (options_.page_padding) {
    // Page padding: request the block's other pages; the manager reads the
    // ones that exist on flash and rewrites the whole block together.
    const Lpn first = victim->block_id * pages_per_block_;
    padding_cached_.assign(pages_per_block_, false);
    for (const SlotPage& p : victim->pages) {
      padding_cached_[p.lpn - first] = true;
    }
    for (std::uint32_t i = 0; i < pages_per_block_; ++i) {
      if (!padding_cached_[i]) batch.padding_reads.push_back(first + i);
    }
  }
  total_pages_ -= victim->pages.size();
  victim->pages.clear();
  blocks_.erase(victim->block_id);
  pool_.release(victim);
}

bool BplruPolicy::is_sequential_demoted(Lpn block_id) const {
  Block* const* found = blocks_.find(block_id);
  return found != nullptr && (*found)->demoted;
}

void BplruPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, lru_.validate());
  REQB_AUDIT_MSG(report, lru_.size() == blocks_.size(),
                 "LRU lists " + std::to_string(lru_.size()) +
                     " blocks, table holds " + std::to_string(blocks_.size()));
  std::size_t pages = 0;
  blocks_.for_each([&](Lpn block_id, const Block* b) {
    pages += b->pages.size();
    REQB_AUDIT_MSG(report, b->block_id == block_id,
                   "table key " + std::to_string(block_id) +
                       " holds block id " + std::to_string(b->block_id));
    REQB_AUDIT_MSG(report, b->hook.linked(),
                   "block " + std::to_string(block_id) + " not on the LRU");
    REQB_AUDIT_MSG(report, !b->pages.empty(),
                   "empty block " + std::to_string(block_id));
    REQB_AUDIT_MSG(report,
                   b->pages.size() <= pages_per_block_ &&
                       b->next_seq_offset <= pages_per_block_,
                   "block " + std::to_string(block_id) + " holds " +
                       std::to_string(b->pages.size()) + " pages, seq offset " +
                       std::to_string(b->next_seq_offset));
    REQB_AUDIT_MSG(
        report,
        !b->demoted ||
            (b->sequential && b->next_seq_offset == pages_per_block_),
        "block " + std::to_string(block_id) +
            " demoted without a complete sequential write");
    std::vector<std::uint32_t> sorted;
    for (const SlotPage& p : b->pages) {
      sorted.push_back(p.lpn);
      REQB_AUDIT_MSG(report, block_of(p.lpn) == block_id,
                     "page " + std::to_string(p.lpn) + " filed under block " +
                         std::to_string(block_id) + " but belongs to " +
                         std::to_string(block_of(p.lpn)));
    }
    std::sort(sorted.begin(), sorted.end());
    REQB_AUDIT_MSG(report,
                   std::adjacent_find(sorted.begin(), sorted.end()) ==
                       sorted.end(),
                   "duplicate page in block " + std::to_string(block_id));
  });
  REQB_AUDIT_MSG(report, pages == total_pages_,
                 "blocks hold " + std::to_string(pages) +
                     " pages, counter says " + std::to_string(total_pages_));
}

bool BplruPolicy::enumerate_pages(
    const std::function<void(Lpn, Slot)>& fn) const {
  lru_.for_each([&](const Block* b) {
    for (const SlotPage& p : b->pages) fn(p.lpn, p.slot);
  });
  return true;
}

void BplruPolicy::serialize(SnapshotWriter& w) const {
  w.tag("bplru");
  w.u64(blocks_.size());
  lru_.for_each([&](const Block* b) {
    w.u64(b->block_id);
    w.u32(b->next_seq_offset);
    w.b(b->sequential);
    w.b(b->demoted);
    w.u64(b->pages.size());
    for (const SlotPage& p : b->pages) w.u64(p.lpn);
  });
}

void BplruPolicy::deserialize(SnapshotReader& r, const SlotOf& slot_of) {
  r.tag("bplru");
  REQB_CHECK_MSG(blocks_.size() == 0,
                 "deserialize into a non-fresh BPLRU policy");
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Lpn block_id = r.u64();
    if (block_id >= kLpnBound || blocks_.contains(block_id)) {
      throw SnapshotError("BPLRU snapshot repeats a block or names one "
                          "beyond the LPN bound");
    }
    Block& b = *acquire_block(block_id);
    b.next_seq_offset = r.u32();
    b.sequential = r.b();
    b.demoted = r.b();
    const std::uint64_t pages = r.count(8);
    if (pages == 0) throw SnapshotError("BPLRU snapshot has an empty block");
    b.pages.reserve(pages);
    for (std::uint64_t p = 0; p < pages; ++p) {
      const Lpn lpn = r.u64();
      b.pages.push_back({static_cast<std::uint32_t>(lpn), slot_of(lpn)});
    }
    total_pages_ += pages;
    lru_.push_back(&b);
  }
}

}  // namespace reqblock
