#include "cache/fab.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

FabPolicy::FabPolicy(std::uint32_t pages_per_block)
    : pages_per_block_(pages_per_block) {
  REQB_CHECK_MSG(pages_per_block_ >= 1, "block must hold pages");
}

FabPolicy::Group* FabPolicy::add_group(Lpn block_id) {
  Group* g = pool_.acquire();
  g->block_id = block_id;
  groups_.try_emplace(block_id, g);
  heap_.push_back(g);
  g->heap_pos = heap_.size() - 1;
  return g;
}

void FabPolicy::sift_up(std::size_t pos) {
  Group* g = heap_[pos];
  while (pos > 0 && before(g, heap_[(pos - 1) / 2])) {
    place(pos, heap_[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  place(pos, g);
}

void FabPolicy::sift_down(std::size_t pos) {
  Group* g = heap_[pos];
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!before(heap_[child], g)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, g);
}

void FabPolicy::on_hit(Lpn lpn, Slot, const IoRequest&, bool) {
  // FAB considers only group size; hits change nothing.
  (void)lpn;
  REQB_DCHECK(groups_.contains(block_of(lpn)));
}

void FabPolicy::on_insert(Lpn lpn, Slot slot, const IoRequest&, bool) {
  Group* const* found = groups_.find(block_of(lpn));
  Group* g = found != nullptr ? *found : add_group(block_of(lpn));
  g->pages.push_back({static_cast<std::uint32_t>(lpn), slot});
  ++total_pages_;
  sift_up(g->heap_pos);  // a larger group only moves toward the top
}

void FabPolicy::select_victim(VictimBatch& batch) {
  if (heap_.empty()) return;
  Group* victim = heap_.front();
  for (const SlotPage& p : victim->pages) batch.pages.push_back(p.lpn);
  total_pages_ -= victim->pages.size();
  victim->pages.clear();
  groups_.erase(victim->block_id);
  pool_.release(victim);
  Group* last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(0, last);
    sift_down(0);
  }
}

std::size_t FabPolicy::group_size(Lpn block_id) const {
  Group* const* found = groups_.find(block_id);
  return found == nullptr ? 0 : (*found)->pages.size();
}

void FabPolicy::audit(AuditReport& report) const {
  REQB_AUDIT_MSG(report, heap_.size() == groups_.size(),
                 "heap holds " + std::to_string(heap_.size()) +
                     " groups, table holds " + std::to_string(groups_.size()));
  std::size_t pages = 0;
  for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
    const Group* g = heap_[pos];
    const std::string tag = "block " + std::to_string(g->block_id);
    pages += g->pages.size();
    Group* const* found = groups_.find(g->block_id);
    REQB_AUDIT_MSG(report, found != nullptr && *found == g,
                   tag + " on the heap but not in the group table");
    REQB_AUDIT_MSG(report, g->heap_pos == pos,
                   tag + " at heap position " + std::to_string(pos) +
                       " records " + std::to_string(g->heap_pos));
    REQB_AUDIT_MSG(report, pos == 0 || !before(g, heap_[(pos - 1) / 2]),
                   tag + " outranks its heap parent");
    REQB_AUDIT_MSG(report, !g->pages.empty(), "empty group for " + tag);
    for (const SlotPage& p : g->pages) {
      REQB_AUDIT_MSG(report, block_of(p.lpn) == g->block_id,
                     "page " + std::to_string(p.lpn) + " filed under " + tag +
                         " but belongs to block " +
                         std::to_string(block_of(p.lpn)));
    }
  }
  REQB_AUDIT_MSG(report, pages == total_pages_,
                 "groups hold " + std::to_string(pages) +
                     " pages, counter says " + std::to_string(total_pages_));
}

bool FabPolicy::enumerate_pages(
    const std::function<void(Lpn, Slot)>& fn) const {
  for (const Group* g : heap_) {
    for (const SlotPage& p : g->pages) fn(p.lpn, p.slot);
  }
  return true;
}

void FabPolicy::serialize(SnapshotWriter& w) const {
  w.tag("fab");
  // Groups sorted by block id for byte determinism; the heap is derived
  // state and rebuilt on restore. Page order inside a group is preserved
  // (it is the flush order of the victim batch).
  std::vector<const Group*> sorted(heap_.begin(), heap_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Group* a, const Group* b) {
              return a->block_id < b->block_id;
            });
  w.u64(sorted.size());
  for (const Group* g : sorted) {
    w.u64(g->block_id);
    w.u64(g->pages.size());
    for (const SlotPage& p : g->pages) w.u64(p.lpn);
  }
}

void FabPolicy::deserialize(SnapshotReader& r, const SlotOf& slot_of) {
  r.tag("fab");
  REQB_CHECK_MSG(heap_.empty(), "deserialize into a non-fresh FAB policy");
  const std::uint64_t group_count = r.u64();
  for (std::uint64_t gi = 0; gi < group_count; ++gi) {
    const Lpn block_id = r.u64();
    const std::uint64_t pages = r.count(8);
    if (pages == 0) throw SnapshotError("FAB snapshot has an empty group");
    if (block_id >= kLpnBound || groups_.contains(block_id)) {
      throw SnapshotError("FAB snapshot repeats a block or names one "
                          "beyond the LPN bound");
    }
    Group* g = add_group(block_id);
    g->pages.reserve(pages);
    for (std::uint64_t i = 0; i < pages; ++i) {
      const Lpn lpn = r.u64();
      g->pages.push_back({static_cast<std::uint32_t>(lpn), slot_of(lpn)});
    }
    total_pages_ += pages;
    sift_up(g->heap_pos);
  }
}

}  // namespace reqblock
