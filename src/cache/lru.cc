#include "cache/lru.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

PageListPolicy::PageListPolicy(std::uint64_t capacity_pages,
                               bool promote_on_hit,
                               std::size_t clean_first_window)
    : promote_(promote_on_hit || clean_first_window > 0),
      window_(clean_first_window),
      nodes_(capacity_pages) {}

std::size_t PageListPolicy::clean_first_window(std::uint64_t capacity_pages,
                                               double fraction) {
  REQB_CHECK_MSG(fraction >= 0.0 && fraction <= 1.0,
                 "CFLRU window fraction must be in [0,1]");
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(capacity_pages) *
                                  fraction));
}

void PageListPolicy::on_hit(Lpn lpn, Slot slot, const IoRequest&,
                            bool is_write) {
  REQB_CHECK_MSG(slot < nodes_.size() && nodes_[slot].hook.linked() &&
                     nodes_[slot].lpn == lpn,
                 name() + " hit on untracked page");
  Node& node = nodes_[slot];
  if (is_write && !node.dirty) {
    node.dirty = true;
    --clean_pages_;
  }
  if (promote_) list_.move_to_front(&node);
}

void PageListPolicy::on_insert(Lpn lpn, Slot slot, const IoRequest&,
                               bool is_write) {
  REQB_CHECK_MSG(slot < nodes_.size() && !nodes_[slot].hook.linked(),
                 name() + " double insert");
  Node& node = nodes_[slot];
  node.lpn = lpn;
  node.dirty = is_write || window_ == 0;
  if (!node.dirty) ++clean_pages_;
  list_.push_front(&node);
}

void PageListPolicy::select_victim(VictimBatch& batch) {
  Node* victim = list_.tail();
  if (victim == nullptr) return;
  // CFLRU: scan the clean-first window from the LRU end for a clean page
  // (none can be there when no page is clean); else the LRU tail goes.
  std::size_t scanned = 0;
  for (Node* n = victim; clean_pages_ > 0 && n != nullptr && scanned < window_;
       n = list_.prev(n), ++scanned) {
    if (!n->dirty) {
      victim = n;
      break;
    }
  }
  if (!victim->dirty) --clean_pages_;
  batch.pages.push_back(victim->lpn);
  list_.erase(victim);
}

void PageListPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, list_.validate());
  std::size_t linked = 0;
  std::size_t clean = 0;
  for (const Node& node : nodes_) {
    if (!node.hook.linked()) continue;
    ++linked;
    if (!node.dirty) ++clean;
  }
  REQB_AUDIT_MSG(report, linked == list_.size(),
                 "list holds " + std::to_string(list_.size()) +
                     " nodes, slots link " + std::to_string(linked));
  REQB_AUDIT_MSG(report, clean == clean_pages_ && (window_ > 0 || clean == 0),
                 "clean-page count " + std::to_string(clean_pages_) +
                     " disagrees with recount " + std::to_string(clean));
}

bool PageListPolicy::enumerate_pages(
    const std::function<void(Lpn, Slot)>& fn) const {
  list_.for_each([&](const Node* n) {
    fn(n->lpn, static_cast<Slot>(n - nodes_.data()));
  });
  return true;
}

void PageListPolicy::serialize(SnapshotWriter& w) const {
  w.tag(tag());
  w.u64(list_.size());
  // Head-to-tail list order (plus CFLRU's dirty flags) is the entire
  // replacement state.
  list_.for_each([&](const Node* n) {
    w.u64(n->lpn);
    if (window_ > 0) w.b(n->dirty);
  });
}

void PageListPolicy::deserialize(SnapshotReader& r, const SlotOf& slot_of) {
  r.tag(tag());
  REQB_CHECK_MSG(list_.empty(), "deserialize into a non-fresh " + name() +
                                    " policy");
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Lpn lpn = r.u64();
    const bool dirty = window_ > 0 ? r.b() : true;
    Node& node = nodes_.at(slot_of(lpn));
    if (node.hook.linked()) {
      throw SnapshotError(name() + " snapshot repeats a page");
    }
    node.lpn = lpn;
    node.dirty = dirty;
    if (!dirty) ++clean_pages_;
    list_.push_back(&node);
  }
}

}  // namespace reqblock
