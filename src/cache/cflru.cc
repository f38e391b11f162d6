#include "cache/cflru.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

CflruPolicy::CflruPolicy(std::uint64_t capacity_pages,
                         double window_fraction) {
  REQB_CHECK_MSG(window_fraction >= 0.0 && window_fraction <= 1.0,
                 "CFLRU window fraction must be in [0,1]");
  window_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(capacity_pages) *
                                  window_fraction));
}

void CflruPolicy::on_hit(Lpn lpn, const IoRequest&, bool is_write) {
  const auto it = nodes_.find(lpn);
  REQB_CHECK_MSG(it != nodes_.end(), "CFLRU hit on untracked page");
  if (is_write && !it->second.dirty) {
    it->second.dirty = true;
    --clean_pages_;
  }
  list_.move_to_front(&it->second);
}

void CflruPolicy::on_insert(Lpn lpn, const IoRequest&, bool is_write) {
  auto [it, inserted] = nodes_.try_emplace(lpn);
  REQB_CHECK_MSG(inserted, "CFLRU double insert");
  it->second.lpn = lpn;
  it->second.dirty = is_write;
  if (!is_write) ++clean_pages_;
  list_.push_front(&it->second);
}

VictimBatch CflruPolicy::select_victim() {
  VictimBatch batch;
  if (list_.empty()) return batch;
  // Scan the clean-first window from the LRU end for a clean page (none
  // can be there when no page is clean).
  Node* candidate = list_.tail();
  std::size_t scanned = 0;
  for (Node* n = candidate; clean_pages_ > 0 && n != nullptr &&
                            scanned < window_;
       n = list_.prev(n), ++scanned) {
    if (!n->dirty) {
      candidate = n;
      break;
    }
  }
  // Fall back to the plain LRU tail when the window holds no clean page.
  if (candidate->dirty) candidate = list_.tail();
  if (!candidate->dirty) --clean_pages_;
  batch.pages.push_back(candidate->lpn);
  list_.erase(candidate);
  nodes_.erase(candidate->lpn);
  return batch;
}

void CflruPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, window_ >= 1);
  REQB_AUDIT(report, list_.validate());
  REQB_AUDIT_MSG(report, list_.size() == nodes_.size(),
                 "list holds " + std::to_string(list_.size()) +
                     " nodes, index holds " + std::to_string(nodes_.size()));
  std::size_t clean = 0;
  for (const auto& [lpn, node] : nodes_) {
    if (!node.dirty) ++clean;
    REQB_AUDIT_MSG(report, node.lpn == lpn,
                   "index key " + std::to_string(lpn) + " maps to node lpn " +
                       std::to_string(node.lpn));
    REQB_AUDIT_MSG(report, node.hook.linked(),
                   "page " + std::to_string(lpn) + " indexed but unlinked");
  }
  REQB_AUDIT_MSG(report, clean == clean_pages_,
                 "clean-page count " + std::to_string(clean_pages_) +
                     " disagrees with recount " + std::to_string(clean));
}

bool CflruPolicy::enumerate_pages(const std::function<void(Lpn)>& fn) const {
  for (const auto& [lpn, node] : nodes_) fn(lpn);
  return true;
}

void CflruPolicy::serialize(SnapshotWriter& w) const {
  w.tag("cflru");
  w.u64(nodes_.size());
  list_.for_each([&](const Node* n) {
    w.u64(n->lpn);
    w.b(n->dirty);
  });
}

void CflruPolicy::deserialize(SnapshotReader& r) {
  r.tag("cflru");
  REQB_CHECK_MSG(nodes_.empty(), "deserialize into a non-fresh CFLRU policy");
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Lpn lpn = r.u64();
    const bool dirty = r.b();
    auto [it, inserted] = nodes_.try_emplace(lpn);
    if (!inserted) throw SnapshotError("CFLRU snapshot repeats a page");
    it->second.lpn = lpn;
    it->second.dirty = dirty;
    if (!dirty) ++clean_pages_;
    list_.push_back(&it->second);
  }
}

}  // namespace reqblock
