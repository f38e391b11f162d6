#include "cache/vbbms.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

VbbmsPolicy::VbbmsPolicy(std::uint64_t capacity_pages, VbbmsOptions options)
    : opt_(options) {
  REQB_CHECK_MSG(opt_.random_fraction > 0.0 && opt_.random_fraction < 1.0,
                 "random fraction must be in (0,1)");
  REQB_CHECK_MSG(opt_.random_vb_pages >= 1 && opt_.seq_vb_pages >= 1,
                 "virtual blocks must hold pages");
  random_quota_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(capacity_pages) *
                                    opt_.random_fraction));
  seq_quota_ = std::max<std::uint64_t>(1, capacity_pages - random_quota_);
  random_.vb_pages = opt_.random_vb_pages;
  seq_.vb_pages = opt_.seq_vb_pages;
  page_is_seq_.resize(capacity_pages);
}

VbbmsPolicy::VBlock* VbbmsPolicy::vblock_for(Region& region, Lpn lpn,
                                              bool& created) {
  const std::uint64_t vb_id = lpn / region.vb_pages;
  VBlock* const* found = region.vbs.find(vb_id);
  created = found == nullptr;
  if (!created) return *found;
  VBlock* vb = pool_.acquire();
  vb->vb_id = vb_id;
  region.vbs.try_emplace(vb_id, vb);
  region.list.push_front(vb);
  return vb;
}

void VbbmsPolicy::on_hit(Lpn lpn, Slot slot, const IoRequest&, bool) {
  REQB_CHECK_MSG(slot < page_is_seq_.size(), "VBBMS hit on an unknown slot");
  if (page_is_seq_[slot]) return;  // FIFO region: recency is ignored
  VBlock* const* vb = random_.vbs.find(lpn / random_.vb_pages);
  REQB_CHECK_MSG(vb != nullptr, "VBBMS hit on untracked page");
  random_.list.move_to_front(*vb);
}

void VbbmsPolicy::on_insert(Lpn lpn, Slot slot, const IoRequest& req, bool) {
  REQB_CHECK_MSG(slot < page_is_seq_.size(),
                 "VBBMS insert into an unknown slot");
  const bool seq = req.pages >= opt_.seq_request_threshold;
  page_is_seq_[slot] = seq;
  Region& region = seq ? seq_ : random_;
  bool created = false;
  VBlock* vb = vblock_for(region, lpn, created);
  // The random region is an LRU over vblocks; the sequential one a FIFO.
  if (!seq && !created) region.list.move_to_front(vb);
  vb->pages.push_back({static_cast<std::uint32_t>(lpn), slot});
  ++region.pages;
}

void VbbmsPolicy::evict_from(Region& region, VictimBatch& batch) {
  VBlock* victim = region.list.pop_back();  // LRU / FIFO: oldest out
  if (victim == nullptr) return;
  for (const SlotPage& p : victim->pages) batch.pages.push_back(p.lpn);
  region.pages -= victim->pages.size();
  victim->pages.clear();
  region.vbs.erase(victim->vb_id);
  pool_.release(victim);
}

void VbbmsPolicy::select_victim(VictimBatch& batch) {
  // Evict from the region that overflows its share the most; fall back to
  // whichever region actually holds pages.
  const double random_load =
      static_cast<double>(random_.pages) / static_cast<double>(random_quota_);
  const double seq_load =
      static_cast<double>(seq_.pages) / static_cast<double>(seq_quota_);
  Region& first = seq_load >= random_load ? seq_ : random_;
  evict_from(first, batch);
  if (batch.empty()) evict_from(&first == &seq_ ? random_ : seq_, batch);
}

void VbbmsPolicy::audit(AuditReport& report) const {
  const auto walk = [&](const Region& region, bool expect_seq,
                        const std::string& name) {
    REQB_AUDIT(report, region.list.validate());
    REQB_AUDIT_MSG(report, region.list.size() == region.vbs.size(),
                   name + " list links " +
                       std::to_string(region.list.size()) +
                       " vblocks, table holds " +
                       std::to_string(region.vbs.size()));
    std::size_t pages = 0;
    region.list.for_each([&](const VBlock* vb) {
      const std::string tag = name + " vblock " + std::to_string(vb->vb_id);
      pages += vb->pages.size();
      VBlock* const* found = region.vbs.find(vb->vb_id);
      REQB_AUDIT_MSG(report, found != nullptr && *found == vb,
                     tag + " listed but not in its table");
      REQB_AUDIT_MSG(report, !vb->pages.empty(), tag + " is empty");
      for (const SlotPage& p : vb->pages) {
        REQB_AUDIT_MSG(report, p.lpn / region.vb_pages == vb->vb_id,
                       "page " + std::to_string(p.lpn) + " filed under " +
                           tag);
        REQB_AUDIT_MSG(report,
                       p.slot < page_is_seq_.size() &&
                           page_is_seq_[p.slot] == expect_seq,
                       "page " + std::to_string(p.lpn) +
                           " region bit disagrees with its " + tag);
      }
    });
    REQB_AUDIT_MSG(report, pages == region.pages,
                   name + " region holds " + std::to_string(pages) +
                       " pages, counter says " +
                       std::to_string(region.pages));
  };
  walk(random_, false, "random");
  walk(seq_, true, "sequential");
}

bool VbbmsPolicy::enumerate_pages(
    const std::function<void(Lpn, Slot)>& fn) const {
  for (const Region* region : {&random_, &seq_}) {
    region->list.for_each([&](const VBlock* vb) {
      for (const SlotPage& p : vb->pages) fn(p.lpn, p.slot);
    });
  }
  return true;
}

void VbbmsPolicy::serialize(SnapshotWriter& w) const {
  w.tag("vbbms");
  // Each region is fully described by its list order plus per-vblock page
  // vectors; the region bits and the page counters are derived.
  for (const Region* region : {&random_, &seq_}) {
    w.u64(region->vbs.size());
    region->list.for_each([&](const VBlock* vb) {
      w.u64(vb->vb_id);
      w.u64(vb->pages.size());
      for (const SlotPage& p : vb->pages) w.u64(p.lpn);
    });
  }
}

void VbbmsPolicy::deserialize(SnapshotReader& r, const SlotOf& slot_of) {
  r.tag("vbbms");
  REQB_CHECK_MSG(pages() == 0, "deserialize into a non-fresh VBBMS policy");
  for (Region* region : {&random_, &seq_}) {
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t vb_id = r.u64();
      if (vb_id >= kLpnBound || region->vbs.contains(vb_id)) {
        throw SnapshotError("VBBMS snapshot repeats a virtual block or "
                            "names one beyond the LPN bound");
      }
      VBlock* vb = pool_.acquire();
      vb->vb_id = vb_id;
      region->vbs.try_emplace(vb_id, vb);
      region->list.push_back(vb);
      const std::uint64_t pages = r.count(8);
      if (pages == 0) {
        throw SnapshotError("VBBMS snapshot has an empty virtual block");
      }
      vb->pages.reserve(pages);
      for (std::uint64_t p = 0; p < pages; ++p) {
        const Lpn lpn = r.u64();
        const Slot slot = slot_of(lpn);
        page_is_seq_.at(slot) = region == &seq_;
        vb->pages.push_back({static_cast<std::uint32_t>(lpn), slot});
      }
      region->pages += pages;
    }
  }
}

}  // namespace reqblock
