#include "cache/lfu.h"

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

LfuPolicy::LfuPolicy(std::uint64_t capacity_pages) : nodes_(capacity_pages) {}

LfuPolicy::FreqClass* LfuPolicy::add_class(std::uint64_t freq,
                                           FreqClass* pos) {
  FreqClass* cls = pool_.acquire();
  cls->freq = freq;
  if (pos == nullptr) {
    classes_.push_front(cls);
  } else {
    classes_.insert_after(pos, cls);
  }
  return cls;
}

void LfuPolicy::unlink(Node& node) {
  FreqClass* cls = node.cls;
  cls->pages.erase(&node);
  node.cls = nullptr;
  if (cls->pages.empty()) {
    classes_.erase(cls);
    pool_.release(cls);
  }
}

void LfuPolicy::on_hit(Lpn lpn, Slot slot, const IoRequest&, bool) {
  REQB_CHECK_MSG(slot < nodes_.size() && nodes_[slot].cls != nullptr &&
                     nodes_[slot].lpn == lpn,
                 "LFU hit on untracked page");
  Node& node = nodes_[slot];
  FreqClass* from = node.cls;
  FreqClass* to = classes_.next(from);
  if (to == nullptr || to->freq != from->freq + 1) {
    to = add_class(from->freq + 1, from);
  }
  unlink(node);
  to->pages.push_front(&node);
  node.cls = to;
}

void LfuPolicy::on_insert(Lpn lpn, Slot slot, const IoRequest&, bool) {
  REQB_CHECK_MSG(slot < nodes_.size() && nodes_[slot].cls == nullptr,
                 "LFU double insert");
  FreqClass* ones = classes_.head();
  if (ones == nullptr || ones->freq != 1) ones = add_class(1, nullptr);
  Node& node = nodes_[slot];
  node.lpn = lpn;
  node.cls = ones;
  ones->pages.push_front(&node);
  ++pages_;
}

void LfuPolicy::select_victim(VictimBatch& batch) {
  const FreqClass* lowest = classes_.head();
  if (lowest == nullptr) return;
  Node* victim = lowest->pages.tail();  // least recent in class
  batch.pages.push_back(victim->lpn);
  unlink(*victim);
  --pages_;
}

std::uint64_t LfuPolicy::frequency_of(Lpn lpn) const {
  for (const Node& node : nodes_) {
    if (node.cls != nullptr && node.lpn == lpn) return node.cls->freq;
  }
  return 0;
}

void LfuPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, classes_.validate());
  std::size_t listed = 0;
  std::uint64_t prev_freq = 0;
  classes_.for_each([&](const FreqClass* cls) {
    REQB_AUDIT_MSG(report, cls->freq > prev_freq,
                   "frequency class " + std::to_string(cls->freq) +
                       " follows class " + std::to_string(prev_freq));
    REQB_AUDIT_MSG(report, !cls->pages.empty() && cls->pages.validate(),
                   "empty or corrupt frequency class " +
                       std::to_string(cls->freq));
    prev_freq = cls->freq;
    cls->pages.for_each([&](const Node* n) {
      ++listed;
      REQB_AUDIT_MSG(report, n->cls == cls,
                     "page " + std::to_string(n->lpn) + " listed in class " +
                         std::to_string(cls->freq) + " but points elsewhere");
    });
  });
  std::size_t tracked = 0;
  for (const Node& node : nodes_) tracked += node.cls != nullptr ? 1 : 0;
  REQB_AUDIT_MSG(report, listed == pages_ && tracked == pages_,
                 "classes list " + std::to_string(listed) + " pages, slots " +
                     "track " + std::to_string(tracked) + ", counter says " +
                     std::to_string(pages_));
}

bool LfuPolicy::enumerate_pages(
    const std::function<void(Lpn, Slot)>& fn) const {
  classes_.for_each([&](const FreqClass* cls) {
    cls->pages.for_each([&](const Node* n) {
      fn(n->lpn, static_cast<Slot>(n - nodes_.data()));
    });
  });
  return true;
}

void LfuPolicy::serialize(SnapshotWriter& w) const {
  w.tag("lfu");
  // Frequency classes in ascending order, each front-to-back (MRU first).
  w.u64(classes_.size());
  classes_.for_each([&](const FreqClass* cls) {
    w.u64(cls->freq);
    w.u64(cls->pages.size());
    cls->pages.for_each([&](const Node* n) { w.u64(n->lpn); });
  });
}

void LfuPolicy::deserialize(SnapshotReader& r, const SlotOf& slot_of) {
  r.tag("lfu");
  REQB_CHECK_MSG(pages_ == 0, "deserialize into a non-fresh LFU policy");
  const std::uint64_t classes = r.u64();
  FreqClass* last = nullptr;
  for (std::uint64_t c = 0; c < classes; ++c) {
    const std::uint64_t freq = r.u64();
    const std::uint64_t pages = r.u64();
    if (freq < 1 || pages == 0 || (last != nullptr && freq <= last->freq)) {
      throw SnapshotError("LFU snapshot has an invalid frequency class");
    }
    last = add_class(freq, last);
    for (std::uint64_t i = 0; i < pages; ++i) {
      const Lpn lpn = r.u64();
      Node& node = nodes_.at(slot_of(lpn));
      if (node.cls != nullptr) {
        throw SnapshotError("LFU snapshot repeats a page");
      }
      node.lpn = lpn;
      node.cls = last;
      last->pages.push_back(&node);
      ++pages_;
    }
  }
}

}  // namespace reqblock
