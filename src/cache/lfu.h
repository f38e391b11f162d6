// Page-granularity LFU with LRU tie-breaking inside each frequency class
// (the classic O(1) frequency-list structure: classes on a list in
// ascending frequency, each holding its pages most-recent first).
#pragma once

#include <vector>

#include "cache/write_buffer.h"
#include "util/intrusive_list.h"
#include "util/node_pool.h"

namespace reqblock {

class LfuPolicy final : public WriteBufferPolicy {
 public:
  explicit LfuPolicy(std::uint64_t capacity_pages);

  std::string name() const override { return "LFU"; }

  void on_hit(Lpn lpn, Slot slot, const IoRequest& req,
              bool is_write) override;
  void on_insert(Lpn lpn, Slot slot, const IoRequest& req,
                 bool is_write) override;
  void select_victim(VictimBatch& batch) override;
  std::size_t pages() const override { return pages_; }
  std::size_t metadata_bytes() const override {
    // Page node (12 B) plus a frequency counter (4 B) per page.
    return pages_ * 16;
  }

  /// Access count of a cached page (0 if untracked); O(pages), for tests.
  std::uint64_t frequency_of(Lpn lpn) const;

  void audit(AuditReport& report) const override;
  bool enumerate_pages(
      const std::function<void(Lpn, Slot)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r, const SlotOf& slot_of) override;

 private:
  struct FreqClass;
  struct Node {
    Lpn lpn = kInvalidLpn;
    FreqClass* cls = nullptr;  // non-null while the slot is tracked
    ListHook hook;
  };
  struct FreqClass {
    std::uint64_t freq = 0;
    IntrusiveList<Node, &Node::hook> pages;  // most recent first
    ListHook hook;
  };
  using ClassList = IntrusiveList<FreqClass, &FreqClass::hook>;

  /// A pooled, empty class of `freq`, linked behind `pos` (the list head
  /// when null).
  FreqClass* add_class(std::uint64_t freq, FreqClass* pos);
  /// Unlinks `node` from its class, dropping the class when it empties.
  void unlink(Node& node);

  std::vector<Node> nodes_;  // by slot; sized once, never reallocated
  NodePool<FreqClass> pool_;
  ClassList classes_;  // ascending frequency
  std::size_t pages_ = 0;
};

}  // namespace reqblock
