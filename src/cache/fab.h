// FAB (Flash-Aware Buffer, Jo et al., TCE'06).
//
// Groups cached pages by their logical flash block and always evicts the
// group holding the most pages (ignoring recency), which suits sequential
// media workloads. Included as an additional baseline from the paper's
// related-work discussion.
#pragma once

#include <vector>

#include "cache/write_buffer.h"
#include "util/lpn_table.h"
#include "util/node_pool.h"

namespace reqblock {

class FabPolicy final : public WriteBufferPolicy {
 public:
  explicit FabPolicy(std::uint32_t pages_per_block);

  std::string name() const override { return "FAB"; }

  void on_hit(Lpn lpn, Slot slot, const IoRequest& req,
              bool is_write) override;
  void on_insert(Lpn lpn, Slot slot, const IoRequest& req,
                 bool is_write) override;
  void select_victim(VictimBatch& batch) override;
  std::size_t pages() const override { return total_pages_; }
  std::size_t metadata_bytes() const override {
    return groups_.size() * 24;  // block-granularity node
  }

  /// Cached page count of a logical block (tests).
  std::size_t group_size(Lpn block_id) const;

  void audit(AuditReport& report) const override;
  bool enumerate_pages(
      const std::function<void(Lpn, Slot)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r, const SlotOf& slot_of) override;

 private:
  struct Group {
    Lpn block_id = 0;
    std::vector<SlotPage> pages;
    std::size_t heap_pos = 0;
  };

  Lpn block_of(Lpn lpn) const { return lpn / pages_per_block_; }
  /// Eviction order: more pages first, then the smaller block id (a total
  /// order, so the heap's layout never decides a victim).
  static bool before(const Group* a, const Group* b) {
    return a->pages.size() != b->pages.size()
               ? a->pages.size() > b->pages.size()
               : a->block_id < b->block_id;
  }
  /// A pooled group for `block_id` (keeping its pages capacity), indexed
  /// and pushed on the heap.
  Group* add_group(Lpn block_id);
  void place(std::size_t pos, Group* g) {
    heap_[pos] = g;
    g->heap_pos = pos;
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  std::uint32_t pages_per_block_;
  NodePool<Group> pool_;
  FlatHashMap<Group*, kLpnBound> groups_;  // live groups by block id
  std::vector<Group*> heap_;  // binary heap in eviction order
  std::size_t total_pages_ = 0;
};

}  // namespace reqblock
