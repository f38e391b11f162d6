// VBBMS (Virtual-Block-Based buffer Management Strategy, Du et al., TCE'19).
//
// Splits the cache into a *random* region and a *sequential* region at a
// 3:2 capacity ratio (paper §4.1). Requests are classified by size;
// random-region pages are grouped into 3-page virtual blocks managed by
// LRU, sequential-region pages into 4-page virtual blocks managed by FIFO.
// Evictions flush a whole virtual block, striped across channels.
#pragma once

#include <vector>

#include "cache/write_buffer.h"
#include "util/intrusive_list.h"
#include "util/lpn_table.h"
#include "util/node_pool.h"

namespace reqblock {

struct VbbmsOptions {
  /// Fraction of capacity for the random region (paper: 3:2 split).
  double random_fraction = 0.6;
  std::uint32_t random_vb_pages = 3;
  std::uint32_t seq_vb_pages = 4;
  /// Requests with at least this many pages are "sequential".
  std::uint32_t seq_request_threshold = 5;
};

class VbbmsPolicy final : public WriteBufferPolicy {
 public:
  VbbmsPolicy(std::uint64_t capacity_pages, VbbmsOptions options = {});

  std::string name() const override { return "VBBMS"; }

  void on_hit(Lpn lpn, Slot slot, const IoRequest& req,
              bool is_write) override;
  void on_insert(Lpn lpn, Slot slot, const IoRequest& req,
                 bool is_write) override;
  void select_victim(VictimBatch& batch) override;
  std::size_t pages() const override {
    return random_.pages + seq_.pages;
  }
  std::size_t metadata_bytes() const override {
    return (random_.vbs.size() + seq_.vbs.size()) * 24;  // virtual-block node
  }

  std::size_t random_pages() const { return random_.pages; }
  std::size_t seq_pages() const { return seq_.pages; }

  void audit(AuditReport& report) const override;
  bool enumerate_pages(
      const std::function<void(Lpn, Slot)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r, const SlotOf& slot_of) override;

 private:
  struct VBlock {
    std::uint64_t vb_id = 0;
    std::vector<SlotPage> pages;
    ListHook hook;
  };
  using VBlockList = IntrusiveList<VBlock, &VBlock::hook>;
  using VBlockMap = FlatHashMap<VBlock*, kLpnBound>;

  /// One region: its virtual blocks by id, their list (LRU for random,
  /// FIFO for sequential) and its page count.
  struct Region {
    std::uint32_t vb_pages;
    VBlockMap vbs;
    VBlockList list;
    std::size_t pages = 0;
  };

  /// The region's vblock holding `lpn`, pooled and linked at the list
  /// head when new (`created` reports which).
  VBlock* vblock_for(Region& region, Lpn lpn, bool& created);
  /// Evicts the region's list tail into `batch` (no-op when empty).
  void evict_from(Region& region, VictimBatch& batch);

  VbbmsOptions opt_;
  std::uint64_t random_quota_;
  std::uint64_t seq_quota_;

  NodePool<VBlock> pool_;
  Region random_;
  Region seq_;
  /// Region bit per slot, meaningful while the slot is tracked.
  std::vector<bool> page_is_seq_;
};

}  // namespace reqblock
