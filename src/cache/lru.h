// Page-granularity list policies: one slot-indexed node per cached page on
// a single intrusive list.
//   LRU   — the paper's primary baseline: hits promote.
//   FIFO  — insertion-order eviction: hits do not promote.
//   CFLRU — Clean-First LRU (Park et al., CASES'06): the LRU list's tail
//           segment (the "clean-first region", a fraction of capacity)
//           prefers evicting *clean* pages, which need no flash program.
//           With read caching disabled (the paper's write-buffer
//           configuration) every page is dirty and CFLRU degenerates to
//           plain LRU — the tests pin both behaviours.
#pragma once

#include <vector>

#include "cache/write_buffer.h"
#include "util/intrusive_list.h"

namespace reqblock {

class PageListPolicy : public WriteBufferPolicy {
 public:
  std::string name() const override {
    return window_ > 0 ? "CFLRU" : promote_ ? "LRU" : "FIFO";
  }

  void on_hit(Lpn lpn, Slot slot, const IoRequest& req,
              bool is_write) override;
  void on_insert(Lpn lpn, Slot slot, const IoRequest& req,
                 bool is_write) override;
  void select_victim(VictimBatch& batch) override;
  std::size_t pages() const override { return list_.size(); }
  std::size_t metadata_bytes() const override {
    // Paper Fig. 12: 12 B per page node; CFLRU adds a dirty flag.
    return list_.size() * (window_ > 0 ? 13 : 12);
  }
  void audit(AuditReport& report) const override;
  bool enumerate_pages(
      const std::function<void(Lpn, Slot)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r, const SlotOf& slot_of) override;

 protected:
  /// `clean_first_window` > 0 pages makes it CFLRU (hits then promote).
  PageListPolicy(std::uint64_t capacity_pages, bool promote_on_hit,
                 std::size_t clean_first_window);
  /// CFLRU's window: `fraction` (in [0, 1]) of capacity, at least 1.
  static std::size_t clean_first_window(std::uint64_t capacity_pages,
                                        double fraction);

 private:
  struct Node {
    Lpn lpn = kInvalidLpn;
    bool dirty = true;  // LRU and FIFO treat every page as dirty
    ListHook hook;      // linked while the slot holds a tracked page
  };

  const char* tag() const {
    return window_ > 0 ? "cflru" : promote_ ? "lru" : "fifo";
  }

  bool promote_;
  std::size_t window_;  // clean-first region in pages (0: none)
  /// Resident clean pages. At 0 (every page dirty, the write-buffer
  /// setting) the clean-first window cannot hold a victim, so
  /// select_victim takes the LRU tail without scanning it.
  std::size_t clean_pages_ = 0;
  std::vector<Node> nodes_;  // by slot; sized once, never reallocated
  IntrusiveList<Node, &Node::hook> list_;
};

class LruPolicy final : public PageListPolicy {
 public:
  explicit LruPolicy(std::uint64_t capacity_pages)
      : PageListPolicy(capacity_pages, /*promote_on_hit=*/true, 0) {}
};

}  // namespace reqblock
