// CFLRU (Clean-First LRU, Park et al., CASES'06).
//
// The LRU list's tail segment (the "clean-first region", a configurable
// fraction of capacity) prefers evicting *clean* pages, because they need
// no flash program on eviction. With read caching disabled (the paper's
// write-buffer configuration) every page is dirty and CFLRU degenerates to
// plain LRU — our tests pin both behaviours.
#pragma once

#include <unordered_map>

#include "cache/write_buffer.h"
#include "util/intrusive_list.h"

namespace reqblock {

class CflruPolicy final : public WriteBufferPolicy {
 public:
  /// window_fraction: portion of capacity forming the clean-first region.
  CflruPolicy(std::uint64_t capacity_pages, double window_fraction = 0.1);

  std::string name() const override { return "CFLRU"; }

  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override;
  VictimBatch select_victim() override;
  std::size_t pages() const override { return nodes_.size(); }
  std::size_t metadata_bytes() const override {
    // Page node plus dirty flag.
    return nodes_.size() * 13;
  }
  void audit(AuditReport& report) const override;
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;

 private:
  struct Node {
    Lpn lpn = 0;
    bool dirty = false;
    ListHook hook;
  };

  std::unordered_map<Lpn, Node> nodes_;
  IntrusiveList<Node, &Node::hook> list_;
  std::size_t window_;
  /// Resident clean pages. At 0 (every page dirty, the write-buffer
  /// setting) the clean-first window cannot hold a victim, so
  /// select_victim takes the LRU tail without scanning it.
  std::size_t clean_pages_ = 0;
};

}  // namespace reqblock
