// Stable-address node pool for block-keyed replacement state.
//
// A deque never moves its elements, so intrusive list hooks and index
// pointers into pooled nodes stay valid for the pool's lifetime. Released
// nodes wait on a free list and are handed out again before the deque
// grows; the caller resets a reused node (keeping whatever capacity it
// wants to recycle, such as a page vector's buffer).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace reqblock {

template <typename T>
class NodePool {
 public:
  /// A free node if one waits (as it was released), else a fresh T{}.
  T* acquire() {
    if (free_.empty()) return &nodes_.emplace_back();
    T* node = free_.back();
    free_.pop_back();
    return node;
  }
  void release(T* node) { free_.push_back(node); }

  /// Nodes ever created (live + free); the pool never shrinks.
  std::size_t size() const { return nodes_.size(); }
  const std::vector<T*>& free_nodes() const { return free_; }

 private:
  std::deque<T> nodes_;
  std::vector<T*> free_;
};

}  // namespace reqblock
