// Intrusive doubly-linked list.
//
// Cache policies in this library are built on linked lists whose nodes are
// embedded in larger bookkeeping structs (request blocks, page entries, ...).
// An intrusive list gives O(1) unlink/move-to-head without any allocation,
// which is exactly what LRU-style structures need.
#pragma once

#include <cstddef>

#include "util/check.h"

namespace reqblock {

/// Embed one of these per list the object can live on.
struct ListHook {
  ListHook* prev = nullptr;
  ListHook* next = nullptr;

  bool linked() const { return prev != nullptr; }
};

/// Intrusive list of T, where `Hook` is a pointer-to-member selecting which
/// ListHook inside T this list threads through.
template <typename T, ListHook T::* Hook>
class IntrusiveList {
 public:
  IntrusiveList() {
    sentinel_.prev = &sentinel_;
    sentinel_.next = &sentinel_;
  }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return sentinel_.next == &sentinel_; }
  std::size_t size() const { return size_; }

  /// Most-recently-used end.
  T* head() const {
    return empty() ? nullptr : owner(sentinel_.next);
  }

  /// Least-recently-used end.
  T* tail() const {
    return empty() ? nullptr : owner(sentinel_.prev);
  }

  T* next(T* item) const {
    ListHook* h = hook(item)->next;
    return h == &sentinel_ ? nullptr : owner(h);
  }

  T* prev(T* item) const {
    ListHook* h = hook(item)->prev;
    return h == &sentinel_ ? nullptr : owner(h);
  }

  void push_front(T* item) { link_after(&sentinel_, hook(item)); }
  void push_back(T* item) { link_after(sentinel_.prev, hook(item)); }
  /// Links `item` right behind `pos`, which must be on this list.
  void insert_after(T* pos, T* item) { link_after(hook(pos), hook(item)); }

  /// Unlinks the item; it must currently be on this list.
  void erase(T* item) {
    ListHook* h = hook(item);
    REQB_DCHECK(h->linked());
    h->prev->next = h->next;
    h->next->prev = h->prev;
    h->prev = nullptr;
    h->next = nullptr;
    --size_;
  }

  /// Moves an already-linked item to the head (MRU position).
  void move_to_front(T* item) {
    erase(item);
    push_front(item);
  }

  /// Moves an already-linked item to the tail (LRU position).
  void move_to_back(T* item) {
    erase(item);
    push_back(item);
  }

  T* pop_back() {
    T* t = tail();
    if (t != nullptr) erase(t);
    return t;
  }

  T* pop_front() {
    T* t = head();
    if (t != nullptr) erase(t);
    return t;
  }

  bool contains(const T* item) const {
    // O(1) approximation: hook-linked means on *some* list; callers that put
    // an object on multiple lists use distinct hooks, so this is exact in
    // practice and asserted in debug sweeps.
    return hookc(item)->linked();
  }

  /// Iteration helper: calls fn(T*) from head to tail. fn must not unlink
  /// the current element.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (ListHook* h = sentinel_.next; h != &sentinel_; h = h->next) {
      fn(owner(h));
    }
  }

  /// Deep structural check used by the audit layer: walks the whole chain
  /// verifying link symmetry (h->next->prev == h) and that the node count
  /// matches size_ (a mismatch is the signature of erasing a node through
  /// the wrong list). Bounded by size_ + 1 hops so a corrupted cycle cannot
  /// hang the audit. Returns false on any violation.
  bool validate() const {
    std::size_t walked = 0;
    const ListHook* h = &sentinel_;
    do {
      if (h->next == nullptr || h->prev == nullptr) return false;
      if (h->next->prev != h || h->prev->next != h) return false;
      h = h->next;
      if (++walked > size_ + 1) return false;
    } while (h != &sentinel_);
    return walked == size_ + 1;
  }

 private:
  static ListHook* hook(T* item) { return &(item->*Hook); }
  static const ListHook* hookc(const T* item) { return &(item->*Hook); }

  static T* owner(ListHook* h) {
    // Standard container_of computation via pointer-to-member.
    alignas(T) static char probe_storage[sizeof(T)];
    T* probe = reinterpret_cast<T*>(probe_storage);
    const auto offset = reinterpret_cast<char*>(&(probe->*Hook)) -
                        reinterpret_cast<char*>(probe);
    return reinterpret_cast<T*>(reinterpret_cast<char*>(h) - offset);
  }

  void link_after(ListHook* pos, ListHook* h) {
    REQB_DCHECK(!h->linked());
    h->prev = pos;
    h->next = pos->next;
    pos->next->prev = h;
    pos->next = h;
    ++size_;
  }

  ListHook sentinel_;
  std::size_t size_ = 0;
};

}  // namespace reqblock
