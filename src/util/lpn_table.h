// Flat per-LPN state tables for the serve path.
//
// LpnTable<T> is the SSDsim-style page table: an array indexed by LPN,
// split into a directory of lazily allocated 4096-entry chunks so a sparse
// address space (MSR volumes, tenant slices) costs memory only where pages
// were touched. Each chunk carries a presence bitmap, so "absent" stays
// distinct from a stored value-initialized T (the write oracle stores
// version 0 on rollback and must remember that it did). Iteration walks
// the directory in order, so for_each visits LPNs in ascending order and
// emission paths need no collect-and-sort.
//
// Chunks are allocated without zeroing their entries: an entry is written
// when it becomes present, so a chunk's memory is first touched by the
// entries actually stored (an 8-byte T makes a 32 KiB chunk).
//
// FlatHashMap<V, kKeyBound> is for sets bounded by the cache capacity
// (Req-block's page-to-block map, its block-id index): one open-addressing
// table with linear probing and backward-shift deletion, doubling at load
// 1/2. Its iteration order is hash order — never emit from it.
// LpnHashMap<V> is the LPN-keyed instance.
//
// Both reject keys at or above their bound (kLpnBound for LPNs) on
// insertion (REQB_CHECK), so an untrusted value can never size an
// allocation.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace reqblock {

/// Exclusive upper bound on the LPNs the per-LPN tables accept: 2^32 pages,
/// 16 TiB of 4 KiB pages, far past any traced volume. It caps an
/// LpnTable directory at 2^20 slots (8 MiB).
inline constexpr Lpn kLpnBound = Lpn{1} << 32;

template <typename T>
class LpnTable {
 public:
  static constexpr unsigned kChunkBits = 12;
  static constexpr std::size_t kChunkEntries = std::size_t{1} << kChunkBits;

  /// The entry of `lpn`, or nullptr when absent.
  const T* find(Lpn lpn) const {
    const Lpn c = lpn >> kChunkBits;
    if (c >= dir_.size() || dir_[c] == nullptr) return nullptr;
    const Chunk& chunk = *dir_[c];
    const std::size_t i = lpn & (kChunkEntries - 1);
    return chunk.has(i) ? &chunk.at(i) : nullptr;
  }
  T* find(Lpn lpn) { return const_cast<T*>(std::as_const(*this).find(lpn)); }
  bool contains(Lpn lpn) const { return find(lpn) != nullptr; }

  /// The entry of `lpn`, value-initialized first when absent; `inserted`
  /// reports which. Entries stay at their address until erased (chunks
  /// never move). Throws (REQB_CHECK) for lpn >= kLpnBound.
  std::pair<T*, bool> try_emplace(Lpn lpn) {
    Chunk& chunk = chunk_for(lpn);
    const std::size_t i = lpn & (kChunkEntries - 1);
    if (chunk.has(i)) return {&chunk.at(i), false};
    chunk.present[i >> 6] |= std::uint64_t{1} << (i & 63);
    ++chunk.live;
    ++size_;
    return {::new (chunk.storage + i * sizeof(T)) T{}, true};
  }
  T& operator[](Lpn lpn) { return *try_emplace(lpn).first; }

  /// Removes `lpn`; returns whether it was present. A chunk whose last
  /// entry goes is freed.
  bool erase(Lpn lpn) {
    const Lpn c = lpn >> kChunkBits;
    if (c >= dir_.size() || dir_[c] == nullptr) return false;
    Chunk& chunk = *dir_[c];
    const std::size_t i = lpn & (kChunkEntries - 1);
    if (!chunk.has(i)) return false;
    chunk.present[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    --size_;
    if (--chunk.live == 0) {
      dir_[c].reset();
      --chunks_;
    }
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Directory length (highest touched chunk + 1) and allocated chunks.
  std::size_t directory_slots() const { return dir_.size(); }
  std::size_t live_chunks() const { return chunks_; }

  /// Calls fn(lpn, entry) for every present entry in ascending LPN order.
  /// fn may modify entries but must not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    std::as_const(*this).for_each(
        [&](Lpn lpn, const T& entry) { fn(lpn, const_cast<T&>(entry)); });
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t c = 0; c < dir_.size(); ++c) {
      if (dir_[c] == nullptr) continue;
      const Chunk& chunk = *dir_[c];
      const Lpn base = static_cast<Lpn>(c) << kChunkBits;
      for (std::size_t w = 0; w < chunk.present.size(); ++w) {
        for (std::uint64_t bits = chunk.present[w]; bits != 0;
             bits &= bits - 1) {
          const std::size_t i = w * 64 + std::countr_zero(bits);
          fn(base + i, chunk.at(i));
        }
      }
    }
  }

 private:
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  struct Chunk {
    std::array<std::uint64_t, kChunkEntries / 64> present{};
    std::uint32_t live = 0;
    /// Raw entry storage: an entry is constructed when it becomes present.
    alignas(T) unsigned char storage[sizeof(T) * kChunkEntries];
    bool has(std::size_t i) const { return (present[i >> 6] >> (i & 63)) & 1; }
    T& at(std::size_t i) {
      return *std::launder(reinterpret_cast<T*>(storage + i * sizeof(T)));
    }
    const T& at(std::size_t i) const {
      return *std::launder(
          reinterpret_cast<const T*>(storage + i * sizeof(T)));
    }
  };

  Chunk& chunk_for(Lpn lpn) {
    const Lpn c = lpn >> kChunkBits;
    if (c >= dir_.size()) {
      REQB_CHECK_MSG(lpn < kLpnBound, "LPN " + std::to_string(lpn) +
                                          " is beyond the supported bound");
      dir_.resize(c + 1);
    }
    if (dir_[c] == nullptr) {
      dir_[c] = std::make_unique_for_overwrite<Chunk>();
      ++chunks_;
    }
    return *dir_[c];
  }

  std::vector<std::unique_ptr<Chunk>> dir_;
  std::size_t size_ = 0;
  std::size_t chunks_ = 0;
};

template <typename V, std::uint64_t kKeyBound>
class FlatHashMap {
 public:
  FlatHashMap() { rehash(16); }

  const V* find(Lpn lpn) const {
    for (std::size_t i = home(lpn);; i = (i + 1) & mask_) {
      if (slots_[i].key == kEmpty) return nullptr;  // also for lpn == kEmpty
      if (slots_[i].key == lpn) return &slots_[i].value;
    }
  }
  V* find(Lpn lpn) { return const_cast<V*>(std::as_const(*this).find(lpn)); }
  bool contains(Lpn lpn) const { return find(lpn) != nullptr; }

  /// Inserts `lpn -> value` unless present; returns the stored value and
  /// whether it was inserted. Pointers stay valid until the next insert or
  /// erase. Throws (REQB_CHECK) for lpn >= kKeyBound.
  std::pair<V*, bool> try_emplace(Lpn lpn, V value = V{}) {
    REQB_CHECK_MSG(lpn < kKeyBound, "key " + std::to_string(lpn) +
                                        " is beyond the supported bound");
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * slots_.size());
    std::size_t i = home(lpn);
    for (; slots_[i].key != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].key == lpn) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{lpn, std::move(value)};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `lpn`; returns whether it was present. Backward-shift
  /// deletion keeps every probe chain gap-free (no tombstones).
  bool erase(Lpn lpn) {
    std::size_t i = home(lpn);
    for (; slots_[i].key != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].key == lpn) break;
    }
    if (slots_[i].key == kEmpty) return false;  // also for lpn == kEmpty
    for (std::size_t j = (i + 1) & mask_; slots_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      // Slot j may fill the hole at i when its home does not lie in the
      // cyclic interval (i, j].
      if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }

  /// Calls fn(lpn, value) for every entry in hash order (not for emission).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) fn(s.key, s.value);
    }
  }

 private:
  // All ones: at or above any kKeyBound, so never a stored key.
  static constexpr Lpn kEmpty = kInvalidLpn;
  struct Slot {
    Lpn key = kEmpty;
    V value{};
  };

  /// Moves every entry into a fresh slot array of `cap` (a power of two).
  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  /// Fibonacci hashing: consecutive LPNs land far apart.
  std::size_t home(Lpn lpn) const {
    return static_cast<std::size_t>((lpn * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
  std::size_t size_ = 0;
};

template <typename V>
using LpnHashMap = FlatHashMap<V, kLpnBound>;

}  // namespace reqblock
