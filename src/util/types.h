// Fundamental scalar types shared across the whole library.
#pragma once

#include <cstdint>

namespace reqblock {

/// Logical page number, in units of the SSD page size (4 KB by default).
using Lpn = std::uint64_t;

/// Physical page number: a flat index into the flash array's page space.
using Ppn = std::uint64_t;

/// Simulated time in nanoseconds since the start of the run.
using SimTime = std::int64_t;

/// Logical tick counter used by policies that want a timescale-free clock
/// (one tick per page access).
using Tick = std::uint64_t;

/// Sentinel for "no physical page" in mapping tables.
inline constexpr Ppn kInvalidPpn = ~static_cast<Ppn>(0);

/// Sentinel for "no logical page" in reverse maps.
inline constexpr Lpn kInvalidLpn = ~static_cast<Lpn>(0);

/// Index of a cache slot. The CacheManager owns capacity_pages slots and
/// hands each admitted page one; policies index their per-page state by it
/// instead of hashing the LPN. A slot never orders a decision and never
/// reaches snapshot bytes: a restore re-occupies slots in ascending LPN
/// order, so slot numbers differ from an uninterrupted run.
using Slot = std::uint32_t;

/// A Slot that holds no page (31 bits: slots fit the manager's LPN state).
inline constexpr Slot kNoSlot = (Slot{1} << 31) - 1;

/// A cached page as block-structured policies store it: LPNs stay below
/// 2^32 (kLpnBound) and slots below 2^31, so the pair packs into 8 bytes.
struct SlotPage {
  std::uint32_t lpn = 0;
  Slot slot = kNoSlot;
};

/// Time unit helpers. All simulator latencies are expressed in nanoseconds.
inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000 * kNanosecond;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;

}  // namespace reqblock
