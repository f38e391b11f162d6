// Physical address arithmetic.
//
// Physical pages are numbered flat:
//   ppn = (plane_global * blocks_per_plane + block) * pages_per_block + page
// where plane_global enumerates (channel, chip, plane) row-major. All
// conversions live here so geometry math has exactly one home.
//
// The divisors are read from the configuration once, at construction, and
// a validated geometry stays below 2^32 physical pages (SsdConfig::validate),
// so every decode is a 32-bit division. Callers that need one field of an
// address use the single-field decoders (plane_of, block_of, page_of)
// instead of the full to_addr.
#pragma once

#include <cstdint>

#include "ssd/config.h"
#include "util/check.h"
#include "util/types.h"

namespace reqblock {

struct PhysAddr {
  std::uint32_t channel = 0;
  std::uint32_t chip = 0;    // within the channel
  std::uint32_t plane = 0;   // within the chip
  std::uint32_t block = 0;   // within the plane
  std::uint32_t page = 0;    // within the block

  bool operator==(const PhysAddr&) const = default;
};

class AddressMap {
 public:
  /// Validates `cfg` (std::invalid_argument) before deriving divisors.
  explicit AddressMap(const SsdConfig& cfg) {
    cfg.validate();
    chips_per_channel_ = cfg.chips_per_channel;
    planes_per_chip_ = cfg.planes_per_chip;
    pages_per_block_ = cfg.pages_per_block;
    blocks_per_plane_ = static_cast<std::uint32_t>(cfg.blocks_per_plane());
    pages_per_plane_ = static_cast<std::uint32_t>(cfg.pages_per_plane());
    total_pages_ = cfg.total_pages();
  }

  std::uint32_t plane_global(const PhysAddr& a) const {
    return (a.channel * chips_per_channel_ + a.chip) * planes_per_chip_ +
           a.plane;
  }

  std::uint32_t chip_global(std::uint32_t plane_global_idx) const {
    return plane_global_idx / planes_per_chip_;
  }

  std::uint32_t channel_of_plane(std::uint32_t plane_global_idx) const {
    return chip_global(plane_global_idx) / chips_per_channel_;
  }

  Ppn to_ppn(const PhysAddr& a) const {
    REQB_DCHECK(a.chip < chips_per_channel_);
    REQB_DCHECK(a.plane < planes_per_chip_);
    REQB_DCHECK(a.block < blocks_per_plane_);
    REQB_DCHECK(a.page < pages_per_block_);
    const Ppn ppn =
        (static_cast<Ppn>(plane_global(a)) * blocks_per_plane_ + a.block) *
            pages_per_block_ +
        a.page;
    REQB_DCHECK(ppn < total_pages_);  // the channel is in range
    return ppn;
  }

  PhysAddr to_addr(Ppn ppn) const {
    PhysAddr a;
    a.page = page_of(ppn);
    a.block = block_of(ppn);
    const std::uint32_t plane_flat = plane_of(ppn);
    a.plane = plane_flat % planes_per_chip_;
    const std::uint32_t chip_flat = plane_flat / planes_per_chip_;
    a.chip = chip_flat % chips_per_channel_;
    a.channel = chip_flat / chips_per_channel_;
    return a;
  }

  /// Plane index (global) that a ppn belongs to.
  std::uint32_t plane_of(Ppn ppn) const { return flat(ppn) / pages_per_plane_; }
  /// Block index within its plane.
  std::uint32_t block_of(Ppn ppn) const {
    return (flat(ppn) / pages_per_block_) % blocks_per_plane_;
  }
  /// Page index within its block.
  std::uint32_t page_of(Ppn ppn) const { return flat(ppn) % pages_per_block_; }

  std::uint64_t total_pages() const { return total_pages_; }

 private:
  std::uint32_t flat(Ppn ppn) const {
    REQB_DCHECK(ppn < total_pages_);
    return static_cast<std::uint32_t>(ppn);
  }

  std::uint32_t chips_per_channel_ = 0;
  std::uint32_t planes_per_chip_ = 0;
  std::uint32_t pages_per_block_ = 0;
  std::uint32_t blocks_per_plane_ = 0;
  std::uint32_t pages_per_plane_ = 0;
  std::uint64_t total_pages_ = 0;
};

}  // namespace reqblock
