#include "ssd/flash_array.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

FlashArray::FlashArray(const SsdConfig& cfg) : cfg_(cfg), amap_(cfg_) {
  // amap_'s constructor validated cfg_.
  blocks_per_plane_ = static_cast<std::uint32_t>(cfg_.blocks_per_plane());
  gc_threshold_ = cfg_.gc_threshold_blocks();
  planes_.resize(cfg_.total_planes());
  for (auto& plane : planes_) {
    plane.blocks.resize(blocks_per_plane_);
    plane.free_list.reserve(blocks_per_plane_);
    // LIFO: block 0 is allocated first.
    for (std::uint32_t b = blocks_per_plane_; b > 0; --b) {
      plane.free_list.push_back(b - 1);
    }
  }
}

FlashArray::Block& FlashArray::block_at(std::uint32_t plane,
                                        std::uint32_t block) {
  REQB_DCHECK(plane < planes_.size());
  REQB_DCHECK(block < planes_[plane].blocks.size());
  return planes_[plane].blocks[block];
}

const FlashArray::Block& FlashArray::block_at(std::uint32_t plane,
                                              std::uint32_t block) const {
  REQB_DCHECK(plane < planes_.size());
  REQB_DCHECK(block < planes_[plane].blocks.size());
  return planes_[plane].blocks[block];
}

void FlashArray::ensure_storage(Block& b) {
  if (b.states) return;
  b.states = std::make_unique<PageState[]>(cfg_.pages_per_block);
  b.lpns = std::make_unique<std::uint32_t[]>(cfg_.pages_per_block);
  std::fill_n(b.states.get(), cfg_.pages_per_block, PageState::kFree);
}

void FlashArray::ensure_error_storage(Block& b) {
  if (b.page_errors) return;
  b.page_errors = std::make_unique<std::uint8_t[]>(cfg_.pages_per_block);
  std::fill_n(b.page_errors.get(), cfg_.pages_per_block,
              static_cast<std::uint8_t>(0));
}

void FlashArray::ensure_parity_storage(Block& b) {
  if (b.stripe_parity) return;
  const std::uint32_t stripes = stripes_per_block();
  REQB_DCHECK(stripes > 0);
  b.stripe_parity = std::make_unique<std::uint8_t[]>(stripes);
  std::fill_n(b.stripe_parity.get(), stripes, static_cast<std::uint8_t>(0));
}

void FlashArray::clear_integrity_state(Block& b) {
  if (b.page_errors) {
    std::fill_n(b.page_errors.get(), cfg_.pages_per_block,
                static_cast<std::uint8_t>(0));
  }
  if (b.stripe_parity) {
    std::fill_n(b.stripe_parity.get(), stripes_per_block(),
                static_cast<std::uint8_t>(0));
  }
}

Ppn FlashArray::make_ppn(std::uint32_t plane, std::uint32_t block,
                         std::uint32_t page) const {
  return (static_cast<Ppn>(plane) * blocks_per_plane_ + block) *
             cfg_.pages_per_block +
         page;
}

Ppn FlashArray::program(std::uint32_t plane, Lpn lpn) {
  REQB_CHECK_MSG(lpn <= 0xffffffffULL,
                 "flash array stores LPNs as 32-bit; footprint too large");
  Plane& pl = planes_[plane];
  if (pl.active == kNoBlock ||
      block_at(plane, pl.active).write_ptr >= cfg_.pages_per_block) {
    REQB_CHECK_MSG(!pl.free_list.empty(),
                   "plane out of free blocks — GC must run before program");
    pl.active = pl.free_list.back();
    pl.free_list.pop_back();
  }
  Block& b = block_at(plane, pl.active);
  ensure_storage(b);
  const std::uint32_t page = b.write_ptr++;
  REQB_DCHECK(b.states[page] == PageState::kFree);
  b.states[page] = PageState::kValid;
  b.lpns[page] = static_cast<std::uint32_t>(lpn);
  ++b.valid_count;
  ++pl.valid_pages;
  return make_ppn(plane, pl.active, page);
}

void FlashArray::invalidate(Ppn ppn) {
  const std::uint32_t plane = amap_.plane_of(ppn);
  const std::uint32_t block = amap_.block_of(ppn);
  const std::uint32_t page = amap_.page_of(ppn);
  Block& b = block_at(plane, block);
  REQB_CHECK_MSG(b.states && b.states[page] == PageState::kValid,
                 "invalidate of a non-valid page");
  b.states[page] = PageState::kInvalid;
  REQB_DCHECK(b.valid_count > 0);
  --b.valid_count;
  ++b.invalid_count;
  REQB_DCHECK(planes_[plane].valid_pages > 0);
  --planes_[plane].valid_pages;
  planes_[plane].gc_heap.push(gc_key(b.invalid_count, block));
}

PageState FlashArray::state(Ppn ppn) const {
  const Block& b = block_at(amap_.plane_of(ppn), amap_.block_of(ppn));
  return b.states ? b.states[amap_.page_of(ppn)] : PageState::kFree;
}

Lpn FlashArray::lpn_at(Ppn ppn) const {
  const Block& b = block_at(amap_.plane_of(ppn), amap_.block_of(ppn));
  const std::uint32_t page = amap_.page_of(ppn);
  REQB_CHECK_MSG(b.states && b.states[page] == PageState::kValid,
                 "lpn_at on a non-valid page");
  return b.lpns[page];
}

std::uint64_t FlashArray::free_blocks(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  return planes_[plane].free_list.size();
}

bool FlashArray::gc_needed(std::uint32_t plane) const {
  return free_blocks(plane) <= gc_threshold_;
}

std::uint32_t FlashArray::pick_gc_victim(std::uint32_t plane) {
  Plane& pl = planes_[plane];
  auto next_live_top = [&]() -> std::uint32_t {
    while (!pl.gc_heap.empty()) {
      const std::uint32_t cnt = gc_key_invalid(pl.gc_heap.top());
      const std::uint32_t block = gc_key_block(pl.gc_heap.top());
      const Block& b = block_at(plane, block);
      if (block == pl.active || b.invalid_count != cnt ||
          b.invalid_count == 0) {
        // Stale entry (count changed / block erased) or the active block;
        // a live entry with the current count exists elsewhere in the heap.
        pl.gc_heap.pop();
        continue;
      }
      return block;
    }
    return kNoBlock;
  };

  const std::uint32_t best = next_live_top();
  if (best == kNoBlock ||
      cfg_.gc_victim_policy == SsdConfig::GcVictimPolicy::kGreedy) {
    return best;
  }

  // Wear-aware: inspect every live candidate whose invalid count is within
  // the tie margin of the best and pick the least-erased. Entries are
  // popped while scanning and pushed back afterwards.
  const std::uint32_t best_cnt = block_at(plane, best).invalid_count;
  const std::uint32_t floor_cnt =
      best_cnt > cfg_.gc_wear_tie_margin ? best_cnt - cfg_.gc_wear_tie_margin
                                         : 1;
  std::uint32_t victim = best;
  std::vector<std::uint64_t> scanned;
  while (true) {
    const std::uint32_t cand = next_live_top();
    if (cand == kNoBlock) break;
    const Block& b = block_at(plane, cand);
    if (b.invalid_count < floor_cnt) break;
    scanned.push_back(gc_key(b.invalid_count, cand));
    pl.gc_heap.pop();
    if (b.erase_count < block_at(plane, victim).erase_count) victim = cand;
  }
  for (const std::uint64_t entry : scanned) pl.gc_heap.push(entry);
  return victim;
}

void FlashArray::valid_pages(std::uint32_t plane, std::uint32_t block,
                             std::vector<Ppn>& out) const {
  const Block& b = block_at(plane, block);
  out.clear();
  if (!b.states) return;
  out.reserve(b.valid_count);
  for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
    if (b.states[p] == PageState::kValid) {
      out.push_back(make_ppn(plane, block, p));
    }
  }
}

void FlashArray::erase_block(std::uint32_t plane, std::uint32_t block) {
  Plane& pl = planes_[plane];
  Block& b = block_at(plane, block);
  REQB_CHECK_MSG(b.valid_count == 0,
                 "erase of a block that still holds valid pages");
  REQB_CHECK_MSG(block != pl.active, "erase of the active block");
  REQB_CHECK_MSG(!b.retired, "erase of a retired block");
  if (b.states) {
    std::fill_n(b.states.get(), cfg_.pages_per_block, PageState::kFree);
  }
  b.write_ptr = 0;
  b.invalid_count = 0;
  b.read_count = 0;
  b.data_origin = 0;
  clear_integrity_state(b);
  ++b.erase_count;
  ++total_erases_;
  pl.free_list.push_back(block);
}

FlashArray::BlockWear FlashArray::block_wear(std::uint32_t plane,
                                             std::uint32_t block) const {
  const Block& b = block_at(plane, block);
  return BlockWear{b.erase_count, b.read_count, b.data_origin};
}

void FlashArray::note_read(std::uint32_t plane, std::uint32_t block) {
  ++block_at(plane, block).read_count;
}

void FlashArray::note_program(Ppn ppn, SimTime now) {
  Block& b = block_at(amap_.plane_of(ppn), amap_.block_of(ppn));
  b.read_count = 0;
  if (amap_.page_of(ppn) == 0) b.data_origin = now;
}

void FlashArray::pre_age(std::uint32_t cycles) {
  REQB_CHECK_MSG(total_erases_ == 0 && initial_pe_ == 0,
                 "pre_age must run at wiring time, before any traffic");
  if (cycles == 0) return;
  initial_pe_ = cycles;
  for (Plane& pl : planes_) {
    for (Block& b : pl.blocks) b.erase_count += cycles;
  }
}

void FlashArray::set_stripe_pages(std::uint32_t pages) {
  REQB_CHECK_MSG(total_erases_ == 0,
                 "set_stripe_pages must run at wiring time, before traffic");
  REQB_CHECK_MSG(pages == 0 || pages <= cfg_.pages_per_block,
                 "parity stripe cannot span more pages than a block holds");
  stripe_pages_ = pages;
}

std::uint32_t FlashArray::stripe_of(Ppn ppn) const {
  REQB_DCHECK(stripe_pages_ > 0);
  return amap_.page_of(ppn) / stripe_pages_;
}

bool FlashArray::closes_stripe(Ppn ppn) const {
  if (stripe_pages_ == 0) return false;
  return (amap_.page_of(ppn) + 1) % stripe_pages_ == 0;
}

bool FlashArray::stripe_parity_present(std::uint32_t plane,
                                       std::uint32_t block,
                                       std::uint32_t stripe) const {
  const Block& b = block_at(plane, block);
  if (!b.stripe_parity) return false;
  // Tail pages past the last full stripe (pages_per_block not a multiple
  // of stripe_pages) never close a stripe and are never protected.
  if (stripe >= stripes_per_block()) return false;
  return b.stripe_parity[stripe] != 0;
}

void FlashArray::set_stripe_parity(std::uint32_t plane, std::uint32_t block,
                                   std::uint32_t stripe) {
  Block& b = block_at(plane, block);
  ensure_parity_storage(b);
  REQB_DCHECK(stripe < stripes_per_block());
  // Parity closes exactly when the stripe's last data page programs, so
  // the whole stripe must be physically written.
  REQB_DCHECK(static_cast<std::uint32_t>(b.write_ptr) >=
              (stripe + 1) * stripe_pages_);
  b.stripe_parity[stripe] = 1;
}

std::uint8_t FlashArray::note_page_error(Ppn ppn) {
  Block& b = block_at(amap_.plane_of(ppn), amap_.block_of(ppn));
  const std::uint32_t page = amap_.page_of(ppn);
  REQB_DCHECK(page < b.write_ptr);
  ensure_error_storage(b);
  if (b.page_errors[page] < 0xff) ++b.page_errors[page];
  return b.page_errors[page];
}

std::uint8_t FlashArray::page_errors(Ppn ppn) const {
  const Block& b = block_at(amap_.plane_of(ppn), amap_.block_of(ppn));
  return b.page_errors ? b.page_errors[amap_.page_of(ppn)] : 0;
}

std::uint32_t FlashArray::max_page_errors(std::uint32_t plane,
                                          std::uint32_t block) const {
  const Block& b = block_at(plane, block);
  if (!b.page_errors) return 0;
  std::uint32_t worst = 0;
  for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
    worst = std::max<std::uint32_t>(worst, b.page_errors[p]);
  }
  return worst;
}

std::uint64_t FlashArray::reclaimable_blocks(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  const Plane& pl = planes_[plane];
  const std::uint64_t usable =
      pl.blocks.size() - pl.retired_count - pl.spare_list.size();
  const std::uint64_t data_blocks =
      (pl.valid_pages + cfg_.pages_per_block - 1) / cfg_.pages_per_block;
  return usable > data_blocks ? usable - data_blocks : 0;
}

std::uint64_t FlashArray::spares_total() const {
  std::uint64_t total = 0;
  for (const Plane& pl : planes_) total += pl.spare_list.size();
  return total;
}

std::uint32_t FlashArray::erase_count(std::uint32_t plane,
                                      std::uint32_t block) const {
  return block_at(plane, block).erase_count;
}

void FlashArray::reserve_spares(std::uint32_t per_plane) {
  for (std::uint32_t p = 0; p < planes_.size(); ++p) {
    Plane& pl = planes_[p];
    REQB_CHECK_MSG(pl.spare_list.empty(), "spares already reserved");
    REQB_CHECK_MSG(pl.free_list.size() > per_plane + gc_threshold_ + 1,
                   "spare pool would leave the plane unable to allocate");
    for (std::uint32_t i = 0; i < per_plane; ++i) {
      pl.spare_list.push_back(pl.free_list.back());
      pl.free_list.pop_back();
    }
    pl.spares_reserved = per_plane;
  }
}

bool FlashArray::mark_bad(std::uint32_t plane, std::uint32_t block) {
  Block& b = block_at(plane, block);
  REQB_CHECK_MSG(!b.retired, "marking a retired block bad");
  if (b.marked_bad) return false;
  b.marked_bad = true;
  return true;
}

bool FlashArray::is_marked_bad(std::uint32_t plane,
                               std::uint32_t block) const {
  return block_at(plane, block).marked_bad;
}

bool FlashArray::retire_block(std::uint32_t plane, std::uint32_t block) {
  Plane& pl = planes_[plane];
  Block& b = block_at(plane, block);
  REQB_CHECK_MSG(b.valid_count == 0,
                 "retire of a block that still holds valid pages");
  REQB_CHECK_MSG(block != pl.active, "retire of the active block");
  REQB_CHECK_MSG(!b.retired, "double retirement");
  if (b.states) {
    std::fill_n(b.states.get(), cfg_.pages_per_block, PageState::kFree);
  }
  b.write_ptr = 0;
  b.invalid_count = 0;
  b.read_count = 0;
  b.data_origin = 0;
  clear_integrity_state(b);
  b.retired = true;
  ++pl.retired_count;
  ++total_retired_;
  if (!pl.spare_list.empty()) {
    // Remap: a spare takes the retired block's place in the free pool.
    pl.free_list.push_back(pl.spare_list.back());
    pl.spare_list.pop_back();
    return false;
  }
  if (pl.degraded) return false;
  pl.degraded = true;
  return true;
}

void FlashArray::close_active(std::uint32_t plane) {
  planes_[plane].active = kNoBlock;
}

bool FlashArray::can_lose_block(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  const Plane& pl = planes_[plane];
  // Hard budget: capacity actually lost (retirements not absorbed by a
  // spare remap) never exceeds one GC-threshold's worth of blocks. The
  // plane's current occupancy is a poor predictor of its future share —
  // data written while the plane was near-empty redistributes later — so
  // the bound must not depend on it.
  const std::uint64_t spares_used = pl.spares_reserved - pl.spare_list.size();
  const std::uint64_t capacity_lost = pl.retired_count - spares_used;
  if (capacity_lost >= gc_threshold_) return false;
  const std::uint64_t usable =
      pl.blocks.size() - pl.retired_count - pl.spare_list.size();
  const std::uint64_t data_blocks =
      (pl.valid_pages + cfg_.pages_per_block - 1) / cfg_.pages_per_block;
  return usable > data_blocks + gc_threshold_ + 2;
}

bool FlashArray::can_accept_page(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  const Plane& pl = planes_[plane];
  const std::uint64_t usable =
      pl.blocks.size() - pl.retired_count - pl.spare_list.size();
  const std::uint64_t reserve = gc_threshold_ + 2;
  if (usable <= reserve) return false;
  return pl.valid_pages + 1 <= (usable - reserve) * cfg_.pages_per_block;
}

std::uint64_t FlashArray::spares_remaining(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  return planes_[plane].spare_list.size();
}

bool FlashArray::plane_degraded(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  return planes_[plane].degraded;
}

FlashArray::WearStats FlashArray::wear_stats() const {
  WearStats stats;
  stats.min_erases = ~0u;
  double sum = 0.0;
  std::uint64_t blocks = 0;
  for (const auto& plane : planes_) {
    for (const auto& block : plane.blocks) {
      stats.min_erases = std::min(stats.min_erases, block.erase_count);
      stats.max_erases = std::max(stats.max_erases, block.erase_count);
      sum += block.erase_count;
      ++blocks;
      if (block.erase_count > 0) ++stats.blocks_touched;
    }
  }
  if (blocks == 0) {
    stats.min_erases = 0;
  } else {
    stats.mean_erases = sum / static_cast<double>(blocks);
  }
  return stats;
}

std::uint64_t FlashArray::valid_page_count(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  return planes_[plane].valid_pages;
}

void FlashArray::audit(AuditReport& report) const {
  for (std::uint32_t p = 0; p < planes_.size(); ++p) {
    const Plane& pl = planes_[p];
    const std::string plane_tag = "plane " + std::to_string(p);
    REQB_AUDIT_MSG(report,
                   pl.active == kNoBlock || pl.active < pl.blocks.size(),
                   plane_tag + " active block index out of range");

    std::vector<bool> on_free_list(pl.blocks.size(), false);
    for (const std::uint32_t b : pl.free_list) {
      if (!REQB_AUDIT_MSG(report, b < pl.blocks.size(),
                          plane_tag + " free list holds invalid block " +
                              std::to_string(b))) {
        continue;
      }
      REQB_AUDIT_MSG(report, !on_free_list[b],
                     plane_tag + " free list holds block " +
                         std::to_string(b) + " twice");
      on_free_list[b] = true;
      REQB_AUDIT_MSG(report, b != pl.active,
                     plane_tag + " active block " + std::to_string(b) +
                         " is on the free list");
      const Block& blk = pl.blocks[b];
      REQB_AUDIT_MSG(report,
                     blk.write_ptr == 0 && blk.valid_count == 0 &&
                         blk.invalid_count == 0,
                     plane_tag + " free block " + std::to_string(b) +
                         " is not empty");
      REQB_AUDIT_MSG(report, blk.read_count == 0 && blk.data_origin == 0,
                     plane_tag + " free block " + std::to_string(b) +
                         " carries stale wear state");
      REQB_AUDIT_MSG(report, !blk.retired,
                     plane_tag + " retired block " + std::to_string(b) +
                         " is on the free list");
    }

    for (const std::uint32_t b : pl.spare_list) {
      if (!REQB_AUDIT_MSG(report, b < pl.blocks.size(),
                          plane_tag + " spare list holds invalid block " +
                              std::to_string(b))) {
        continue;
      }
      REQB_AUDIT_MSG(report, !on_free_list[b],
                     plane_tag + " block " + std::to_string(b) +
                         " is on both the free and spare lists");
      REQB_AUDIT_MSG(report, b != pl.active,
                     plane_tag + " active block " + std::to_string(b) +
                         " is on the spare list");
      const Block& blk = pl.blocks[b];
      REQB_AUDIT_MSG(report,
                     blk.write_ptr == 0 && blk.valid_count == 0 &&
                         !blk.retired,
                     plane_tag + " spare block " + std::to_string(b) +
                         " is not an empty in-service block");
    }
    REQB_AUDIT_MSG(report, !pl.degraded || pl.spare_list.empty(),
                   plane_tag + " degraded while spares remain");

    std::uint64_t plane_retired = 0;
    std::uint64_t plane_valid = 0;
    for (std::uint32_t b = 0; b < pl.blocks.size(); ++b) {
      const Block& blk = pl.blocks[b];
      const std::string tag =
          plane_tag + " block " + std::to_string(b);
      REQB_AUDIT_MSG(report, blk.write_ptr <= cfg_.pages_per_block,
                     tag + " write pointer past the block end");
      if (blk.retired) {
        ++plane_retired;
        REQB_AUDIT_MSG(report, blk.write_ptr == 0 && blk.valid_count == 0 &&
                           blk.invalid_count == 0,
                       tag + " retired but not empty");
        REQB_AUDIT_MSG(report, b != pl.active, tag + " retired yet active");
        REQB_AUDIT_MSG(report,
                       blk.read_count == 0 && blk.data_origin == 0,
                       tag + " retired but carries wear state");
      }
      REQB_AUDIT_MSG(report, blk.erase_count >= initial_pe_,
                     tag + " P/E count " + std::to_string(blk.erase_count) +
                         " fell below the pre-age floor " +
                         std::to_string(initial_pe_));
      REQB_AUDIT_MSG(report, blk.write_ptr > 0 || blk.read_count == 0,
                     tag + " counts reads but holds no programmed pages");
      REQB_AUDIT_MSG(report,
                     blk.valid_count + blk.invalid_count == blk.write_ptr,
                     tag + " counters " + std::to_string(blk.valid_count) +
                         "+" + std::to_string(blk.invalid_count) +
                         " disagree with write pointer " +
                         std::to_string(blk.write_ptr));
      plane_valid += blk.valid_count;
      // Integrity state tracks programmed pages only: free and retired
      // blocks (write_ptr 0) must carry no error counts or parity bits.
      if (blk.page_errors) {
        for (std::uint32_t page = 0; page < cfg_.pages_per_block; ++page) {
          REQB_AUDIT_MSG(report,
                         blk.page_errors[page] == 0 || page < blk.write_ptr,
                         tag + " page " + std::to_string(page) +
                             " counts errors but was never programmed");
        }
      }
      if (blk.stripe_parity) {
        for (std::uint32_t s = 0; s < stripes_per_block(); ++s) {
          REQB_AUDIT_MSG(report,
                         blk.stripe_parity[s] == 0 ||
                             static_cast<std::uint32_t>(blk.write_ptr) >=
                                 (s + 1) * stripe_pages_,
                         tag + " stripe " + std::to_string(s) +
                             " has parity but incomplete data pages");
        }
      }
      if (!blk.states) {
        REQB_AUDIT_MSG(report, blk.write_ptr == 0 && blk.valid_count == 0,
                       tag + " has pages but no materialized storage");
        continue;
      }
      std::uint32_t valid = 0, invalid = 0;
      for (std::uint32_t page = 0; page < cfg_.pages_per_block; ++page) {
        const PageState s = blk.states[page];
        if (s == PageState::kValid) ++valid;
        if (s == PageState::kInvalid) ++invalid;
        REQB_AUDIT_MSG(report,
                       page < blk.write_ptr ? s != PageState::kFree
                                            : s == PageState::kFree,
                       tag + " page " + std::to_string(page) +
                           " state contradicts the write pointer");
      }
      REQB_AUDIT_MSG(report,
                     valid == blk.valid_count && invalid == blk.invalid_count,
                     tag + " states count " + std::to_string(valid) + "v/" +
                         std::to_string(invalid) + "i, counters say " +
                         std::to_string(blk.valid_count) + "v/" +
                         std::to_string(blk.invalid_count) + "i");
    }
    REQB_AUDIT_MSG(report, plane_valid == pl.valid_pages,
                   plane_tag + " blocks hold " + std::to_string(plane_valid) +
                       " valid pages, counter says " +
                       std::to_string(pl.valid_pages));
    REQB_AUDIT_MSG(report, plane_retired == pl.retired_count,
                   plane_tag + " holds " + std::to_string(plane_retired) +
                       " retired blocks, counter says " +
                       std::to_string(pl.retired_count));

    // Retired blocks must be invisible to GC victim selection: any heap
    // entry whose invalid count still matches the live block (the only
    // entries pick_gc_victim will act on) must point at an in-service
    // block.
    auto heap = pl.gc_heap;
    while (!heap.empty()) {
      const std::uint32_t cnt = gc_key_invalid(heap.top());
      const std::uint32_t b = gc_key_block(heap.top());
      heap.pop();
      if (b >= pl.blocks.size()) continue;  // stale beyond range
      const Block& blk = pl.blocks[b];
      if (blk.invalid_count != cnt || cnt == 0) continue;  // stale entry
      REQB_AUDIT_MSG(report, !blk.retired,
                     plane_tag + " GC heap holds live entry for retired "
                                 "block " + std::to_string(b));
    }
  }

  // P/E accounting closes: every erase either rode total_erases_ or was
  // part of the uniform pre-age.
  std::uint64_t erase_sum = 0;
  std::uint64_t block_count = 0;
  for (const auto& plane : planes_) {
    for (const auto& block : plane.blocks) {
      erase_sum += block.erase_count;
      ++block_count;
    }
  }
  REQB_AUDIT_MSG(
      report,
      erase_sum == total_erases_ +
                       static_cast<std::uint64_t>(initial_pe_) * block_count,
      "per-block P/E counts sum to " + std::to_string(erase_sum) +
          ", expected total_erases " + std::to_string(total_erases_) +
          " + pre-age " + std::to_string(initial_pe_) + " x " +
          std::to_string(block_count) + " blocks");
}

void FlashArray::serialize(SnapshotWriter& w) const {
  w.tag("flash_array");
  w.u64(total_erases_);
  w.u64(total_retired_);
  w.u64(planes_.size());
  for (const Plane& pl : planes_) {
    w.vec_u32(pl.free_list);
    w.vec_u32(pl.spare_list);
    w.u64(pl.spares_reserved);
    w.u64(pl.retired_count);
    w.b(pl.degraded);
    w.u32(pl.active);
    w.u64(pl.valid_pages);
    // The GC heap's pop order depends only on the element multiset (keys
    // are totally ordered; equal duplicates pop consecutively), so
    // draining a copy captures behavior exactly and gives stable bytes:
    // (invalid_count, block) pairs in descending order.
    auto heap = pl.gc_heap;
    w.u64(heap.size());
    while (!heap.empty()) {
      w.u32(gc_key_invalid(heap.top()));
      w.u32(gc_key_block(heap.top()));
      heap.pop();
    }
    w.u64(pl.blocks.size());
    for (const Block& b : pl.blocks) {
      w.u16(b.write_ptr);
      w.u16(b.valid_count);
      w.u16(b.invalid_count);
      w.u32(b.erase_count);
      w.u32(b.read_count);
      w.i64(b.data_origin);
      w.b(b.marked_bad);
      w.b(b.retired);
      // Page storage is lazily allocated; only written pages carry state.
      for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
        w.u8(static_cast<std::uint8_t>(b.states[p]));
        w.u32(b.lpns[p]);
      }
      // v6: sparse per-page error counters (ascending page order) and
      // stripe-parity presence (ascending stripe order). Error-free,
      // parity-free blocks cost two zero counts.
      std::uint16_t error_entries = 0;
      if (b.page_errors) {
        for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
          error_entries += b.page_errors[p] > 0 ? 1 : 0;
        }
      }
      w.u16(error_entries);
      if (b.page_errors) {
        for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
          if (b.page_errors[p] == 0) continue;
          w.u16(static_cast<std::uint16_t>(p));
          w.u8(b.page_errors[p]);
        }
      }
      std::uint16_t parity_entries = 0;
      if (b.stripe_parity) {
        for (std::uint32_t s = 0; s < stripes_per_block(); ++s) {
          parity_entries += b.stripe_parity[s] != 0 ? 1 : 0;
        }
      }
      w.u16(parity_entries);
      if (b.stripe_parity) {
        for (std::uint32_t s = 0; s < stripes_per_block(); ++s) {
          if (b.stripe_parity[s] != 0) w.u16(static_cast<std::uint16_t>(s));
        }
      }
    }
  }
}

void FlashArray::deserialize(SnapshotReader& r) {
  r.tag("flash_array");
  total_erases_ = r.u64();
  total_retired_ = r.u64();
  const std::uint64_t plane_count = r.u64();
  if (plane_count != planes_.size()) {
    throw SnapshotError("flash snapshot has a different plane count");
  }
  for (Plane& pl : planes_) {
    pl.free_list = r.vec_u32();
    pl.spare_list = r.vec_u32();
    pl.spares_reserved = r.u64();
    pl.retired_count = r.u64();
    pl.degraded = r.b();
    pl.active = r.u32();
    pl.valid_pages = r.u64();
    const std::uint64_t heap_size = r.u64();
    for (std::uint64_t i = 0; i < heap_size; ++i) {
      const std::uint32_t invalid = r.u32();
      const std::uint32_t block = r.u32();
      pl.gc_heap.push(gc_key(invalid, block));
    }
    const std::uint64_t block_count = r.u64();
    if (block_count != pl.blocks.size()) {
      throw SnapshotError("flash snapshot has a different block count");
    }
    for (Block& b : pl.blocks) {
      b.write_ptr = r.u16();
      b.valid_count = r.u16();
      b.invalid_count = r.u16();
      b.erase_count = r.u32();
      b.read_count = r.u32();
      b.data_origin = r.i64();
      b.marked_bad = r.b();
      b.retired = r.b();
      if (b.write_ptr > cfg_.pages_per_block) {
        throw SnapshotError("flash snapshot write pointer out of range");
      }
      if (b.write_ptr > 0) {
        ensure_storage(b);
        for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
          const auto s = r.u8();
          if (s > static_cast<std::uint8_t>(PageState::kInvalid)) {
            throw SnapshotError("flash snapshot has an invalid page state");
          }
          b.states[p] = static_cast<PageState>(s);
          b.lpns[p] = r.u32();
        }
      }
      // v6: sparse error counters and stripe-parity bits, each refused
      // unless strictly ascending, in range, and consistent with the
      // write pointer / stripe wiring.
      const std::uint16_t error_entries = r.u16();
      std::uint32_t last_page = 0;
      for (std::uint16_t i = 0; i < error_entries; ++i) {
        const std::uint16_t page = r.u16();
        if (page >= b.write_ptr) {
          throw SnapshotError(
              "flash snapshot counts errors on an unprogrammed page");
        }
        if (i > 0 && page <= last_page) {
          throw SnapshotError(
              "flash snapshot error entries are not strictly ascending");
        }
        last_page = page;
        const std::uint8_t errors = r.u8();
        if (errors == 0) {
          throw SnapshotError("flash snapshot has a zero error entry");
        }
        ensure_error_storage(b);
        b.page_errors[page] = errors;
      }
      const std::uint16_t parity_entries = r.u16();
      std::uint32_t last_stripe = 0;
      for (std::uint16_t i = 0; i < parity_entries; ++i) {
        const std::uint16_t stripe = r.u16();
        if (stripe_pages_ == 0) {
          throw SnapshotError(
              "flash snapshot carries stripe parity but the run has no "
              "parity stripes wired");
        }
        if (stripe >= stripes_per_block() ||
            static_cast<std::uint32_t>(b.write_ptr) <
                (static_cast<std::uint32_t>(stripe) + 1) * stripe_pages_) {
          throw SnapshotError(
              "flash snapshot parity entry contradicts the write pointer");
        }
        if (i > 0 && stripe <= last_stripe) {
          throw SnapshotError(
              "flash snapshot parity entries are not strictly ascending");
        }
        last_stripe = stripe;
        ensure_parity_storage(b);
        b.stripe_parity[stripe] = 1;
      }
    }
  }
}

}  // namespace reqblock
