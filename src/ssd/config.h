// SSD device configuration (the paper's Table 1).
#pragma once

#include <cstdint>

#include "util/types.h"

namespace reqblock {

struct SsdConfig {
  /// Most physical pages a device may have: page numbers fit 32 bits.
  static constexpr std::uint64_t kMaxPhysicalPages =
      (std::uint64_t{1} << 32) - 1;

  // --- Geometry -------------------------------------------------------
  std::uint32_t channels = 8;           // Table 1: "Channel Size"
  std::uint32_t chips_per_channel = 2;  // Table 1: "Chip Size"
  std::uint32_t planes_per_chip = 1;
  std::uint32_t pages_per_block = 64;   // Table 1
  std::uint32_t page_size = 4096;       // Table 1, bytes
  /// Raw physical capacity. Table 1 uses 128 GB; experiment configs may use
  /// a smaller device with identical geometry ratios to bound host memory.
  std::uint64_t capacity_bytes = 128ULL << 30;

  // --- NAND timing (Table 1) ------------------------------------------
  SimTime read_latency = 75 * kMicrosecond;     // 0.075 ms
  SimTime program_latency = 2 * kMillisecond;   // 2 ms
  SimTime erase_latency = 15 * kMillisecond;    // 15 ms
  SimTime transfer_per_byte = 10;               // 10 ns / byte on the bus
  /// Fixed command/addressing overhead charged on the channel per op.
  SimTime command_overhead = 200;

  // --- Controller/cache timing ----------------------------------------
  /// DRAM cache access cost per page (hit service / insert bookkeeping).
  SimTime cache_access_latency = 1 * kMicrosecond;

  // --- Garbage collection ----------------------------------------------
  /// GC triggers when a plane's free-block fraction drops below this.
  double gc_free_threshold = 0.10;  // Table 1: "GC Threshold 10%"

  /// Victim selection. kGreedy (the paper/SSDsim default) takes the block
  /// with the most invalid pages; kWearAware breaks near-ties (within
  /// `gc_wear_tie_margin` invalid pages of the best) toward the block
  /// with the fewest erases — a simple wear-leveling extension.
  enum class GcVictimPolicy { kGreedy, kWearAware };
  GcVictimPolicy gc_victim_policy = GcVictimPolicy::kGreedy;
  std::uint32_t gc_wear_tie_margin = 2;

  // --- Derived ---------------------------------------------------------
  std::uint32_t total_chips() const { return channels * chips_per_channel; }
  std::uint32_t total_planes() const {
    return total_chips() * planes_per_chip;
  }
  std::uint64_t total_pages() const { return capacity_bytes / page_size; }
  std::uint64_t total_blocks() const {
    return total_pages() / pages_per_block;
  }
  std::uint64_t blocks_per_plane() const {
    return total_blocks() / total_planes();
  }
  std::uint64_t pages_per_plane() const {
    return blocks_per_plane() * pages_per_block;
  }
  /// Channel time to move one page across the bus.
  SimTime page_transfer_time() const {
    return static_cast<SimTime>(page_size) * transfer_per_byte +
           command_overhead;
  }
  /// Free blocks per plane at/below which GC runs.
  std::uint64_t gc_threshold_blocks() const;

  /// Throws std::invalid_argument when geometry/timing are inconsistent or
  /// the device holds more than kMaxPhysicalPages.
  void validate() const;

  /// Exact Table 1 configuration (128 GB).
  static SsdConfig paper_default();

  /// Same geometry and timing, 32 GB device — the default for experiment
  /// runs so that the full flash state fits comfortably in host memory.
  static SsdConfig experiment_default();
};

}  // namespace reqblock
