// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/cache_manager.h"
#include "cache/policy_factory.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/ftl.h"
#include "trace/io_request.h"
#include "trace/vector_source.h"

namespace reqblock::testing {

/// A small SSD (fast to construct) with Table 1 geometry ratios.
inline SsdConfig tiny_ssd() {
  SsdConfig cfg;
  cfg.capacity_bytes = 1ULL << 30;  // 1 GB: 16 planes x 256 blocks
  cfg.validate();
  return cfg;
}

/// An even smaller SSD for GC-pressure tests (few blocks per plane).
inline SsdConfig micro_ssd() {
  SsdConfig cfg;
  cfg.channels = 2;
  cfg.chips_per_channel = 1;
  cfg.pages_per_block = 8;
  cfg.capacity_bytes = 2ULL * 2 * 8 * 64 * 4096;  // 64 blocks per plane
  cfg.validate();
  return cfg;
}

inline IoRequest write_req(std::uint64_t id, Lpn lpn, std::uint32_t pages,
                           SimTime at = 0) {
  IoRequest r;
  r.id = id;
  r.arrival = at;
  r.type = IoType::kWrite;
  r.lpn = lpn;
  r.pages = pages;
  return r;
}

inline IoRequest read_req(std::uint64_t id, Lpn lpn, std::uint32_t pages,
                          SimTime at = 0) {
  IoRequest r = write_req(id, lpn, pages, at);
  r.type = IoType::kRead;
  return r;
}

/// Bundles a device + cache manager for direct-driving tests.
struct Harness {
  explicit Harness(PolicyConfig policy, SsdConfig ssd = tiny_ssd(),
                   CacheOptions cache_opts = {})
      : ftl(ssd) {
    cache_opts.capacity_pages = policy.capacity_pages;
    cache = std::make_unique<CacheManager>(cache_opts, make_policy(policy),
                                           ftl);
  }

  SimTime serve(const IoRequest& r) { return cache->serve(r); }

  Ftl ftl;
  std::unique_ptr<CacheManager> cache;
};

inline PolicyConfig policy_config(const std::string& name,
                                  std::uint64_t capacity_pages,
                                  std::uint32_t pages_per_block = 64) {
  PolicyConfig cfg;
  cfg.name = name;
  cfg.capacity_pages = capacity_pages;
  cfg.pages_per_block = pages_per_block;
  return cfg;
}

/// Slots a standalone policy test gives its policy: enough for every
/// page a test keeps resident at once.
inline constexpr std::uint64_t kTestSlots = 1024;

/// Owns a policy and drives it through the slot API the way CacheManager
/// does: an admitted LPN takes a free slot, a hit passes the LPN's slot,
/// and the slots of evicted pages return to the free list. Victim batches
/// come back by value. Everything else reaches the policy through `->`.
template <typename P>
class Driven {
 public:
  template <typename... Args>
  explicit Driven(Args&&... args) : policy_(std::forward<Args>(args)...) {}

  P* operator->() { return &policy_; }
  const P* operator->() const { return &policy_; }
  P& operator*() { return policy_; }
  const P& operator*() const { return policy_; }

  void begin_request(const IoRequest& req) { policy_.begin_request(req); }
  /// A repeated insert passes the LPN's current slot (which the policy
  /// must refuse).
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) {
    auto [it, fresh] = slots_.try_emplace(lpn, kNoSlot);
    if (fresh) it->second = take_slot();
    policy_.on_insert(lpn, it->second, req, is_write);
  }
  /// A hit on an untracked LPN passes a free slot (which the policy must
  /// refuse).
  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) {
    const auto it = slots_.find(lpn);
    const Slot slot = it != slots_.end()            ? it->second
                      : free_.empty()               ? next_
                                                    : free_.back();
    policy_.on_hit(lpn, slot, req, is_write);
  }
  VictimBatch select_victim() {
    VictimBatch batch;
    policy_.select_victim(batch);
    for (const Lpn lpn : batch.pages) {
      const auto it = slots_.find(lpn);
      if (it == slots_.end()) {
        throw std::logic_error("policy evicted a page it was never given");
      }
      free_.push_back(it->second);
      slots_.erase(it);
    }
    return batch;
  }
  /// The slot the driver gave `lpn` (kNoSlot when not resident).
  Slot slot_of(Lpn lpn) const {
    const auto it = slots_.find(lpn);
    return it == slots_.end() ? kNoSlot : it->second;
  }

 private:
  Slot take_slot() {
    if (free_.empty()) return next_++;
    const Slot slot = free_.back();
    free_.pop_back();
    return slot;
  }

  P policy_;
  std::map<Lpn, Slot> slots_;
  std::vector<Slot> free_;
  Slot next_ = 0;
};

}  // namespace reqblock::testing
