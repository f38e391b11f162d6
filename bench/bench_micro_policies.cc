// Microbenchmarks (A4): CPU cost of the policy hot paths — insert, hit,
// and victim selection — for every cache policy. The paper argues
// Req-block's run-time overhead is O(log n) lookups plus O(1) list
// adjustments (§4.2.5); these benchmarks put cycle numbers on that claim
// and let regressions in the policy data structures show up directly.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cache/policy_factory.h"
#include "trace/io_request.h"
#include "util/check.h"
#include "util/lpn_table.h"
#include "util/rng.h"

namespace reqblock {
namespace {

constexpr std::uint64_t kCapacity = 8192;  // pages (32 MB)

PolicyConfig config_for(const std::string& name) {
  PolicyConfig cfg;
  cfg.name = name;
  cfg.capacity_pages = kCapacity;
  cfg.pages_per_block = 64;
  return cfg;
}

IoRequest request_for(std::uint64_t id, Lpn lpn, std::uint32_t pages) {
  IoRequest r;
  r.id = id;
  r.type = IoType::kWrite;
  r.lpn = lpn;
  r.pages = pages;
  return r;
}

/// Hands out cache slots the way CacheManager does: an admitted LPN takes
/// a free slot and an evicted LPN's slot returns to the free list. LPNs
/// ascend here, so the LPN -> slot map is direct-mapped over a window of
/// 2^18 recent LPNs (4 MiB), with a hash map for the rare LPN whose entry
/// an old resident still holds (BPLRU keeps its first blocks for good).
/// That keeps the harness's own cost well below the policies' it measures.
class SlotAllocator {
 public:
  SlotAllocator() : window_(kWindow) {
    for (Slot s = kCapacity; s-- > 0;) free_.push_back(s);
  }
  Slot admit(Lpn lpn) {
    REQB_CHECK_MSG(!free_.empty(), "benchmark admitted past capacity");
    const Slot slot = free_.back();
    free_.pop_back();
    Entry& e = window_[lpn & (kWindow - 1)];
    if (e.slot == kNoSlot) {
      e = {lpn, slot};
    } else {
      overflow_.try_emplace(lpn, slot);
    }
    return slot;
  }
  void evict(const VictimBatch& batch) {
    for (const Lpn lpn : batch.pages) {
      Entry& e = window_[lpn & (kWindow - 1)];
      if (e.slot != kNoSlot && e.lpn == lpn) {
        free_.push_back(e.slot);
        e.slot = kNoSlot;
      } else {
        free_.push_back(*overflow_.find(lpn));
        overflow_.erase(lpn);
      }
    }
  }

 private:
  static constexpr std::uint64_t kWindow = std::uint64_t{1} << 18;
  static_assert((kWindow & (kWindow - 1)) == 0);
  struct Entry {
    Lpn lpn = 0;
    Slot slot = kNoSlot;
  };
  std::vector<Slot> free_;
  std::vector<Entry> window_;
  LpnHashMap<Slot> overflow_;
};

/// Steady-state churn: one 4-page write request of misses per iteration
/// (evicting when full into one reused batch), mimicking the manager's
/// write-miss path.
void bm_insert_evict(benchmark::State& state, const std::string& name) {
  auto policy = make_policy(config_for(name));
  SlotAllocator slots;
  VictimBatch victim;
  std::uint64_t id = 0;
  Lpn next = 0;
  for (auto _ : state) {
    const IoRequest req = request_for(++id, next, 4);
    policy->begin_request(req);
    for (std::uint32_t i = 0; i < 4; ++i, ++next) {
      while (policy->pages() >= kCapacity) {
        victim.clear();
        policy->select_victim(victim);
        if (victim.empty()) break;
        slots.evict(victim);
      }
      policy->on_insert(next, slots.admit(next), req, true);
    }
  }
  state.SetItemsProcessed(state.iterations() * 4);
}

/// Hit path: repeated promotions of resident pages.
void bm_hit(benchmark::State& state, const std::string& name) {
  auto policy = make_policy(config_for(name));
  // Pre-fill with 4-page requests; page `l` takes slot `l`.
  std::uint64_t id = 0;
  for (Lpn l = 0; l < kCapacity; l += 4) {
    const IoRequest req = request_for(++id, l, 4);
    policy->begin_request(req);
    for (std::uint32_t i = 0; i < 4; ++i) {
      policy->on_insert(l + i, static_cast<Slot>(l + i), req, true);
    }
  }
  Rng rng(2);
  for (auto _ : state) {
    const Lpn lpn = rng.next_below(kCapacity);
    const IoRequest req = request_for(++id, lpn, 1);
    policy->begin_request(req);
    policy->on_hit(lpn, static_cast<Slot>(lpn), req, false);
  }
  state.SetItemsProcessed(state.iterations());
}

void register_all() {
  for (const auto& name : known_policy_names()) {
    benchmark::RegisterBenchmark(("insert_evict/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   bm_insert_evict(s, name);
                                 });
    benchmark::RegisterBenchmark(("hit/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   bm_hit(s, name);
                                 });
  }
}

}  // namespace
}  // namespace reqblock

int main(int argc, char** argv) {
  reqblock::register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
