// Write-buffer policy interface.
//
// The DRAM data cache inside the SSD is primarily a *write buffer*: write
// data is admitted page by page, reads probe it, and when it fills the
// policy picks a victim batch to flush to flash (paper §3.4). A policy
// owns only replacement bookkeeping; page data state (dirty bits, versions)
// lives in the CacheManager, which also drives flush timing via the FTL.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/metrics_registry.h"
#include "telemetry/trace_buffer.h"
#include "trace/io_request.h"
#include "util/audit.h"
#include "util/types.h"

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

/// Restore-time lookup from a resident LPN to the slot the manager gave
/// it; throws SnapshotError for a page the manager does not hold.
using SlotOf = std::function<Slot(Lpn)>;

/// What the policy wants evicted. All pages must currently be cached. The
/// manager owns one batch and reuses it (and its capacity) for every
/// eviction.
struct VictimBatch {
  std::vector<Lpn> pages;
  /// Flush the whole batch to a single plane derived from the first page's
  /// logical block (BPLRU whole-block semantics); otherwise the batch is
  /// striped round-robin across channels.
  bool colocate = false;
  /// Pages the policy wants read from flash and written back together with
  /// the batch (BPLRU page padding). The manager drops entries that were
  /// never written to the device.
  std::vector<Lpn> padding_reads;

  bool empty() const { return pages.empty(); }
  void clear() {
    pages.clear();
    colocate = false;
    padding_reads.clear();
  }
};

class WriteBufferPolicy {
 public:
  virtual ~WriteBufferPolicy() = default;

  virtual std::string name() const = 0;

  /// Called once before a request's pages are processed. Policies that
  /// track per-request state (Req-block's insertion/split targets) hook
  /// this; the default is a no-op.
  virtual void begin_request(const IoRequest& req) { (void)req; }

  /// `lpn`, cached in `slot`, was just accessed by `req`.
  virtual void on_hit(Lpn lpn, Slot slot, const IoRequest& req,
                      bool is_write) = 0;

  /// `lpn` was just admitted into the free `slot` (< the capacity the
  /// policy was built with; the manager guarantees free space).
  virtual void on_insert(Lpn lpn, Slot slot, const IoRequest& req,
                         bool is_write) = 0;

  /// Chooses pages to evict into `batch`, which arrives cleared. Leaving
  /// it empty means "nothing is evictable right now" (e.g. everything
  /// belongs to the in-flight request); the manager then bypasses the
  /// cache for the pending page. The victims' slots are free once this
  /// returns.
  virtual void select_victim(VictimBatch& batch) = 0;

  /// The volatile buffer is about to be dropped (injected power loss).
  /// Policies that withhold victims for the in-flight request must release
  /// those guards so the manager can drain every page via select_victim.
  virtual void on_power_loss() {}

  /// Pages the policy currently tracks. Cross-checked against the
  /// manager's page table by the test suite.
  virtual std::size_t pages() const = 0;

  /// Buffer space occupied, in pages, at the policy's allocation
  /// granularity. Page-granularity schemes return pages(); BPLRU manages
  /// the RAM in whole block units (Kim & Ahn §3), so sparsely filled
  /// blocks waste buffer space — the "lower cache utilization" the paper
  /// blames for BPLRU's ts_0 regression. The manager evicts while this
  /// meets/exceeds capacity.
  virtual std::size_t occupied_pages() const { return pages(); }

  /// Replacement-metadata footprint, using the paper's Fig. 12 node-size
  /// model (LRU 12 B/page node, block schemes 24 B/block node, Req-block
  /// 32 B/request-block node).
  virtual std::size_t metadata_bytes() const = 0;

  /// Deep structural self-check: appends every violated invariant (list ↔
  /// index cross-consistency, counter sums, membership rules) to `report`.
  /// O(tracked pages); called between operations, never mid-mutation.
  virtual void audit(AuditReport& report) const { (void)report; }

  /// Calls `fn(lpn, slot)` once per tracked page, in unspecified order.
  /// Returns false when the policy cannot enumerate (the audit layer then
  /// skips the manager↔policy page-set comparison). Every built-in policy
  /// supports it.
  virtual bool enumerate_pages(
      const std::function<void(Lpn, Slot)>& fn) const {
    (void)fn;
    return false;
  }

  /// Checkpoint: writes the full replacement state (list orders, counters,
  /// in-flight guards) so that deserialize() on a *freshly constructed*
  /// policy with the same configuration continues bit-identically.
  /// Deterministic: equal logical state always produces equal bytes.
  virtual void serialize(SnapshotWriter& w) const = 0;

  /// Restores state written by serialize(). Must only be called on a fresh
  /// instance, after the manager has re-occupied its slots; `slot_of`
  /// rebinds each restored LPN to its slot. Throws SnapshotError on
  /// malformed input, including a page the manager does not hold.
  virtual void deserialize(SnapshotReader& r, const SlotOf& slot_of) = 0;

  /// Hands the policy the run's event sink for structural events
  /// (Req-block split/promote/merge/batch-evict). The buffer outlives the
  /// policy; null or cache-gated-off means "emit nothing". Default: the
  /// policy has no structural events.
  virtual void set_trace(TraceBuffer* trace) { (void)trace; }

  /// Registers replacement-state gauges under "policy." (and, for list
  /// schemes, "list.") for periodic snapshots. The registry must not
  /// outlive the policy.
  virtual void register_metrics(MetricsRegistry& registry) const {
    registry.register_gauge("policy.pages",
                            [this] { return static_cast<double>(pages()); });
    registry.register_gauge("policy.occupied_pages", [this] {
      return static_cast<double>(occupied_pages());
    });
    registry.register_gauge("policy.metadata_bytes", [this] {
      return static_cast<double>(metadata_bytes());
    });
  }
};

}  // namespace reqblock
