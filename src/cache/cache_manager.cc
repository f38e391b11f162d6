#include "cache/cache_manager.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

CacheManager::CacheManager(const CacheOptions& options,
                           std::unique_ptr<WriteBufferPolicy> policy,
                           Ftl& ftl)
    : options_(options), policy_(std::move(policy)), ftl_(ftl) {
  REQB_CHECK_MSG(options_.capacity_pages >= 1, "cache must hold a page");
  REQB_CHECK(policy_ != nullptr);
  REQB_CHECK_MSG(options_.bg_flush_low_pages <= options_.bg_flush_high_pages,
                 "bg-flush low watermark above the high watermark");
  REQB_CHECK_MSG(options_.bg_flush_high_pages <= options_.capacity_pages,
                 "bg-flush high watermark exceeds cache capacity");
  REQB_CHECK_MSG(options_.capacity_pages < kNoSlot,
                 "cache capacity exceeds the slot index range");
  slots_.resize(options_.capacity_pages);
  free_slots_.resize(options_.capacity_pages);
  for (std::uint32_t i = 0; i < free_slots_.size(); ++i) {
    free_slots_[i] = static_cast<std::uint32_t>(free_slots_.size() - 1 - i);
  }
  const std::uint32_t buckets = options_.max_tracked_request_pages + 1;
  metrics_.inserts_by_req_size.assign(buckets, 0);
  metrics_.hits_by_req_size.assign(buckets, 0);
  metrics_.pages_retired_by_req_size.assign(buckets, 0);
  metrics_.pages_reused_by_req_size.assign(buckets, 0);
}

std::uint32_t CacheManager::size_bucket(std::uint32_t pages) const {
  // Bucket 0 aggregates requests larger than the tracked maximum.
  return pages <= options_.max_tracked_request_pages ? pages : 0;
}

std::uint64_t CacheManager::expected_version(Lpn lpn) const {
  const LpnState* st = lpns_.find(lpn);
  return st == nullptr ? 0 : st->version;
}

bool CacheManager::is_resident(Lpn lpn) const {
  const LpnState* st = lpns_.find(lpn);
  return st != nullptr && st->slot != kNoSlot;
}

CacheManager::PageEntry& CacheManager::occupy(Lpn lpn, LpnState& st) {
  REQB_CHECK_MSG(!free_slots_.empty(), "cache admitted past its capacity");
  st.slot = free_slots_.back();
  free_slots_.pop_back();
  PageEntry& e = slots_[st.slot];
  e = PageEntry{};
  e.lpn = lpn;
  return e;
}

void CacheManager::release(LpnState& st) {
  slots_[st.slot].lpn = kInvalidLpn;
  free_slots_.push_back(st.slot);
  st.slot = kNoSlot;
}

void CacheManager::set_oracle(Lpn lpn, std::uint32_t version) {
  LpnState& st = lpns_[lpn];
  if (!st.versioned) {
    st.versioned = 1;
    ++oracle_entries_;
  }
  st.version = version;
}

void CacheManager::sample_metadata() {
  if (++lookup_since_sample_ >= options_.metadata_sample_interval) {
    lookup_since_sample_ = 0;
    metrics_.metadata_bytes.record(
        static_cast<double>(policy_->metadata_bytes()));
  }
}

void CacheManager::retire_entry(const PageEntry& entry) {
  const std::uint32_t b = size_bucket(entry.insert_req_pages);
  ++metrics_.pages_retired_by_req_size[b];
  if (entry.reused) ++metrics_.pages_reused_by_req_size[b];
}

SimTime CacheManager::evict_once(SimTime now, bool& evicted,
                                 OpAttribution* span) {
  const ScopedTimer timer(profiler_, Profiler::Section::kEvictFlush);
  if (span != nullptr) *span = OpAttribution{};
  victim_.clear();
  policy_->select_victim(victim_);
  if (victim_.empty()) {
    evicted = false;
    return now;
  }
  evicted = true;
  ++metrics_.evictions;

  std::vector<FlushPage>& flush = flush_;
  flush.clear();
  for (const Lpn lpn : victim_.pages) {
    LpnState* st = lpns_.find(lpn);
    REQB_CHECK_MSG(st != nullptr && st->slot != kNoSlot,
                   "policy evicted a page the cache does not hold");
    const PageEntry& e = slots_[st->slot];
    if (e.dirty) {
      flush.push_back(FlushPage{lpn, e.version});
      --dirty_pages_;
    }
    retire_entry(e);
    release(*st);
    ++metrics_.evicted_pages;
  }
  metrics_.flushed_pages += flush.size();  // dirty victim pages only

  // BPLRU page padding: read the block's missing (but previously written)
  // pages from flash and rewrite them together with the victim batch.
  // The padding reads all issue at `now` in parallel, so the one that
  // completes last is the padding phase's critical path.
  SimTime padding_done = now;
  OpAttribution padding_crit;
  OpAttribution read_attr;
  for (const Lpn lpn : victim_.padding_reads) {
    if (!ftl_.is_mapped(lpn) || is_resident(lpn)) continue;
    const auto rr = ftl_.read_page(lpn, now, &read_attr);
    if (rr.complete > padding_done) {
      padding_done = rr.complete;
      padding_crit = read_attr;
    }
    if (rr.lost) {
      // The padding read came back uncorrectable: there is nothing to
      // rewrite. Roll the oracle back to what flash now holds (nothing)
      // and flush the block without this page; later reads of it verify
      // against the loss, not the vanished data.
      set_oracle(lpn, ftl_.version_of(lpn));
      continue;
    }
    flush.push_back(FlushPage{lpn, rr.version});
    ++metrics_.padding_pages;
  }

  // Fig. 10's "page number of each eviction" counts the pages the eviction
  // pushes to flash in one batch (victim pages + BPLRU padding).
  metrics_.eviction_batch.record(flush.size());

  OpAttribution batch_attr;
  const SimTime done = flush.empty()
                           ? now  // all-clean victim: space is free at once
                           : ftl_.program_batch(flush, padding_done,
                                                victim_.colocate, &batch_attr);
  if (span != nullptr && !flush.empty()) {
    // [now, padding_done] carries the critical padding read's fault share;
    // [padding_done, done] carries the batch's critical-page GC/fault.
    // The sub-intervals tile [now, done], so the sums stay inside it.
    span->gc = batch_attr.gc;
    span->fault = padding_crit.fault + batch_attr.fault;
  }
  if (trace_ != nullptr) {
    const Lpn first = victim_.pages.front();
    trace_->emit({now, done - now, first, victim_.pages.size(),
                  EventKind::kCacheEvict, kTrackManager, 0});
    if (!flush.empty()) {
      trace_->emit({now, done - now, first, flush.size(),
                    EventKind::kCacheFlush, kTrackManager, 0});
    }
  }
  return done;
}

void CacheManager::maybe_background_flush(SimTime now) {
  if (options_.bg_flush_high_pages == 0 ||
      dirty_pages_ < options_.bg_flush_high_pages) {
    return;
  }
  bool victimless = false;
  while (dirty_pages_ > options_.bg_flush_low_pages) {
    const std::uint64_t dirty_before = dirty_pages_;
    bool evicted = false;
    // The completion time is deliberately dropped: the flush occupies the
    // device timelines (future operations on the same chips queue behind
    // it) but no host request waits on it.
    evict_once(now, evicted);
    if (!evicted) {
      victimless = true;  // policy withheld everything (in-flight guards)
      break;
    }
    ++metrics_.bg_flush_batches;
    const std::uint64_t flushed = dirty_before - dirty_pages_;
    metrics_.bg_flush_pages += flushed;
    if (trace_ != nullptr) {
      trace_->emit({now, 0, 0, flushed, EventKind::kBgFlush,
                    kTrackManager, 0});
    }
  }
  run_audit("CacheManager (bg flush)", AuditLevel::kLight,
            [&](AuditReport& r) {
              REQB_AUDIT_MSG(
                  r, victimless ||
                         dirty_pages_ <= options_.bg_flush_low_pages,
                  "drain stopped at " + std::to_string(dirty_pages_) +
                      " dirty pages, above the low watermark " +
                      std::to_string(options_.bg_flush_low_pages));
            });
}

SimTime CacheManager::serve_write(const IoRequest& req, RequestBreakdown* bd) {
  // All of the request's page operations are issued at arrival; evictions
  // triggered by different pages proceed in parallel (striped across
  // channels by the FTL's round-robin allocator) and only the per-chip
  // FCFS timelines serialize them. A page that needed an eviction is
  // admitted when its victim's flush completes (synchronous eviction).
  //
  // Attribution follows the critical path: whichever page completes last
  // defines the request's latency, so `crit` holds that page's component
  // split of [issue, done]. Strict `>` keeps the first achiever on ties.
  const SimTime issue = req.arrival;
  SimTime done = issue;
  RequestBreakdown crit;
  for (std::uint32_t i = 0; i < req.pages; ++i) {
    const Lpn lpn = req.lpn + i;
    ++metrics_.page_lookups;
    sample_metadata();
    // LpnTable entries never move, so `st` survives the evictions below.
    LpnState& st = lpns_[lpn];
    REQB_CHECK_MSG(st.version < Ftl::kMaxVersion,
                   "page " + std::to_string(lpn) +
                       " would take a version past 2^32 - 1");
    if (!st.versioned) {
      st.versioned = 1;
      ++oracle_entries_;
    }
    const std::uint32_t version = ++st.version;

    if (st.slot != kNoSlot) {
      PageEntry& e = slots_[st.slot];
      ++metrics_.page_hits;
      ++metrics_.write_hits;
      ++metrics_.hits_by_req_size[size_bucket(e.insert_req_pages)];
      e.version = version;
      if (!e.dirty) ++dirty_pages_;  // clean read-admit rewritten
      e.dirty = true;
      e.reused = true;
      if (trace_ != nullptr) {
        trace_->emit({issue, 0, lpn, 1, EventKind::kCacheHit,
                      kTrackManager, 0});
      }
      policy_->on_hit(lpn, st.slot, req, /*is_write=*/true);
      const SimTime cand = issue + ftl_.config().cache_access_latency;
      if (cand > done) {
        done = cand;
        crit = RequestBreakdown{};
        crit[AttrComponent::kCacheLookup] = cand - issue;
      }
      continue;
    }
    if (trace_ != nullptr) {
      trace_->emit({issue, 0, lpn, 1, EventKind::kCacheMiss,
                    kTrackManager, 0});
    }

    // Miss: make room, then admit. Occupancy is measured at the policy's
    // allocation granularity (whole block units for BPLRU), so one insert
    // may need several evictions before space frees up.
    SimTime admit_at = issue;
    OpAttribution evict_crit;
    OpAttribution evict_span;
    bool space_ok = true;
    while (policy_->occupied_pages() >= options_.capacity_pages) {
      bool evicted = false;
      const SimTime space_at = evict_once(issue, evicted, &evict_span);
      if (!evicted) {
        // Nothing evictable (the in-flight request owns the whole cache):
        // bypass the buffer and program this page directly.
        space_ok = false;
        break;
      }
      // The evictions all issue at `issue` in parallel; the slowest one
      // gates admission and defines the stall's attribution.
      if (space_at > admit_at) {
        admit_at = space_at;
        evict_crit = evict_span;
      }
    }
    if (!space_ok) {
      ++metrics_.bypass_pages;
      if (trace_ != nullptr) {
        trace_->emit({issue, 0, lpn, 1, EventKind::kCacheBypass,
                      kTrackManager, 0});
      }
      OpAttribution prog;
      const SimTime cand = ftl_.program_page(lpn, version, issue, &prog);
      if (cand > done) {
        done = cand;
        crit = RequestBreakdown{};
        crit[AttrComponent::kGc] = prog.gc;
        crit[AttrComponent::kFaultRetry] = prog.fault;
        crit[AttrComponent::kFtlProgram] =
            (cand - issue) - prog.gc - prog.fault;
      }
      continue;
    }
    PageEntry& entry = occupy(lpn, st);
    entry.version = version;
    entry.dirty = true;
    entry.insert_req_pages = req.pages;
    ++dirty_pages_;
    ++metrics_.inserts;
    ++metrics_.inserts_by_req_size[size_bucket(req.pages)];
    if (trace_ != nullptr) {
      trace_->emit({admit_at, 0, lpn, 1, EventKind::kCacheInsert,
                    kTrackManager, 0});
    }
    policy_->on_insert(lpn, st.slot, req, /*is_write=*/true);
    const SimTime cand = admit_at + ftl_.config().cache_access_latency;
    if (cand > done) {
      done = cand;
      crit = RequestBreakdown{};
      crit[AttrComponent::kGc] = evict_crit.gc;
      crit[AttrComponent::kFaultRetry] = evict_crit.fault;
      crit[AttrComponent::kEvictStall] =
          (admit_at - issue) - evict_crit.gc - evict_crit.fault;
      crit[AttrComponent::kCacheLookup] = cand - admit_at;
    }
  }
  REQB_DCHECK(cached_pages() <= options_.capacity_pages);
  if (bd != nullptr) {
    for (std::size_t c = 0; c < kAttrComponents; ++c) bd->ns[c] += crit.ns[c];
  }
  return done;
}

SimTime CacheManager::serve_read(const IoRequest& req, RequestBreakdown* bd,
                                 bool* data_lost) {
  // Attribution mirrors serve_write: the page completing last is the
  // request's critical path and `crit` holds its split of [arrival, done].
  SimTime done = req.arrival;
  RequestBreakdown crit;
  OpAttribution read_attr;
  OpAttribution evict_span;
  for (std::uint32_t i = 0; i < req.pages; ++i) {
    const Lpn lpn = req.lpn + i;
    ++metrics_.page_lookups;
    sample_metadata();

    const LpnState* st = lpns_.find(lpn);
    const std::uint64_t expected = st == nullptr ? 0 : st->version;
    if (st != nullptr && st->slot != kNoSlot) {
      PageEntry& e = slots_[st->slot];
      ++metrics_.page_hits;
      ++metrics_.read_hits;
      ++metrics_.hits_by_req_size[size_bucket(e.insert_req_pages)];
      e.reused = true;
      if (options_.verify_consistency) {
        REQB_CHECK_MSG(e.version == expected,
                       "cached version diverged from the write oracle");
      }
      if (trace_ != nullptr) {
        trace_->emit({req.arrival, 0, lpn, 0, EventKind::kCacheHit,
                      kTrackManager, 0});
      }
      policy_->on_hit(lpn, st->slot, req, /*is_write=*/false);
      const SimTime cand = req.arrival + ftl_.config().cache_access_latency;
      if (cand > done) {
        done = cand;
        crit = RequestBreakdown{};
        crit[AttrComponent::kCacheLookup] = cand - req.arrival;
      }
      continue;
    }

    ++metrics_.read_misses;
    if (trace_ != nullptr) {
      trace_->emit({req.arrival, 0, lpn, 0, EventKind::kCacheMiss,
                    kTrackManager, 0});
    }
    const auto rr = ftl_.read_page(lpn, req.arrival, &read_attr);
    if (options_.verify_consistency) {
      // rr.version reports what the host asked for (captured before any
      // uncorrectable loss dropped the mapping), so the oracle check
      // holds even for reads that came back lost.
      REQB_CHECK_MSG(rr.version == expected,
                     "flash version diverged from the write oracle");
    }
    if (rr.lost) {
      // Recovery exhausted: the stored data is gone. Roll the oracle
      // back to what flash now holds (nothing) so later reads verify
      // against the loss instead of the vanished write, and surface the
      // failure to the session's shed-vs-error handling.
      set_oracle(lpn, ftl_.version_of(lpn));
      if (data_lost != nullptr) *data_lost = true;
    }
    SimTime cand = rr.complete;
    // The read-admission eviction chain runs sequentially after the flash
    // read, so GC/fault shares of its links sum within the chain interval.
    OpAttribution chain;
    bool chained = false;

    if (options_.cache_reads && rr.mapped && !rr.lost) {
      SimTime cursor = rr.complete;
      bool admitted = true;
      while (policy_->occupied_pages() >= options_.capacity_pages) {
        bool evicted = false;
        cursor = std::max(cursor, evict_once(cursor, evicted, &evict_span));
        if (!evicted) {
          admitted = false;
          break;
        }
        chain.gc += evict_span.gc;
        chain.fault += evict_span.fault;
      }
      if (admitted) {
        LpnState& admit_st = lpns_[lpn];
        PageEntry& entry = occupy(lpn, admit_st);
        entry.version = rr.version;
        entry.dirty = false;
        entry.insert_req_pages = req.pages;
        ++metrics_.inserts;
        ++metrics_.inserts_by_req_size[size_bucket(req.pages)];
        if (trace_ != nullptr) {
          trace_->emit({cursor, 0, lpn, 0, EventKind::kCacheInsert,
                        kTrackManager, 0});
        }
        policy_->on_insert(lpn, admit_st.slot, req, /*is_write=*/false);
        cand = cursor;
        chained = true;
      }
    }
    if (cand > done) {
      done = cand;
      crit = RequestBreakdown{};
      crit[AttrComponent::kGc] = read_attr.gc;
      crit[AttrComponent::kFaultRetry] = read_attr.fault;
      crit[AttrComponent::kFtlRead] =
          (rr.complete - req.arrival) - read_attr.gc - read_attr.fault;
      if (chained) {
        crit[AttrComponent::kGc] += chain.gc;
        crit[AttrComponent::kFaultRetry] += chain.fault;
        crit[AttrComponent::kEvictStall] =
            (cand - rr.complete) - chain.gc - chain.fault;
      }
    }
  }
  if (bd != nullptr) {
    for (std::size_t c = 0; c < kAttrComponents; ++c) bd->ns[c] += crit.ns[c];
  }
  return done;
}

SimTime CacheManager::serve(const IoRequest& req, RequestBreakdown* bd,
                            bool* data_lost) {
  REQB_CHECK_MSG(req.pages >= 1, "requests must touch at least one page");
  REQB_CHECK_MSG(req.lpn < kLpnBound && req.pages <= kLpnBound - req.lpn,
                 "request LPNs [" + std::to_string(req.lpn) + ", +" +
                     std::to_string(req.pages) +
                     ") reach past the supported LPN bound 2^32");
  const ScopedTimer timer(profiler_, Profiler::Section::kCacheServe);
  if (trace_ != nullptr) trace_->set_time(req.arrival);
  policy_->begin_request(req);
  // Watermark drain first, with this request's eviction guards already in
  // place, so the background flusher never steals the blocks the request
  // is about to extend. Its flushes are not attributed to this request:
  // they only cost later requests time, through busier chip timelines
  // that surface in those requests' ftl/gc components.
  maybe_background_flush(req.arrival);
  const SimTime done = req.is_write() ? serve_write(req, bd)
                                      : serve_read(req, bd, data_lost);
  REQB_DCHECK(policy_->pages() == cached_pages());
  run_audit("CacheManager", AuditLevel::kLight,
            [this](AuditReport& r) { audit(r, audit_level()); });
  return done;
}

void CacheManager::audit(AuditReport& report, AuditLevel depth) const {
  // Counter cross-checks (cheap, every request at kLight).
  const std::uint64_t cached = cached_pages();
  REQB_AUDIT_MSG(report, policy_->pages() == cached,
                 "policy tracks " + std::to_string(policy_->pages()) +
                     " pages, manager holds " + std::to_string(cached));
  REQB_AUDIT_MSG(report, policy_->occupied_pages() >= policy_->pages(),
                 "occupancy " + std::to_string(policy_->occupied_pages()) +
                     " below page count " + std::to_string(policy_->pages()));
  REQB_AUDIT_MSG(report, cached <= options_.capacity_pages,
                 "resident " + std::to_string(cached) +
                     " pages exceed capacity " +
                     std::to_string(options_.capacity_pages));
  REQB_AUDIT_MSG(report,
                 metrics_.read_hits + metrics_.write_hits ==
                     metrics_.page_hits,
                 "hit counters disagree");
  REQB_AUDIT(report, metrics_.page_hits <= metrics_.page_lookups);
  REQB_AUDIT_MSG(report, metrics_.flushed_pages <= metrics_.evicted_pages,
                 "flushed more dirty pages than were evicted");
  REQB_AUDIT_MSG(report, dirty_pages_ <= cached,
                 "dirty counter " + std::to_string(dirty_pages_) +
                     " exceeds residency " + std::to_string(cached));
  REQB_AUDIT_MSG(report, metrics_.bg_flush_pages <= metrics_.flushed_pages,
                 "background flushes exceed total flushes");
  REQB_AUDIT_MSG(report, metrics_.bg_flush_batches <= metrics_.evictions,
                 "background batches exceed total evictions");
  if (depth < AuditLevel::kFull) return;

  // The incrementally maintained dirty counter against a full recount:
  // every dirty transition (insert, rewrite of a clean page, eviction,
  // power-loss drop) must have been accounted.
  std::uint64_t dirty_recount = 0;
  for (const PageEntry& entry : slots_) {
    if (entry.lpn != kInvalidLpn && entry.dirty) ++dirty_recount;
  }
  REQB_AUDIT_MSG(report, dirty_recount == dirty_pages_,
                 "dirty counter " + std::to_string(dirty_pages_) +
                     " disagrees with recount " +
                     std::to_string(dirty_recount));

  // Every occupied slot must be the one its LPN points at, and agree with
  // the write oracle: a dirty page holds the newest version outright; a
  // clean page was admitted from flash and every later write would have
  // flipped it dirty in place.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const PageEntry& entry = slots_[slot];
    if (entry.lpn == kInvalidLpn) continue;
    const LpnState* st = lpns_.find(entry.lpn);
    REQB_AUDIT_MSG(report, st != nullptr && st->slot == slot,
                   "slot " + std::to_string(slot) + " holds page " +
                       std::to_string(entry.lpn) +
                       " whose LPN state points elsewhere");
    REQB_AUDIT_MSG(report, entry.version == expected_version(entry.lpn),
                   "page " + std::to_string(entry.lpn) +
                       " cached at version " + std::to_string(entry.version) +
                       ", oracle says " +
                       std::to_string(expected_version(entry.lpn)) +
                       (entry.dirty ? " (dirty)" : " (clean)"));
  }

  // Exact page-set equality: the policy tracks precisely the resident set
  // (so the dirty set, a subset of residency, is fully covered by
  // replacement bookkeeping), each page in the slot the manager gave it
  // and no slot twice.
  std::vector<bool> seen(slots_.size(), false);
  std::size_t policy_pages = 0;
  bool mismatch_logged = false;
  const bool enumerable = policy_->enumerate_pages([&](Lpn lpn, Slot slot) {
    ++policy_pages;
    if (slot < slots_.size() && !seen[slot] && slots_[slot].lpn == lpn) {
      seen[slot] = true;
    } else if (!mismatch_logged) {
      report.fail("policy page in its manager slot",
                  "policy tracks page " + std::to_string(lpn) + " in slot " +
                      std::to_string(slot) +
                      ", which the manager does not hold it in");
      mismatch_logged = true;  // one witness is enough; sizes close the set
    }
  });
  if (enumerable) {
    REQB_AUDIT_MSG(report, policy_pages == cached,
                   "policy enumerates " + std::to_string(policy_pages) +
                       " pages, manager holds " + std::to_string(cached));
  }

  policy_->audit(report);
}

SimTime CacheManager::power_loss(SimTime at, FaultInjector& fault) {
  policy_->on_power_loss();  // release in-flight eviction guards
  std::uint64_t lost_dirty = 0;
  while (policy_->pages() > 0) {
    victim_.clear();
    policy_->select_victim(victim_);
    REQB_CHECK_MSG(!victim_.empty(),
                   "policy withheld pages while draining after power loss");
    for (const Lpn lpn : victim_.pages) {
      LpnState* st = lpns_.find(lpn);
      REQB_CHECK_MSG(st != nullptr && st->slot != kNoSlot,
                     "policy evicted a page the cache does not hold");
      const PageEntry& e = slots_[st->slot];
      if (e.dirty) {
        // The only copy was volatile: the write is gone. Roll the oracle
        // back to the version flash still holds so post-recovery reads
        // verify against the surviving data instead of the lost write.
        ++lost_dirty;
        --dirty_pages_;
        st->version = ftl_.version_of(lpn);
      }
      retire_entry(e);
      release(*st);
    }
  }
  REQB_CHECK(cached_pages() == 0);
  REQB_CHECK_MSG(dirty_pages_ == 0,
                 "dirty-page counter nonzero after a full drain");

  FaultMetrics& fm = fault.metrics();
  ++fm.power_loss_events;
  fm.lost_dirty_pages += lost_dirty;
  const SimTime recovery =
      fault.plan().power_loss_downtime +
      static_cast<SimTime>(lost_dirty) * fault.plan().recovery_replay_per_page;
  fm.recovery_time_total += recovery;
  if (trace_ != nullptr) {
    trace_->emit({at, recovery, 0, lost_dirty, EventKind::kPowerLoss,
                  kTrackManager, 0});
  }
  run_audit("CacheManager", AuditLevel::kLight,
            [this](AuditReport& r) { audit(r, audit_level()); });
  return at + recovery;
}

void CacheManager::finalize() {
  for (const PageEntry& entry : slots_) {
    if (entry.lpn != kInvalidLpn) retire_entry(entry);
  }
}

void CacheManager::set_telemetry(TraceBuffer* trace, Profiler* profiler) {
  trace_ = trace != nullptr && trace->enabled(EventCategory::kCache)
               ? trace
               : nullptr;
  profiler_ = profiler;
  policy_->set_trace(trace);
}

void CacheManager::register_metrics(MetricsRegistry& registry) const {
  registry.register_counter("cache.page_lookups", &metrics_.page_lookups);
  registry.register_counter("cache.page_hits", &metrics_.page_hits);
  registry.register_counter("cache.read_hits", &metrics_.read_hits);
  registry.register_counter("cache.write_hits", &metrics_.write_hits);
  registry.register_counter("cache.inserts", &metrics_.inserts);
  registry.register_counter("cache.read_misses", &metrics_.read_misses);
  registry.register_counter("cache.bypass_pages", &metrics_.bypass_pages);
  registry.register_counter("cache.evictions", &metrics_.evictions);
  registry.register_counter("cache.evicted_pages", &metrics_.evicted_pages);
  registry.register_counter("cache.flushed_pages", &metrics_.flushed_pages);
  registry.register_gauge("cache.hit_ratio",
                          [this] { return metrics_.hit_ratio(); });
  registry.register_gauge("cache.resident_pages", [this] {
    return static_cast<double>(cached_pages());
  });
  registry.register_gauge("cache.dirty_pages", [this] {
    return static_cast<double>(dirty_pages_);
  });
  registry.register_counter("cache.bg_flush_batches",
                            &metrics_.bg_flush_batches);
  registry.register_counter("cache.bg_flush_pages",
                            &metrics_.bg_flush_pages);
  registry.register_gauge("cache.eviction_batch_mean", [this] {
    return metrics_.eviction_batch.mean();
  });
  policy_->register_metrics(registry);
}

void CacheManager::reset_metrics() {
  metrics_ = CacheMetrics{};
  const std::uint32_t buckets = options_.max_tracked_request_pages + 1;
  metrics_.inserts_by_req_size.assign(buckets, 0);
  metrics_.hits_by_req_size.assign(buckets, 0);
  metrics_.pages_retired_by_req_size.assign(buckets, 0);
  metrics_.pages_reused_by_req_size.assign(buckets, 0);
  lookup_since_sample_ = 0;
}

void CacheMetrics::serialize(SnapshotWriter& w) const {
  w.tag("cache_metrics");
  w.u64(page_lookups);
  w.u64(page_hits);
  w.u64(read_hits);
  w.u64(write_hits);
  w.u64(inserts);
  w.u64(read_misses);
  w.u64(bypass_pages);
  w.u64(evictions);
  w.u64(evicted_pages);
  w.u64(flushed_pages);
  w.u64(padding_pages);
  w.u64(bg_flush_batches);
  w.u64(bg_flush_pages);
  reqblock::serialize(w, eviction_batch);
  reqblock::serialize(w, metadata_bytes);
  w.vec_u64(inserts_by_req_size);
  w.vec_u64(hits_by_req_size);
  w.vec_u64(pages_retired_by_req_size);
  w.vec_u64(pages_reused_by_req_size);
}

void CacheMetrics::deserialize(SnapshotReader& r) {
  r.tag("cache_metrics");
  page_lookups = r.u64();
  page_hits = r.u64();
  read_hits = r.u64();
  write_hits = r.u64();
  inserts = r.u64();
  read_misses = r.u64();
  bypass_pages = r.u64();
  evictions = r.u64();
  evicted_pages = r.u64();
  flushed_pages = r.u64();
  padding_pages = r.u64();
  bg_flush_batches = r.u64();
  bg_flush_pages = r.u64();
  reqblock::deserialize(r, eviction_batch);
  reqblock::deserialize(r, metadata_bytes);
  inserts_by_req_size = r.vec_u64();
  hits_by_req_size = r.vec_u64();
  pages_retired_by_req_size = r.vec_u64();
  pages_reused_by_req_size = r.vec_u64();
}

void CacheManager::serialize(SnapshotWriter& w) const {
  w.tag("cache");
  // Resident pages, then the write oracle, both in the LPN table's
  // ascending order.
  w.u64(cached_pages());
  lpns_.for_each([&](Lpn lpn, const LpnState& st) {
    if (st.slot == kNoSlot) return;
    const PageEntry& e = slots_[st.slot];
    w.u64(lpn);
    w.u64(e.version);
    w.u32(e.insert_req_pages);
    w.b(e.dirty);
    w.b(e.reused);
  });
  w.u64(oracle_entries_);
  lpns_.for_each([&](Lpn lpn, const LpnState& st) {
    if (!st.versioned) return;
    w.u64(lpn);
    w.u64(st.version);
  });
  metrics_.serialize(w);
  w.u64(lookup_since_sample_);
  policy_->serialize(w);
}

void CacheManager::deserialize(SnapshotReader& r) {
  r.tag("cache");
  REQB_CHECK_MSG(lpns_.empty(), "deserialize into a non-fresh cache manager");
  // Both lists are written in strictly ascending LPN order, which also
  // rules out repeats; an LPN past kLpnBound is refused before it can
  // size the table.
  const auto next_lpn = [&r](std::uint64_t i, Lpn prev) {
    const Lpn lpn = r.u64();
    if (lpn >= kLpnBound || (i > 0 && lpn <= prev)) {
      throw SnapshotError("cache snapshot LPNs are out of order, repeated, "
                          "or beyond the LPN bound");
    }
    return lpn;
  };
  const std::uint64_t resident = r.count(22);
  if (resident > slots_.size()) {
    throw SnapshotError("cache snapshot holds more pages than the cache");
  }
  Lpn lpn = 0;
  for (std::uint64_t i = 0; i < resident; ++i) {
    lpn = next_lpn(i, lpn);
    PageEntry& e = occupy(lpn, lpns_[lpn]);
    e.version = r.u64();
    e.insert_req_pages = r.u32();
    e.dirty = r.b();
    e.reused = r.b();
    if (e.dirty) ++dirty_pages_;  // derived, not stored
  }
  const std::uint64_t oracle = r.count(16);
  for (std::uint64_t i = 0; i < oracle; ++i) {
    lpn = next_lpn(i, lpn);
    // The field stays u64 in the format; the oracle holds 32 bits.
    const std::uint64_t version = r.u64();
    if (version > Ftl::kMaxVersion) {
      throw SnapshotError("cache snapshot version is beyond 2^32 - 1");
    }
    set_oracle(lpn, static_cast<std::uint32_t>(version));
  }
  metrics_.deserialize(r);
  lookup_since_sample_ = r.u64();
  // The slots were just re-occupied in ascending LPN order; the policy
  // rebinds its slot-indexed state to them.
  policy_->deserialize(r, [this](Lpn lpn) {
    const LpnState* st = lpns_.find(lpn);
    if (st == nullptr || st->slot == kNoSlot) {
      throw SnapshotError("policy snapshot names page " +
                          std::to_string(lpn) +
                          ", which the cache does not hold");
    }
    return static_cast<Slot>(st->slot);
  });
  if (policy_->pages() != cached_pages()) {
    throw SnapshotError("policy snapshot tracks " +
                        std::to_string(policy_->pages()) +
                        " pages, the cache holds " +
                        std::to_string(cached_pages()));
  }
}

}  // namespace reqblock
