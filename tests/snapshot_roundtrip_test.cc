// Snapshot round-trips, layer by layer: writer/reader primitives, the
// on-disk container, every cache policy, and a faulted FTL must all
// survive serialize → deserialize → serialize with byte-identical output
// and pass their deep structural audits afterwards.
#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache_manager.h"
#include "cache/policy_factory.h"
#include "fault/fault.h"
#include "ssd/ftl.h"
#include "test_util.h"
#include "util/audit.h"
#include "util/rng.h"

namespace reqblock {
namespace {

struct FullAuditScope {
  AuditLevel previous = set_audit_level(AuditLevel::kFull);
  ~FullAuditScope() { set_audit_level(previous); }
};

// --- Writer / reader primitives -------------------------------------------

TEST(SnapshotPrimitivesTest, AllTypesRoundTrip) {
  SnapshotWriter w;
  w.tag("prims");
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.25);
  w.b(true);
  w.str("hello");
  w.vec_u64({1, 2, 3});
  w.vec_u32({7, 8});

  SnapshotReader r(w.buffer());
  r.tag("prims");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.vec_u32(), (std::vector<std::uint32_t>{7, 8}));
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(SnapshotPrimitivesTest, TagMismatchThrows) {
  SnapshotWriter w;
  w.tag("ftl");
  SnapshotReader r(w.buffer());
  EXPECT_THROW(r.tag("cache"), SnapshotError);
}

TEST(SnapshotPrimitivesTest, TruncatedReadThrows) {
  SnapshotWriter w;
  w.u64(7);
  const std::string bytes = w.buffer().substr(0, 3);
  SnapshotReader r(bytes);
  EXPECT_THROW(r.u64(), SnapshotError);
}

TEST(SnapshotPrimitivesTest, LeftoverBytesDetected) {
  SnapshotWriter w;
  w.u64(7);
  w.u64(8);
  SnapshotReader r(w.buffer());
  r.u64();
  EXPECT_THROW(r.expect_end(), SnapshotError);
}

TEST(SnapshotPrimitivesTest, CountGuardRejectsOversizedCount) {
  // A corrupt element count must fail as SnapshotError before it can
  // drive a multi-gigabyte allocation.
  SnapshotWriter w;
  w.u64(1ULL << 40);
  SnapshotReader r(w.buffer());
  EXPECT_THROW(r.count(8), SnapshotError);

  SnapshotWriter ok;
  ok.u64(2);
  ok.u64(1);
  ok.u64(2);
  SnapshotReader r2(ok.buffer());
  EXPECT_EQ(r2.count(8), 2u);
}

TEST(SnapshotPrimitivesTest, RngRoundTripContinuesIdentically) {
  Rng a(12345);
  for (int i = 0; i < 100; ++i) a.next_u64();

  SnapshotWriter w;
  serialize(w, a);
  Rng b(1);  // different seed: state must come from the snapshot
  SnapshotReader r(w.buffer());
  deserialize(r, b);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// --- On-disk container -----------------------------------------------------

SnapshotHeader header_for_test() {
  SnapshotHeader h;
  h.kind = "run-checkpoint";
  h.config_hash = 0x1111;
  h.trace_hash = 0x2222;
  h.sequence = 42;
  return h;
}

TEST(SnapshotContainerTest, EncodeDecodeRoundTrip) {
  const std::string payload = "payload bytes";
  const std::string file = encode_snapshot(header_for_test(), payload);

  SnapshotHeader decoded;
  EXPECT_EQ(decode_snapshot(file, decoded), payload);
  EXPECT_EQ(decoded.kind, "run-checkpoint");
  EXPECT_EQ(decoded.config_hash, 0x1111u);
  EXPECT_EQ(decoded.trace_hash, 0x2222u);
  EXPECT_EQ(decoded.sequence, 42u);
}

TEST(SnapshotContainerTest, RejectsBadMagic) {
  std::string file = encode_snapshot(header_for_test(), "x");
  file[0] = 'X';
  SnapshotHeader h;
  EXPECT_THROW(decode_snapshot(file, h), SnapshotError);
}

TEST(SnapshotContainerTest, RejectsTruncation) {
  const std::string file = encode_snapshot(header_for_test(), "payload");
  SnapshotHeader h;
  for (const std::size_t keep : {std::size_t{4}, file.size() - 3}) {
    EXPECT_THROW(decode_snapshot(file.substr(0, keep), h), SnapshotError);
  }
}

TEST(SnapshotContainerTest, RejectsFlippedPayloadBit) {
  std::string file = encode_snapshot(header_for_test(), "payload");
  file.back() = static_cast<char>(file.back() ^ 0x01);
  SnapshotHeader h;
  EXPECT_THROW(decode_snapshot(file, h), SnapshotError);
}

TEST(SnapshotContainerTest, RejectsFutureFormatVersion) {
  SnapshotHeader h = header_for_test();
  h.format_version = kSnapshotFormatVersion + 1;
  const std::string file = encode_snapshot(h, "x");
  SnapshotHeader decoded;
  EXPECT_THROW(decode_snapshot(file, decoded), SnapshotError);
}

TEST(SnapshotContainerTest, IdentityRefusal) {
  const SnapshotHeader h = header_for_test();
  EXPECT_NO_THROW(
      require_snapshot_identity(h, "run-checkpoint", 0x1111, 0x2222, "t"));
  EXPECT_THROW(
      require_snapshot_identity(h, "case-result", 0x1111, 0x2222, "t"),
      SnapshotError);
  EXPECT_THROW(
      require_snapshot_identity(h, "run-checkpoint", 0x9999, 0x2222, "t"),
      SnapshotError);
  EXPECT_THROW(
      require_snapshot_identity(h, "run-checkpoint", 0x1111, 0x9999, "t"),
      SnapshotError);
}

// --- Cache layer: every policy through the manager -------------------------

// Mixed request shapes (sizes 1..17 pages, hot reuse, reads) so every
// policy exercises its interesting paths: Req-block splits/promotions,
// BPLRU block fills, VBBMS/FAB block grouping, CFLRU clean-first windows.
std::vector<IoRequest> workload(std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<IoRequest> reqs;
  reqs.reserve(n);
  SimTime at = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    at += 20 * kMicrosecond;
    const bool read = rng.next_double() < 0.25;
    const Lpn lpn = rng.next_u64() % (rng.next_double() < 0.5 ? 512 : 8192);
    const auto pages = static_cast<std::uint32_t>(1 + rng.next_u64() % 17);
    reqs.push_back(read ? testing::read_req(i, lpn, pages, at)
                        : testing::write_req(i, lpn, pages, at));
  }
  return reqs;
}

TEST(SnapshotCacheTest, EveryPolicyRoundTripsAndContinuesIdentically) {
  FullAuditScope audit_scope;
  for (const std::string& name : known_policy_names()) {
    SCOPED_TRACE(name);
    const auto cfg = testing::policy_config(name, 256);

    testing::Harness original(cfg);
    const auto reqs = workload(600, 99);
    for (const auto& r : reqs) original.serve(r);

    SnapshotWriter w1;
    original.ftl.serialize(w1);
    original.cache->serialize(w1);

    testing::Harness restored(cfg);
    SnapshotReader r1(w1.buffer());
    restored.ftl.deserialize(r1);
    restored.cache->deserialize(r1);
    EXPECT_TRUE(r1.at_end());

    // Equal logical state must re-serialize to equal bytes.
    SnapshotWriter w2;
    restored.ftl.serialize(w2);
    restored.cache->serialize(w2);
    EXPECT_EQ(w1.buffer(), w2.buffer());

    // The restored stack passes the same deep audit as the original.
    AuditReport report("restored " + name);
    restored.cache->audit(report, AuditLevel::kFull);
    EXPECT_TRUE(report.ok()) << report.to_string();

    // And continues bit-identically under further traffic.
    const auto more = workload(300, 7);
    for (const auto& r : more) {
      IoRequest shifted = r;
      shifted.id += reqs.size();
      shifted.arrival += reqs.back().arrival;
      EXPECT_EQ(original.serve(shifted), restored.serve(shifted));
    }
    SnapshotWriter wa;
    SnapshotWriter wb;
    original.cache->serialize(wa);
    restored.cache->serialize(wb);
    EXPECT_EQ(wa.buffer(), wb.buffer());
  }
}

// The policy rebinds its slots from the manager's restored residency, so
// its snapshot must name exactly the pages the cache section holds: a page
// the cache does not hold, or a page the policy leaves out, is refused.
TEST(SnapshotCacheTest, PolicyAndCacheMustHoldTheSamePages) {
  for (const std::string& name : known_policy_names()) {
    SCOPED_TRACE(name);
    const auto cfg = testing::policy_config(name, 64);
    testing::Harness holds_page_5(cfg);
    holds_page_5.serve(testing::write_req(0, 5, 1));
    testing::Harness empty(cfg);
    const auto refusal = [&](bool cache_holds_5,
                             const testing::Harness& policy_from) {
      SnapshotWriter w;
      w.tag("cache");
      w.u64(cache_holds_5 ? 1 : 0);
      if (cache_holds_5) {
        w.u64(5);  // lpn
        w.u64(1);  // version
        w.u32(1);  // inserting request's pages
        w.b(true);
        w.b(false);
      }
      w.u64(1);  // one oracle entry
      w.u64(5);
      w.u64(1);
      empty.cache->metrics().serialize(w);
      w.u64(0);  // lookups since the last metadata sample
      policy_from.cache->policy().serialize(w);
      testing::Harness h(cfg);
      SnapshotReader r(w.buffer());
      try {
        h.cache->deserialize(r);
      } catch (const SnapshotError& e) {
        return std::string(e.what());
      }
      return std::string("accepted");
    };
    EXPECT_EQ(refusal(true, holds_page_5), "accepted");
    EXPECT_NE(refusal(false, holds_page_5).find("does not hold"),
              std::string::npos);
    EXPECT_NE(refusal(true, empty).find("tracks 0 pages"), std::string::npos);
  }
}

TEST(SnapshotCacheTest, DeserializeIntoUsedManagerIsRejected) {
  const auto cfg = testing::policy_config("lru", 64);
  testing::Harness a(cfg);
  a.serve(testing::write_req(0, 0, 4));
  SnapshotWriter w;
  a.cache->serialize(w);

  testing::Harness b(cfg);
  b.serve(testing::write_req(0, 9, 1));  // no longer fresh
  SnapshotReader r(w.buffer());
  EXPECT_THROW(b.cache->deserialize(r), std::exception);
}

// --- Untrusted LPNs ----------------------------------------------------------

// A restore must refuse an LPN past kLpnBound (or out of the written
// ascending order) with SnapshotError before it can size any table.
TEST(SnapshotLpnBoundTest, FtlRestoreRefusesLpnsBeyondTheBound) {
  const auto ftl_bytes = [](std::vector<Lpn> lpns) {
    SnapshotWriter w;
    w.tag("ftl");
    w.u64(lpns.size());
    for (const Lpn lpn : lpns) {
      w.u64(lpn);
      w.u64(0);  // ppn
    }
    return w.take();
  };
  for (const auto& lpns : std::vector<std::vector<Lpn>>{
           {kLpnBound}, {~Lpn{0}}, {3, kLpnBound + 1}, {9, 9}, {9, 4}}) {
    Ftl ftl(testing::tiny_ssd());
    const std::string bytes = ftl_bytes(lpns);
    SnapshotReader r(bytes);
    EXPECT_THROW(ftl.deserialize(r), SnapshotError) << lpns.back();
  }
}

TEST(SnapshotLpnBoundTest, CacheRestoreRefusesLpnsBeyondTheBound) {
  const auto cfg = testing::policy_config("lru", 64);
  for (const Lpn bad : {kLpnBound, ~Lpn{0}}) {
    for (const bool resident : {true, false}) {
      SnapshotWriter w;
      w.tag("cache");
      if (resident) {
        w.u64(1);
        w.u64(bad);
        w.u64(1);  // version
        w.u32(1);
        w.b(true);
        w.b(false);
      } else {
        w.u64(0);  // no resident pages
        w.u64(1);  // one oracle entry
        w.u64(bad);
        w.u64(1);
      }
      testing::Harness h(cfg);
      const std::string bytes = w.take();
      SnapshotReader r(bytes);
      EXPECT_THROW(h.cache->deserialize(r), SnapshotError);
      EXPECT_EQ(h.cache->cached_pages(), 0u);
    }
  }
}

TEST(SnapshotLpnBoundTest, CacheRestoreRefusesMorePagesThanTheCacheHolds) {
  const auto cfg = testing::policy_config("lru", 4);
  SnapshotWriter w;
  w.tag("cache");
  w.u64(5);
  for (Lpn lpn = 0; lpn < 5; ++lpn) {
    w.u64(lpn);
    w.u64(1);
    w.u32(1);
    w.b(true);
    w.b(false);
  }
  testing::Harness h(cfg);
  const std::string bytes = w.take();
  SnapshotReader r(bytes);
  EXPECT_THROW(h.cache->deserialize(r), SnapshotError);
}

TEST(SnapshotLpnBoundTest, LiveRequestBeyondTheBoundIsRefused) {
  testing::Harness h(testing::policy_config("reqblock", 64));
  EXPECT_THROW(h.serve(testing::write_req(0, kLpnBound - 1, 2)),
               std::logic_error);
  EXPECT_THROW(h.serve(testing::read_req(1, kLpnBound, 1)), std::logic_error);
  EXPECT_THROW(h.serve(testing::write_req(2, ~Lpn{0}, 1)), std::logic_error);
  EXPECT_EQ(h.cache->cached_pages(), 0u);
  EXPECT_EQ(h.cache->metrics().page_lookups, 0u);
  EXPECT_THROW(h.ftl.program_page(kLpnBound, 1, 0), std::logic_error);
  EXPECT_EQ(h.ftl.mapped_pages(), 0u);
}

// --- 32-bit mapping and oracle entries -------------------------------------

// The snapshot fields stay u64, so a restore must refuse a physical page or
// a version that does not fit the 32-bit entries, instead of truncating it.
TEST(SnapshotEntryLimitTest, FtlRestoreRefusesPpnOrVersionPast32Bits) {
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  const auto ftl_bytes = [](std::uint64_t ppn, std::uint64_t version) {
    SnapshotWriter w;
    w.tag("ftl");
    w.u64(1);
    w.u64(7);  // lpn
    w.u64(ppn);
    w.u64(1);
    w.u64(7);
    w.u64(version);
    return w.take();  // truncated past the version list
  };
  const auto refusal = [&](std::uint64_t ppn, std::uint64_t version) {
    Ftl ftl(testing::tiny_ssd());
    const std::string bytes = ftl_bytes(ppn, version);
    SnapshotReader r(bytes);
    try {
      ftl.deserialize(r);
    } catch (const SnapshotError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(refusal(k32, 1).find("physical page is beyond"),
            std::string::npos);
  EXPECT_NE(refusal(~std::uint64_t{0}, 1).find("physical page is beyond"),
            std::string::npos);
  EXPECT_NE(refusal(0, k32).find("version is beyond"), std::string::npos);
  // The largest 32-bit values pass both checks; the bytes then run out.
  EXPECT_EQ(refusal(k32 - 1, k32 - 1).find("is beyond"), std::string::npos);
}

TEST(SnapshotEntryLimitTest, CacheRestoreRefusesVersionPast32Bits) {
  const auto cfg = testing::policy_config("lru", 64);
  for (const std::uint64_t bad : {std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    SnapshotWriter w;
    w.tag("cache");
    w.u64(0);  // no resident pages
    w.u64(1);  // one oracle entry
    w.u64(5);
    w.u64(bad);
    testing::Harness h(cfg);
    const std::string bytes = w.take();
    SnapshotReader r(bytes);
    EXPECT_THROW(h.cache->deserialize(r), SnapshotError) << bad;
  }
}

// A write that would take an LPN's version past 2^32 - 1 is refused; the
// version does not wrap to 0.
TEST(SnapshotEntryLimitTest, WritePastTheLastVersionIsRefused) {
  const auto cfg = testing::policy_config("lru", 64);
  testing::Harness fresh(cfg);
  SnapshotWriter w;
  w.tag("cache");
  w.u64(0);  // no resident pages
  w.u64(2);  // two oracle entries, at and one below the last version
  w.u64(5);
  w.u64(Ftl::kMaxVersion);
  w.u64(6);
  w.u64(Ftl::kMaxVersion - 1);
  fresh.cache->metrics().serialize(w);
  w.u64(0);  // lookups since the last metadata sample
  fresh.cache->policy().serialize(w);

  testing::Harness h(cfg);
  SnapshotReader r(w.buffer());
  h.cache->deserialize(r);
  EXPECT_TRUE(r.at_end());

  h.serve(testing::write_req(0, 6, 1));
  EXPECT_EQ(h.cache->expected_version(6), Ftl::kMaxVersion);
  EXPECT_THROW(h.serve(testing::write_req(1, 5, 1)), std::logic_error);
  EXPECT_EQ(h.cache->expected_version(5), Ftl::kMaxVersion);
  EXPECT_THROW(h.serve(testing::write_req(2, 6, 1)), std::logic_error);
  EXPECT_EQ(h.cache->expected_version(6), Ftl::kMaxVersion);
  EXPECT_EQ(h.cache->cached_pages(), 1u);  // only the accepted write
}

// --- FTL + flash array under fault injection --------------------------------

TEST(SnapshotFtlTest, FaultedDeviceRoundTripsWithRetiredBlocks) {
  FullAuditScope audit_scope;
  FaultPlan plan;
  plan.seed = 11;
  plan.program_fail_prob = 0.2;
  plan.erase_fail_prob = 0.3;
  plan.max_program_retries = 1;
  plan.spare_blocks_per_plane = 1;  // exhaust spares fast → degraded planes

  Ftl original(testing::micro_ssd());
  FaultInjector inj(plan);
  original.set_fault_injector(&inj);

  // Hammer a small LPN space so GC erases (and fails, and retires) a lot.
  Rng rng(3);
  SimTime at = 0;
  for (int i = 0; i < 4000; ++i) {
    at += 30 * kMicrosecond;
    original.program_page(rng.next_u64() % 600, 1 + i, at);
  }
  ASSERT_GT(original.array().retired_blocks(), 0u);
  ASSERT_GT(inj.metrics().degraded_planes, 0u);

  SnapshotWriter w1;
  original.serialize(w1);
  inj.serialize(w1);

  Ftl restored(testing::micro_ssd());
  FaultInjector inj2(plan);
  restored.set_fault_injector(&inj2);
  SnapshotReader r(w1.buffer());
  restored.deserialize(r);
  inj2.deserialize(r);
  EXPECT_TRUE(r.at_end());

  SnapshotWriter w2;
  restored.serialize(w2);
  inj2.serialize(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());

  AuditReport report("restored faulted ftl");
  restored.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Same RNG stream, same timelines: the next operations match exactly.
  for (int i = 0; i < 500; ++i) {
    at += 30 * kMicrosecond;
    const Lpn lpn = rng.next_u64() % 600;
    EXPECT_EQ(original.program_page(lpn, 5000 + i, at),
              restored.program_page(lpn, 5000 + i, at));
  }
  EXPECT_EQ(original.array().retired_blocks(),
            restored.array().retired_blocks());
  EXPECT_EQ(inj.metrics().program_faults, inj2.metrics().program_faults);
}

}  // namespace
}  // namespace reqblock
