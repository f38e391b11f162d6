// Latency-attribution subsystem tests.
//
// The tentpole invariant — every served request's component spans sum
// exactly (integer sim-ns) to its end-to-end latency — is audited per
// request inside SimulationSession under REQBLOCK_AUDIT=full, so the
// policy sweep here simply forces that level and replays a bursty
// workload through every policy, with and without fault injection and
// overload protection: completing without an audit throw IS the
// exactness proof. On top, the aggregate is reconciled against the
// response histogram, snapshot/resume must reproduce the attribution
// section byte for byte, attribution must not perturb simulated timing,
// and the exported Chrome trace must parse under the same strict JSON
// reader perf_diff uses, with the span lanes tiling each request.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../tools/perf_diff/json_mini.h"
#include "cache/policy_factory.h"
#include "sim/report.h"
#include "sim/session.h"
#include "snapshot/snapshot.h"
#include "telemetry/attribution.h"
#include "telemetry/exporters.h"
#include "test_util.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"
#include "util/audit.h"

namespace reqblock::testing {
namespace {

class AuditLevelGuard {
 public:
  explicit AuditLevelGuard(AuditLevel level)
      : previous_(set_audit_level(level)) {}
  ~AuditLevelGuard() { set_audit_level(previous_); }

 private:
  AuditLevel previous_;
};

/// Bursty usr_0-shaped workload: spikes saturate the device so queueing,
/// eviction stalls and GC all carry time.
WorkloadProfile bursty_profile(std::uint64_t requests) {
  WorkloadProfile p = profiles::by_name("usr_0").capped(requests);
  p.burst_arrival_len = 200;
  p.burst_arrival_period = 1000;
  p.burst_arrival_factor = 10.0;
  p.mean_interarrival_ns = static_cast<SimTime>(
      static_cast<double>(p.mean_interarrival_ns) / 4.0);
  return p;
}

SimOptions attribution_options(const std::string& policy, bool faults,
                               bool overload) {
  SimOptions o;
  o.ssd = tiny_ssd();
  o.policy = policy_config(policy, 512);
  o.cache.capacity_pages = o.policy.capacity_pages;
  o.telemetry.attribution = true;
  o.telemetry_env_override = false;
  if (faults) {
    o.fault.seed = 0xF00D;
    o.fault.program_fail_prob = 0.01;
    o.fault.read_fail_prob = 0.01;
    o.fault.power_loss_every_requests = 700;
  }
  if (overload) {
    o.overload.queue_depth = 8;
    o.overload.deadline_ns = 2 * kMillisecond;  // sheds under the bursts
    o.overload.throttle = true;
    o.overload.bg_flush_high = 0.75;
    o.overload.bg_flush_low = 0.50;
  }
  return o;
}

std::uint64_t component_total(const AttributionResult& a) {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : a.component_ns) sum += v;
  return sum;
}

std::string serialized_attribution(const AttributionResult& a) {
  SnapshotWriter w;
  a.serialize(w);
  return w.take();
}

// --- Exact-sum sweep: 8 policies x {faults, overload} ----------------------

class AttributionPolicySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AttributionPolicySweep, ExactSumHoldsUnderFullAudit) {
  AuditLevelGuard audits(AuditLevel::kFull);
  for (const bool faults : {false, true}) {
    for (const bool overload : {false, true}) {
      const SimOptions o = attribution_options(GetParam(), faults, overload);
      SyntheticTraceSource trace(bursty_profile(2000));
      Simulator sim(o);
      RunResult r;
      // The session audits sum(components) == done - host_arrival after
      // every request (warmup included); a violation throws here.
      ASSERT_NO_THROW(r = sim.run(trace))
          << GetParam() << " faults=" << faults << " overload=" << overload;
      const AttributionResult& a = r.attribution;
      ASSERT_TRUE(a.enabled);
      // Shed requests never complete: attribution mirrors the response
      // histogram exactly, not the arrival count.
      EXPECT_EQ(a.requests, r.response.count());
      EXPECT_EQ(a.total_ns, static_cast<std::uint64_t>(r.response.raw_sum()));
      EXPECT_EQ(component_total(a), a.total_ns);
      EXPECT_TRUE(a.consistent());
      if (overload) {
        EXPECT_GT(a.component_ns[static_cast<std::size_t>(
                      AttrComponent::kQueueWait)], 0u)
            << GetParam() << " faults=" << faults;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AttributionPolicySweep,
                         ::testing::ValuesIn(known_policy_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Timing identity: attribution never perturbs the simulation ------------

TEST(Attribution, DoesNotPerturbSimulatedTiming) {
  SimOptions off = attribution_options("reqblock", true, true);
  off.telemetry.attribution = false;
  SimOptions on = off;
  on.telemetry.attribution = true;

  const WorkloadProfile p = bursty_profile(1500);
  SyntheticTraceSource t_off(p), t_on(p);
  RunResult r_off = Simulator(off).run(t_off);
  RunResult r_on = Simulator(on).run(t_on);

  SnapshotWriter w_off, w_on;
  serialize(w_off, r_off.response);
  serialize(w_on, r_on.response);
  EXPECT_EQ(w_off.take(), w_on.take());
  EXPECT_EQ(r_off.sim_end, r_on.sim_end);
  EXPECT_EQ(r_off.flash.host_page_writes, r_on.flash.host_page_writes);
  EXPECT_EQ(r_off.flash.gc_page_moves, r_on.flash.gc_page_moves);
  EXPECT_FALSE(r_off.attribution.enabled);
  EXPECT_TRUE(r_on.attribution.enabled);
}

// --- Snapshot / resume ------------------------------------------------------

TEST(Attribution, SnapshotResumeReproducesAttributionByteForByte) {
  AuditLevelGuard audits(AuditLevel::kFull);
  const SimOptions o = attribution_options("reqblock", true, true);
  const WorkloadProfile p = bursty_profile(1500);

  SyntheticTraceSource t_ref(p);
  SimulationSession ref(o, t_ref);
  while (ref.step()) {
  }
  const RunResult straight = ref.finish();

  SyntheticTraceSource t_a(p), t_b(p);
  SimulationSession a(o, t_a);
  for (int i = 0; i < 700; ++i) ASSERT_TRUE(a.step());
  SnapshotWriter w;
  a.serialize(w);
  const std::string payload = w.take();

  SimulationSession b(o, t_b);
  SnapshotReader r(payload);
  b.deserialize(r);
  r.expect_end();
  while (b.step()) {
  }
  const RunResult resumed = b.finish();

  EXPECT_EQ(straight.response.count(), resumed.response.count());
  EXPECT_EQ(serialized_attribution(straight.attribution),
            serialized_attribution(resumed.attribution));
}

TEST(Attribution, SnapshotDisagreementOnAttributionThrows) {
  const SimOptions on = attribution_options("reqblock", false, false);
  const WorkloadProfile p = bursty_profile(300);
  SyntheticTraceSource t_a(p), t_b(p);
  SimulationSession a(on, t_a);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(a.step());
  SnapshotWriter w;
  a.serialize(w);
  const std::string payload = w.take();

  SimOptions off = on;
  off.telemetry.attribution = false;
  SimulationSession b(off, t_b);
  SnapshotReader r(payload);
  EXPECT_THROW(b.deserialize(r), SnapshotError);
}

// --- Chrome-trace span export ----------------------------------------------

TEST(Attribution, ChromeTraceSpansTileRequestsAndParseStrictly) {
  const WorkloadProfile p = bursty_profile(500);
  SimOptions o = attribution_options("reqblock", false, true);
  o.telemetry.trace.level = TraceLevel::kAll;
  o.telemetry.trace.capacity = 1 << 20;  // hold every event, no overwrite
  SyntheticTraceSource trace(p);
  const RunResult r = Simulator(o).run(trace);

  // The emitted spans of one measured request tile a contiguous interval
  // in enum order; every span sits on a component lane.
  std::map<std::uint64_t, std::vector<TraceEvent>> by_request;
  for (const TraceEvent& e : r.telemetry.events) {
    if (e.kind != EventKind::kAttrSpan) continue;
    EXPECT_LT(e.track, kAttrComponents);
    EXPECT_GT(e.dur, 0);
    by_request[e.arg].push_back(e);
  }
  ASSERT_FALSE(by_request.empty());
  for (const auto& [req, spans] : by_request) {
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].at, spans[i - 1].at + spans[i - 1].dur)
          << "request " << req << " spans do not tile";
      EXPECT_GT(spans[i].track, spans[i - 1].track)
          << "request " << req << " spans out of component order";
    }
  }

  // The export must survive the same strict JSON parser perf_diff uses
  // (one grammar across CI's validators), and carry the attribution
  // process with per-component lanes.
  std::ostringstream os;
  write_chrome_trace(os, r.telemetry.events);
  jsonmini::JsonValue root;
  ASSERT_NO_THROW(root = jsonmini::JsonParser(os.str()).parse());
  const jsonmini::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, jsonmini::JsonValue::Type::kArray);
  std::uint64_t attr_slices = 0;
  std::uint64_t attr_lanes = 0;
  for (const auto& e : events->array) {
    const jsonmini::JsonValue* pid = e.find("pid");
    const jsonmini::JsonValue* name = e.find("name");
    if (pid == nullptr || name == nullptr || pid->number != 4.0) continue;
    if (name->text == "attr_span") ++attr_slices;
    if (name->text == "thread_name") {
      const jsonmini::JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      const jsonmini::JsonValue* lane = args->find("name");
      ASSERT_NE(lane, nullptr);
      bool known = false;
      for (std::size_t c = 0; c < kAttrComponents; ++c) {
        known |= lane->text == to_string(static_cast<AttrComponent>(c));
      }
      EXPECT_TRUE(known) << "unexpected attribution lane " << lane->text;
      ++attr_lanes;
    }
  }
  EXPECT_GT(attr_slices, 0u);
  EXPECT_GT(attr_lanes, 1u);
}

// --- Aggregation, tail slices, reports -------------------------------------

TEST(AttributionResult, TailSliceAndRanking) {
  AttributionResult a;
  a.prepare();
  RequestBreakdown fast;
  fast[AttrComponent::kCacheLookup] = 100;
  for (int i = 0; i < 90; ++i) a.record(fast, 100);
  RequestBreakdown slow;
  slow[AttrComponent::kGc] = 900;
  slow[AttrComponent::kFtlProgram] = 100;
  for (int i = 0; i < 10; ++i) a.record(slow, 1000);
  ASSERT_TRUE(a.consistent());

  const TailSlice decile = tail_slice(a, 0.10);
  EXPECT_EQ(decile.requests, 10u);
  EXPECT_EQ(decile.total_ns, 10u * 1000u);
  EXPECT_EQ(decile.component_ns[static_cast<std::size_t>(AttrComponent::kGc)],
            10u * 900u);
  const auto ranked = rank_components(decile);
  EXPECT_EQ(ranked[0], static_cast<std::size_t>(AttrComponent::kGc));
  EXPECT_EQ(ranked[1], static_cast<std::size_t>(AttrComponent::kFtlProgram));

  const TailSlice all = tail_slice(a, 1.0);
  EXPECT_EQ(all.requests, 100u);
  EXPECT_EQ(all.total_ns, 90u * 100u + 10u * 1000u);

  // Round-trip the aggregate and clear it.
  SnapshotWriter w;
  a.serialize(w);
  const std::string bytes = w.take();
  AttributionResult back;
  SnapshotReader r(bytes);
  back.deserialize(r);
  r.expect_end();
  EXPECT_EQ(serialized_attribution(back), bytes);
  a.clear();
  EXPECT_EQ(a.requests, 0u);
  EXPECT_TRUE(a.enabled);
  EXPECT_TRUE(a.consistent());
}

TEST(AttributionResult, ConsistentPastTwoToThe53Nanoseconds) {
  // An overloaded run's summed latency can pass 2^53 ns. Its u64
  // components still add up exactly; the histograms' double sums round.
  // Once the GC sum sits at 2^53, each further 1 ns rounds away.
  AttributionResult a;
  a.prepare();
  RequestBreakdown huge;
  huge[AttrComponent::kGc] = SimTime{1} << 53;
  huge[AttrComponent::kQueueWait] = 7;
  a.record(huge, (SimTime{1} << 53) + 7);
  RequestBreakdown tiny;
  tiny[AttrComponent::kGc] = 1;
  tiny[AttrComponent::kQueueWait] = 7;
  for (int i = 0; i < 5; ++i) a.record(tiny, 8);
  const auto gc = static_cast<std::size_t>(AttrComponent::kGc);
  ASSERT_GT(a.component_ns[gc], std::uint64_t{1} << 53);
  ASSERT_NE(a.component_hist[gc].raw_sum(),
            static_cast<double>(a.component_ns[gc]));  // it did round
  EXPECT_TRUE(a.consistent());

  // Above 2^53 a sum off by more than the rounding is still refused...
  const auto corrupt_sum = [](LogHistogram& h, double delta) {
    h.restore(h.raw_buckets(), h.count(), h.raw_sum() + delta, h.raw_min(),
              h.raw_max());
  };
  AttributionResult far = a;
  corrupt_sum(far.component_hist[gc], 1e6);
  EXPECT_FALSE(far.consistent());
  // ...and below it equality stays exact.
  AttributionResult small = a;
  corrupt_sum(small.component_hist[static_cast<std::size_t>(
                  AttrComponent::kQueueWait)],
              1.0);
  EXPECT_FALSE(small.consistent());
}

TEST(TailAttributionReport, SilentWithoutAttributionRendersWithIt) {
  RunResult plain;
  plain.trace_name = "t";
  plain.policy_name = "p";
  std::ostringstream empty_os;
  write_tail_attribution(empty_os, {plain});
  EXPECT_TRUE(empty_os.str().empty());
  std::ostringstream empty_csv;
  write_tail_attribution_csv(empty_csv, {plain});
  EXPECT_EQ(empty_csv.str(),
            "trace,policy,slice_pct,slice_requests,threshold_ns,"
            "slice_total_ns,component,component_ns,share\n");

  SimOptions o = attribution_options("reqblock", false, false);
  SyntheticTraceSource trace(bursty_profile(500));
  const RunResult r = Simulator(o).run(trace);
  std::ostringstream os;
  write_tail_attribution(os, {r});
  EXPECT_NE(os.str().find("Tail attribution"), std::string::npos);
  EXPECT_NE(os.str().find("slowest 10%"), std::string::npos);
  EXPECT_NE(os.str().find("slowest 1%"), std::string::npos);
  std::ostringstream csv1, csv2;
  write_tail_attribution_csv(csv1, {r});
  write_tail_attribution_csv(csv2, {r});
  EXPECT_EQ(csv1.str(), csv2.str());  // byte-stable
  // 1 header + 2 slices x 8 components.
  std::size_t lines = 0;
  for (const char c : csv1.str()) lines += c == '\n';
  EXPECT_EQ(lines, 1u + 2u * kAttrComponents);
}

}  // namespace
}  // namespace reqblock::testing
