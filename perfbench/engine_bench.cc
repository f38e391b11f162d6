// engine_bench: one replay of one benchmark workload, in one process.
//
//   engine_bench --workload write-heavy|read-mostly|aged-gc --seed N
//                [--traced 0|1]
//
// Builds the workload's request stream from the seed, replays it once
// through the public SimulationSession API, checks the outputs against
// computations made here (stream counts, a reference LRU model,
// conservation identities), and prints one JSON object on stdout:
//   "host"   wall-clock figures of this process (set-up, replay, teardown,
//            memory); noisy, summarised over fresh processes by run.py;
//   "sim"    simulated results, exact and deterministic for a seed;
//   "layers" per-layer figures: the self-profiler, latency attribution and
//            per-step timing (filled only with --traced 1);
//   "checks" every check with its verdict.
// Exit status 0 when every check passed, 1 when one failed, 2 on bad usage
// or an environment that would distort the measurement.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lru_model.h"
#include "sim/session.h"
#include "snapshot/snapshot.h"
#include "trace/profiles.h"
#include "util/audit.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using reqblock::IoRequest;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Resident set of this process now, MiB (from /proc/self/statm).
double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Peak resident set of this process so far, MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t seed) {
  // splitmix64 finaliser: nearby benchmark seeds give unrelated streams.
  std::uint64_t z = base ^ (seed + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Workload {
  reqblock::WorkloadProfile profile;
  reqblock::SimOptions options;
};

/// The three workloads. Sizes and plans are documented in README.md.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool traced) {
  Workload w;
  if (name == "write-heavy") {
    w.profile = reqblock::profiles::proj_0();
    w.profile.total_requests = 300000;
    w.options = reqblock::make_sim_options("reqblock", 16);
  } else if (name == "read-mostly") {
    w.profile = reqblock::profiles::hm_1();
    w.profile.total_requests = 600000;
    w.options = reqblock::make_sim_options("lru", 16);
  } else if (name == "aged-gc") {
    // The drifting usr_0 cell of bench_integrity, shrunk so that GC is in
    // steady state by the end of the first quarter: half the cold stream
    // space, hot extents 16 pages apart, a 1 GB pre-aged device, and a
    // 2 ms mean arrival gap. A parity stripe of one page rebuilds every
    // retry escape, so no read is lost (README.md, "aged-gc").
    w.profile = reqblock::profiles::usr_0();
    w.profile.total_requests = 1500000;
    w.profile.hot_extents = 2000;
    w.profile.hot_slot_stride = 16;
    w.profile.cold_stream_pages = 1ULL << 15;
    w.profile.drift_period = 50000;
    w.profile.drift_step = 211;
    w.profile.mean_interarrival_ns = 2 * reqblock::kMillisecond;
    w.options = reqblock::make_sim_options("reqblock", 8);
    w.options.ssd.capacity_bytes = 1ULL << 30;
    w.options.telemetry.attribution = true;
    reqblock::FaultPlan& f = w.options.fault;
    f.seed = 0xecc5;
    reqblock::IntegrityPlan& in = f.integrity;
    in.rber_base = 0.01;
    in.rber_pe_anchor = 3000;
    in.rber_pe_boost = 20.0;
    in.rber_read_anchor = 256;
    in.rber_read_boost = 2.0;
    in.ecc_escape = 0.10;
    in.read_retry_steps = 3;
    in.retry_relief = 0.25;
    in.stripe_pages = 1;
    in.scrub_every_requests = 20000;
    in.scrub_rber_threshold = 0.05;
    f.aging.rated_pe_cycles = 3000;
    f.aging.initial_pe_cycles = 2700;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.profile.seed = mix_seed(w.profile.seed, seed);
  // A stray REQBLOCK_TRACE in the caller's shell must not switch event
  // tracing on behind the benchmark's back.
  w.options.telemetry_env_override = false;
  w.options.cache.verify_consistency = true;
  w.options.warmup_requests = 0;
  if (traced) {
    w.options.telemetry.profile = true;
    w.options.telemetry.attribution = true;
  }
  return w;
}

/// A request stream generated up front, so generation is timed as set-up
/// and the benchmark keeps its own copy to count from.
class MaterializedTrace final : public reqblock::TraceSource {
 public:
  explicit MaterializedTrace(const reqblock::WorkloadProfile& profile) {
    reqblock::SyntheticTraceSource src(profile);
    requests_ = src.collect();
    ranges_ = src.preexisting_ranges();
    name_ = src.name();
    hash_ = src.identity_hash();
  }

  bool next(IoRequest& out) override {
    if (pos_ >= requests_.size()) return false;
    out = requests_[pos_++];
    return true;
  }
  void reset() override { pos_ = 0; }
  std::string name() const override { return name_; }
  std::vector<std::pair<reqblock::Lpn, reqblock::Lpn>> preexisting_ranges()
      const override {
    return ranges_;
  }
  std::uint64_t identity_hash() const override { return hash_; }
  void serialize(reqblock::SnapshotWriter& w) const override {
    w.tag("materialized_trace");
    w.u64(pos_);
  }
  void deserialize(reqblock::SnapshotReader& r) override {
    r.tag("materialized_trace");
    pos_ = static_cast<std::size_t>(r.u64());
  }

  const std::vector<IoRequest>& requests() const { return requests_; }

 private:
  std::vector<IoRequest> requests_;
  std::vector<std::pair<reqblock::Lpn, reqblock::Lpn>> ranges_;
  std::string name_;
  std::uint64_t hash_ = 0;
  std::size_t pos_ = 0;
};

/// Measured requests and the sum of their response times so far, read
/// from the head of a session checkpoint (the "partial_result" block).
struct Prefix {
  std::uint64_t requests = 0;
  double sum_ns = 0.0;
};

Prefix read_prefix(const reqblock::SimulationSession& session) {
  reqblock::SnapshotWriter w;
  session.serialize(w);
  reqblock::SnapshotReader r(w.buffer());
  r.tag("session");
  for (int i = 0; i < 2; ++i) r.u64();  // served, warmup requests
  for (int i = 0; i < 2; ++i) r.b();    // warmup done, finished
  for (int i = 0; i < 5; ++i) r.i64();  // resume, snapshot, warmup, arb
  for (int k = 0; k < 2; ++k) {         // warmup channel/chip busy
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) r.i64();
  }
  r.tag("partial_result");
  Prefix p;
  p.requests = r.u64();
  r.u64();  // read requests
  r.u64();  // write requests
  reqblock::LogHistogram response;
  reqblock::deserialize(r, response);
  if (response.count() != p.requests) {
    throw std::runtime_error("checkpoint prefix disagrees with itself");
  }
  p.sum_ns = response.raw_sum();
  return p;
}

/// Minimal JSON object writer: keys in insertion order, numbers printed
/// with every digit so equal results print equal text.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& u64(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return raw(key, q + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& obj(const std::string& key, const JsonObject& o) {
    return raw(key, o.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

class Checks {
 public:
  void expect(const std::string& name, bool ok, const std::string& detail) {
    out_.boolean(name, ok);
    if (!ok) {
      all_ok_ = false;
      std::cerr << "engine_bench: check failed: " << name << ": " << detail
                << "\n";
    }
  }
  void equal(const std::string& name, std::uint64_t got, std::uint64_t want) {
    expect(name, got == want,
           "got " + std::to_string(got) + ", expected " +
               std::to_string(want));
  }
  bool all_ok() const { return all_ok_; }
  const JsonObject& json() const { return out_; }

 private:
  JsonObject out_;
  bool all_ok_ = true;
};

struct StreamCounts {
  std::uint64_t requests = 0, reads = 0, writes = 0;
  std::uint64_t read_pages = 0, write_pages = 0;
};

StreamCounts count_stream(const std::vector<IoRequest>& requests) {
  StreamCounts s;
  for (const IoRequest& r : requests) {
    ++s.requests;
    if (r.is_write()) {
      ++s.writes;
      s.write_pages += r.pages;
    } else {
      ++s.reads;
      s.read_pages += r.pages;
    }
  }
  return s;
}

int run(const std::string& workload, std::uint64_t seed, bool traced) {
  // The default audit level does light per-request counter checks; a
  // stray REQBLOCK_AUDIT=full would time a different program.
  const reqblock::AuditLevel audit = reqblock::audit_level();
  if (audit != reqblock::AuditLevel::kLight) {
    std::cerr << "engine_bench: audit level is '" << reqblock::to_string(audit)
              << "', not the default 'light'; refusing to time this run "
                 "(unset REQBLOCK_AUDIT)\n";
    return 2;
  }

  const double rss_start = current_rss_mb();
  const Clock::time_point t_start = Clock::now();
  const Workload w = make_workload(workload, seed, traced);
  auto trace = std::make_unique<MaterializedTrace>(w.profile);
  const double gen_s = seconds_since(t_start);
  const Clock::time_point t_construct = Clock::now();
  auto session =
      std::make_unique<reqblock::SimulationSession>(w.options, *trace);
  const double construct_s = seconds_since(t_construct);
  const double setup_s = seconds_since(t_start);
  const double rss_setup = current_rss_mb();

  // Replay. On aged-gc the loop pauses (untimed) at the quarter marks to
  // read the response-time prefix sums out of a session checkpoint.
  const std::uint64_t total = trace->requests().size();
  std::vector<std::uint64_t> stops;
  if (workload == "aged-gc") stops = {total / 4, total / 2, total * 3 / 4};
  stops.push_back(total + 1);  // through the step() that reports the end
  std::vector<Prefix> marks;
  std::vector<std::uint32_t> step_ns;
  if (traced) step_ns.reserve(total);
  double replay_s = 0.0;
  std::uint64_t steps = 0;
  for (const std::uint64_t stop : stops) {
    const Clock::time_point t0 = Clock::now();
    if (traced) {
      for (; steps < stop; ++steps) {
        const Clock::time_point a = Clock::now();
        const bool more = session->step();
        const Clock::time_point b = Clock::now();
        if (!more) break;
        step_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count(),
            UINT32_MAX)));
      }
    } else {
      while (steps < stop && session->step()) ++steps;
    }
    replay_s += seconds_since(t0);
    if (stop <= total) marks.push_back(read_prefix(*session));
  }
  const double rss_replay = current_rss_mb();

  const Clock::time_point t_finish = Clock::now();
  const reqblock::RunResult r = session->finish();
  const double finish_s = seconds_since(t_finish);

  // ---- Checks, untimed: everything below reads results, nothing runs.
  Checks checks;
  const StreamCounts s = count_stream(trace->requests());
  const reqblock::CacheMetrics& c = r.cache;
  const reqblock::FlashMetrics& fl = r.flash;
  checks.equal("stream.requests", r.requests, s.requests);
  checks.equal("stream.steps", steps, s.requests);
  checks.equal("stream.read_requests", r.read_requests, s.reads);
  checks.equal("stream.write_requests", r.write_requests, s.writes);
  checks.equal("stream.page_lookups", c.page_lookups,
               s.read_pages + s.write_pages);
  checks.equal("conserve.write_pages", c.write_hits + c.inserts + c.bypass_pages,
               s.write_pages);
  checks.equal("conserve.read_pages", c.read_hits + c.read_misses,
               s.read_pages);
  checks.equal("conserve.hits", c.read_hits + c.write_hits, c.page_hits);
  checks.equal("conserve.host_page_writes", fl.host_page_writes,
               c.flushed_pages + c.padding_pages + c.bypass_pages);
  checks.expect("consistency_oracle_on",
                session->options().cache.verify_consistency,
                "CacheOptions::verify_consistency is off");
  checks.expect("telemetry.trace_off",
                session->options().telemetry.trace.level ==
                    reqblock::TraceLevel::kOff,
                "event tracing is on");
  const reqblock::AttributionResult& a = r.attribution;
  if (a.enabled) {
    std::uint64_t parts = 0;
    for (const std::uint64_t v : a.component_ns) parts += v;
    checks.equal("attribution.parts_sum", parts, a.total_ns);
    // The histogram sums in a double: exact below 2^53 ns, rounded above.
    const double sum = r.response.raw_sum();
    const double tot = static_cast<double>(a.total_ns);
    checks.expect("attribution.total_is_response_sum",
                  sum < 0x1p53 ? tot == sum : std::abs(tot - sum) <= sum * 1e-12,
                  "attribution total " + std::to_string(a.total_ns) +
                      " ns, response sum " + std::to_string(sum) + " ns");
    checks.equal("attribution.requests", a.requests, r.response.count());
    checks.expect("attribution.consistent", a.consistent(),
                  "bucket matrix disagrees with the totals");
  }
  const reqblock::IntegrityMetrics& in = r.fault.integrity;
  const std::uint64_t failed = r.overload.sheds +
                               r.fault.degraded_write_sheds +
                               in.host_reads_lost;
  if (workload == "aged-gc") {
    checks.equal("integrity.ecc_split", in.ecc_attempts,
                 in.ecc_corrected + in.ecc_escalated);
    checks.equal("integrity.retry_split", in.retry_escalated,
                 in.parity_rebuilds + in.uncorrectable);
    checks.equal("integrity.uncorrectable_is_lost", in.uncorrectable,
                 in.host_reads_lost);
    checks.equal("integrity.nothing_lost", in.host_reads_lost, 0);
    checks.expect("integrity.exercised",
                  in.ecc_attempts > 0 && in.parity_rebuilds > 0 &&
                      in.patrol_scrubs > 0 && fl.gc_page_moves > 0,
                  "ECC, parity, scrub or GC never acted");
    // No simulated backlog: the last quarter's mean response is not above
    // the second quarter's.
    const Prefix end{r.response.count(), r.response.raw_sum()};
    const double q2 = (marks.at(1).sum_ns - marks.at(0).sum_ns) /
                      static_cast<double>(marks.at(1).requests -
                                          marks.at(0).requests);
    const double q4 = (end.sum_ns - marks.at(2).sum_ns) /
                      static_cast<double>(end.requests - marks.at(2).requests);
    checks.expect("keeps_up.q4_mean_le_q2_mean", q4 <= q2,
                  "quarter 4 mean " + std::to_string(q4) +
                      " ns > quarter 2 mean " + std::to_string(q2) + " ns");
  }
  if (workload == "read-mostly") {
    const LruCounts m = replay_lru(trace->requests(), r.cache_capacity_pages);
    checks.equal("lru_model.read_hits", c.read_hits, m.read_hits);
    checks.equal("lru_model.write_hits", c.write_hits, m.write_hits);
    checks.equal("lru_model.read_misses", c.read_misses, m.read_misses);
    checks.equal("lru_model.inserts", c.inserts, m.inserts);
    checks.equal("lru_model.evictions", c.evictions, m.evictions);
  }

  // ---- Teardown: destroy the session, then the request stream.
  const Clock::time_point t_destroy = Clock::now();
  session.reset();
  trace.reset();
  const double destroy_s = seconds_since(t_destroy);

  JsonObject host;
  host.num("gen_s", gen_s)
      .num("construct_s", construct_s)
      .num("setup_s", setup_s)
      .num("replay_s", replay_s)
      .u64("replayed", steps)
      .num("finish_s", finish_s)
      .num("destroy_s", destroy_s)
      .num("teardown_s", finish_s + destroy_s)
      .num("peak_rss_mb", peak_rss_mb())
      .num("setup_mb", rss_setup - rss_start)
      .num("replay_growth_mb", rss_replay - rss_setup);

  JsonObject sim;
  sim.u64("requests", r.requests)
      .u64("read_requests", r.read_requests)
      .u64("write_requests", r.write_requests)
      .u64("responses", r.response.count())
      .num("response_sum_ns", r.response.raw_sum())
      .num("mean_ns", r.response.mean())
      .num("read_mean_ns", r.read_response.mean())
      .num("write_mean_ns", r.write_response.mean())
      .u64("p50_ns", static_cast<std::uint64_t>(r.response.p50()))
      .u64("p99_ns", static_cast<std::uint64_t>(r.response.p99()))
      .u64("p9999_ns",
           static_cast<std::uint64_t>(r.response.quantile(0.9999)))
      .u64("max_ns", static_cast<std::uint64_t>(r.response.max()))
      .u64("sim_end_ns", static_cast<std::uint64_t>(r.sim_end))
      .u64("page_lookups", c.page_lookups)
      .u64("page_hits", c.page_hits)
      .u64("read_hits", c.read_hits)
      .u64("write_hits", c.write_hits)
      .u64("inserts", c.inserts)
      .u64("read_misses", c.read_misses)
      .u64("bypass_pages", c.bypass_pages)
      .u64("evictions", c.evictions)
      .u64("evicted_pages", c.evicted_pages)
      .u64("flushed_pages", c.flushed_pages)
      .u64("padding_pages", c.padding_pages)
      .num("pages_per_evict", c.eviction_batch.mean())
      .num("metadata_bytes", c.metadata_bytes.mean())
      .num("hit_ratio", r.hit_ratio())
      .u64("host_page_reads", fl.host_page_reads)
      .u64("host_page_writes", fl.host_page_writes)
      .u64("gc_runs", fl.gc_runs)
      .u64("gc_page_moves", fl.gc_page_moves)
      .u64("erases", fl.erases)
      .num("waf", fl.waf())
      .num("chip_util", r.chip_utilization)
      .num("channel_util", r.channel_utilization)
      .u64("ecc_attempts", in.ecc_attempts)
      .u64("retry_steps", in.retry_steps_total)
      .u64("parity_rebuilds", in.parity_rebuilds)
      .u64("uncorrectable", in.uncorrectable)
      .u64("patrol_scrubs", in.patrol_scrubs)
      .u64("patrol_pages_moved", in.patrol_pages_moved)
      .u64("disturb_migrations", r.fault.read_disturb_migrations)
      .u64("admission_sheds", r.overload.sheds)
      .u64("degraded_write_sheds", r.fault.degraded_write_sheds)
      .u64("host_reads_lost", in.host_reads_lost);

  JsonObject layers;
  if (traced) {
    std::vector<std::uint32_t> sorted = step_ns;
    auto pct = [&sorted](double q) -> double {
      if (sorted.empty()) return 0.0;
      const auto k = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1));
      std::nth_element(sorted.begin(), sorted.begin() + k, sorted.end());
      return sorted[k];
    };
    layers.num("step_p50_ns", pct(0.50)).num("step_p99_ns", pct(0.99));
    JsonObject prof;
    for (const auto& e : r.telemetry.profile.entries) {
      prof.obj(e.section, JsonObject()
                              .u64("calls", e.calls)
                              .num("s", static_cast<double>(e.total_ns) / 1e9));
    }
    layers.obj("profile", prof);
    JsonObject attr;
    for (std::size_t i = 0; i < reqblock::kAttrComponents; ++i) {
      attr.u64(reqblock::to_string(static_cast<reqblock::AttrComponent>(i)),
               a.component_ns[i]);
    }
    layers.obj("attr_ns", attr).u64("attr_requests", a.requests);
  }

  JsonObject out;
  out.str("workload", workload)
      .u64("seed", seed)
      .boolean("traced", traced)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("audit_level", reqblock::to_string(audit))
      .str("policy", r.policy_name)
      .u64("attempted", r.requests)
      .u64("failed", failed)
      .boolean("ok", checks.all_ok())
      .obj("host", host)
      .obj("sim", sim)
      .obj("layers", layers)
      .obj("checks", checks.json());
  std::cout << out.text() << "\n";
  return checks.all_ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "engine_bench: " << flag << " needs a value\n";
      return 2;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--traced") {
        traced = std::stoi(value) != 0;
      } else {
        std::cerr << "engine_bench: unknown flag " << flag << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "engine_bench: bad value for " << flag << ": " << value
                << "\n";
      return 2;
    }
  }
  try {
    return perfbench::run(workload, seed, traced);
  } catch (const std::exception& e) {
    std::cerr << "engine_bench: " << e.what() << "\n";
    return 2;
  }
}
