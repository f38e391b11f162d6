// Data-integrity sweep: fresh vs pre-aged device under the bit-error
// model, appended as fingerprinted records to BENCH_integrity.json.
//
// Each policy runs the same drifting workload twice with the full
// recovery hierarchy armed (ECC -> read retry -> plane-stripe parity,
// patrol scrub on). The *fresh* cell starts at zero wear, so the RBER
// sits at its base and recoveries are rare and cheap; the *aged* cell
// opens near its rated P/E budget, pushing the wear-boosted RBER up
// until retries, parity rebuilds, and scrub refreshes shape the tail.
// Identical traces and identical integrity knobs keep the fresh-vs-aged
// delta a pure recovery-mix effect.
//
// The aged usr_0 cell never reaches a steady state within a run, so its
// tail, WAF and read-loss figures depend on run length: replayed for 1.5M
// requests its quarter mean response went from 8.8 ms (second quarter) to
// 25.5 ms (last quarter), it lost a read to an open-stripe uncorrectable,
// and its WAF was still rising at 3M requests (1.82 -> 2.32). Compare
// cells only at equal request caps; the host_reads_lost and waf columns
// make the drift visible. For a steady-state aged device, see perfbench's
// aged-gc workload (perfbench/README.md).
//
// Ledger format matches BENCH_soak.json (tools/perf_diff reads both):
// {"records": [...]}, every field deterministic except wall_unix_s on
// its own line. Integrity records append the recovery-tier counters,
// reads lost and WAF after the shared columns; perf_diff ignores fields
// it does not know.
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "sim/session.h"
#include "util/atomic_file.h"

namespace reqblock::benchx {
namespace {

constexpr const char* kLedgerPath = "BENCH_integrity.json";
constexpr const char* kLedgerHead = "{\"records\": [\n";
constexpr const char* kLedgerTail = "\n]}\n";

/// Request cap the registered cells ran with; report() rebuilds each case
/// with the same cap so the ledger fingerprints match the executed runs.
std::uint64_t g_request_cap = 0;

const std::vector<std::string>& integrity_policies() {
  return paper_policies();
}

std::string cell_name(const std::string& policy, bool aged) {
  return "integrity/" + policy + (aged ? "/aged" : "/fresh");
}

ExperimentCase integrity_case(const std::string& policy, bool aged,
                              std::uint64_t cap) {
  ExperimentCase c = make_case("usr_0", policy, 8, cap);
  // Same 2 GB shrink as bench_soak: GC overwrites the free space several
  // times within the run, so the aged cell keeps consuming P/E cycles on
  // top of its pre-aged opening wear.
  c.profile.hot_extents = 2000;
  c.profile.cold_stream_pages = 1ULL << 16;
  c.options.ssd.capacity_bytes = 2ULL << 30;
  c.profile.drift_period = 50000;
  c.profile.drift_step = 211;
  c.options.telemetry.attribution = true;
  c.label = cell_name(policy, aged);
  FaultPlan& f = c.options.fault;
  f.seed = 0xecc5;
  // The bit-error model and recovery hierarchy are identical in both
  // cells; only the opening wear differs.
  IntegrityPlan& in = f.integrity;
  in.rber_base = 0.01;
  in.rber_pe_anchor = 3000;
  in.rber_pe_boost = 20.0;  // ~0.8x base extra at 90% of rated wear
  in.rber_read_anchor = 256;
  in.rber_read_boost = 2.0;
  in.ecc_escape = 0.10;
  in.read_retry_steps = 3;
  in.retry_relief = 0.25;
  in.stripe_pages = 8;
  in.scrub_every_requests = 20000;
  in.scrub_rber_threshold = 0.05;
  if (aged) {
    AgingPlan& ag = f.aging;
    // Open at 90% of rated wear (the integrity anchor tracks the rated
    // budget), with no injected fault classes: the delta is bit errors,
    // not program/erase failures.
    ag.rated_pe_cycles = 3000;
    ag.initial_pe_cycles = 2700;
  }
  return c;
}

void register_benchmarks(std::uint64_t cap) {
  for (const auto& policy : integrity_policies()) {
    for (const bool aged : {false, true}) {
      const std::string name = cell_name(policy, aged);
      ExperimentCase c = integrity_case(policy, aged, cap);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [name, c](benchmark::State& state) {
            RunResult result;
            for (auto _ : state) {
              SyntheticTraceSource trace(c.profile);
              Simulator sim(c.options);
              result = sim.run(trace);
            }
            const IntegrityMetrics& in = result.fault.integrity;
            state.counters["p99_ms"] =
                static_cast<double>(result.response.p99()) / kMillisecond;
            state.counters["ecc"] = static_cast<double>(in.ecc_attempts);
            state.counters["rebuilds"] =
                static_cast<double>(in.parity_rebuilds);
            state.counters["lost"] = static_cast<double>(in.host_reads_lost);
            RunStore::instance().add(name, std::move(result));
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

/// One ledger record; the shared fields mirror bench_soak so
/// tools/perf_diff compares integrity ledgers unchanged, and the
/// recovery-tier block rides behind them as extra (ignored) columns.
std::string ledger_record(const std::string& name, const ExperimentCase& c,
                          const RunResult& r) {
  // REQB_LINT_ALLOW(no-wallclock): the ledger timestamp records *when*
  // the benchmark ran, for humans reading the cross-run history. It is
  // stamped after the deterministic run finished, lives on its own line,
  // and perf_diff never compares it.
  const std::int64_t wall_unix_s =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const double sim_seconds = static_cast<double>(r.sim_end) / 1e9;
  const double throughput =
      sim_seconds == 0.0 ? 0.0 : static_cast<double>(r.requests) / sim_seconds;
  const IntegrityMetrics& in = r.fault.integrity;
  std::ostringstream os;
  os << "{\n"
     << "\"case\": \"" << name << "\",\n"
     << "\"config_fingerprint\": " << config_fingerprint(c.options) << ",\n"
     << "\"trace_fingerprint\": "
     << SyntheticTraceSource(c.profile).identity_hash() << ",\n"
     << "\"wall_unix_s\": " << wall_unix_s << ",\n"
     << "\"requests\": " << r.requests << ",\n"
     << "\"throughput_rps\": " << format_double(throughput, 3) << ",\n"
     << "\"p50_ns\": " << r.response.p50() << ",\n"
     << "\"p99_ns\": " << r.response.p99() << ",\n"
     << "\"p999_ns\": " << r.response.p999() << ",\n"
     << "\"mean_ns\": " << static_cast<std::int64_t>(r.response.mean())
     << ",\n"
     << "\"hit_pct\": " << format_double(r.hit_ratio() * 100.0, 3) << ",\n"
     << "\"erases\": " << r.flash.erases << ",\n"
     << "\"ecc_attempts\": " << in.ecc_attempts << ",\n"
     << "\"retry_corrected\": " << in.retry_corrected << ",\n"
     << "\"parity_rebuilds\": " << in.parity_rebuilds << ",\n"
     << "\"uncorrectable\": " << in.uncorrectable << ",\n"
     << "\"host_reads_lost\": " << in.host_reads_lost << ",\n"
     << "\"waf\": " << format_double(r.flash.waf(), 4) << ",\n"
     << "\"patrol_scrubs\": " << in.patrol_scrubs << ",\n"
     << "\"integrity_recovery_ns\": " << in.recovery_time_total << ",\n"
     << "\"component_share\": {";
  const AttributionResult& a = r.attribution;
  for (std::size_t i = 0; i < kAttrComponents; ++i) {
    const double share =
        a.total_ns == 0 ? 0.0
                        : static_cast<double>(a.component_ns[i]) /
                              static_cast<double>(a.total_ns);
    // Truncate, don't round: the exact shares sum to 1, and rounding each
    // component up can push the printed sum past perf_diff's
    // sum-at-most-1 validation.
    const double floored = std::floor(share * 1e6) / 1e6;
    os << (i == 0 ? "" : ", ") << "\""
       << to_string(static_cast<AttrComponent>(i))
       << "\": " << format_double(floored, 6);
  }
  os << "}\n}";
  return os.str();
}

/// Appends `records` (comma-joined record texts) to the ledger, creating
/// it when missing. A file that does not look like a ledger is replaced
/// rather than corrupted further.
void append_to_ledger(const std::string& records) {
  std::string body;
  std::ifstream in(kLedgerPath);
  if (in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string existing = buf.str();
    const std::string head = kLedgerHead;
    const std::string tail = kLedgerTail;
    if (existing.size() > head.size() + tail.size() &&
        existing.compare(0, head.size(), head) == 0 &&
        existing.compare(existing.size() - tail.size(), tail.size(), tail) ==
            0) {
      body = existing.substr(head.size(),
                             existing.size() - head.size() - tail.size());
    }
  }
  if (!body.empty()) body += ",\n";
  body += records;
  write_file_atomic(kLedgerPath, kLedgerHead + body + kLedgerTail);
}

void report() {
  TextTable t({"Policy", "device", "p99 (ms)", "ecc", "retry", "rebuilds",
               "uncorr", "lost", "WAF", "scrubs", "recovery (ms)"});
  std::string records;
  std::uint64_t cells = 0;
  std::vector<std::string> deltas;
  for (const auto& policy : integrity_policies()) {
    const RunResult* fresh =
        RunStore::instance().find(cell_name(policy, false));
    const RunResult* aged = RunStore::instance().find(cell_name(policy, true));
    for (const bool is_aged : {false, true}) {
      const RunResult* r = is_aged ? aged : fresh;
      if (r == nullptr) continue;
      const IntegrityMetrics& in = r->fault.integrity;
      t.add_row({policy, is_aged ? "aged" : "fresh",
                 format_double(static_cast<double>(r->response.p99()) /
                                   kMillisecond, 2),
                 std::to_string(in.ecc_attempts),
                 std::to_string(in.retry_corrected),
                 std::to_string(in.parity_rebuilds),
                 std::to_string(in.uncorrectable),
                 std::to_string(in.host_reads_lost),
                 format_double(r->flash.waf(), 4),
                 std::to_string(in.patrol_scrubs),
                 format_double(static_cast<double>(in.recovery_time_total) /
                                   kMillisecond, 2)});
      if (!records.empty()) records += ",\n";
      records += ledger_record(cell_name(policy, is_aged),
                               integrity_case(policy, is_aged, g_request_cap),
                               *r);
      ++cells;
    }
    if (fresh != nullptr && aged != nullptr) {
      std::ostringstream d;
      d << policy << ": ecc " << fresh->fault.integrity.ecc_attempts
        << " -> " << aged->fault.integrity.ecc_attempts << ", rebuilds "
        << fresh->fault.integrity.parity_rebuilds << " -> "
        << aged->fault.integrity.parity_rebuilds << ", recovery "
        << format_double(
               static_cast<double>(
                   fresh->fault.integrity.recovery_time_total) /
                   kMillisecond, 2)
        << " -> "
        << format_double(
               static_cast<double>(
                   aged->fault.integrity.recovery_time_total) /
                   kMillisecond, 2)
        << " ms";
      deltas.push_back(d.str());
    }
  }
  t.print(std::cout);
  std::cout << "\nFresh -> aged recovery-mix deltas:\n";
  for (const auto& d : deltas) std::cout << "  " << d << "\n";
  if (cells > 0) {
    append_to_ledger(records);
    std::cout << "Appended " << cells << " records to " << kLedgerPath
              << "\n";
  }
  expect_line("recovery mix",
              "worn cells escalate: more retries, rebuilds, scrub refreshes",
              "see aged rows: ecc/rebuild counts above their fresh cells");
}

}  // namespace
}  // namespace reqblock::benchx

int main(int argc, char** argv) {
  using namespace reqblock::benchx;
  g_request_cap = reqblock::bench_request_cap(500000);
  register_benchmarks(g_request_cap);
  return bench_main(argc, argv, report,
                    "Integrity: fresh vs aged recovery mix, drifting "
                    "workload");
}
