#include "golden/golden_cells.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "cache/policy_factory.h"
#include "sim/report.h"
#include "sim/session.h"
#include "snapshot/snapshot.h"

namespace reqblock::golden {
namespace {

SsdConfig golden_ssd() {
  SsdConfig cfg;
  cfg.capacity_bytes = 1ULL << 30;  // 16 planes x 256 blocks
  cfg.validate();
  return cfg;
}

/// Mixed small/large traffic whose footprint (a sparse hot region plus
/// four cold streams) spans several 4096-page LPN chunks.
WorkloadProfile golden_profile() {
  WorkloadProfile p;
  p.name = "golden";
  p.total_requests = 5000;
  p.seed = 20220829;
  p.write_ratio = 0.6;
  p.hot_extents = 96;
  p.hot_slot_stride = 64;
  p.cold_stream_pages = 1 << 13;
  p.mean_interarrival_ns = 150 * kMicrosecond;
  return p;
}

SimOptions base_options(const std::string& policy) {
  SimOptions o;
  o.ssd = golden_ssd();
  o.policy.name = policy;
  o.policy.capacity_pages = 256;
  o.policy.pages_per_block = o.ssd.pages_per_block;
  o.cache.capacity_pages = o.policy.capacity_pages;
  o.telemetry_env_override = false;
  o.telemetry.attribution = true;
  return o;
}

/// Program/read faults, a scheduled power loss every 800 requests, and
/// read-miss admission, so clean pages, oracle rollbacks and recovery all
/// reach the snapshot.
void arm_faults(SimOptions& o) {
  o.cache.cache_reads = true;
  o.fault.seed = 7;
  o.fault.program_fail_prob = 0.01;
  o.fault.read_fail_prob = 0.005;
  o.fault.power_loss_every_requests = 800;
}

/// A device aged to 90% of its rated P/E cycles with every recovery tier
/// (ECC, read retry, stripe parity, patrol scrub) armed.
void arm_aged_integrity(SimOptions& o) {
  o.fault.seed = 19;
  o.fault.aging.rated_pe_cycles = 5000;
  o.fault.aging.initial_pe_cycles = 4500;
  IntegrityPlan& in = o.fault.integrity;
  in.rber_base = 0.05;
  in.rber_pe_anchor = 5000;
  in.rber_pe_boost = 4.0;
  in.rber_read_anchor = 64;
  in.rber_read_boost = 1.0;
  in.rber_age_anchor = kSecond;
  in.rber_age_boost = 0.25;
  in.ecc_escape = 0.6;
  in.read_retry_steps = 1;
  in.retry_relief = 0.5;
  in.stripe_pages = 8;
  in.scrub_every_requests = 500;
  in.scrub_rber_threshold = 0.1;
}

}  // namespace

std::vector<GoldenCell> golden_cells() {
  std::vector<GoldenCell> cells;
  for (const std::string& policy : known_policy_names()) {
    for (const char* variant : {"plain", "faults", "aged-integrity"}) {
      GoldenCell c;
      c.name = policy + "/" + variant;
      c.profile = golden_profile();
      c.options = base_options(policy);
      const std::string v = variant;
      if (v == "faults") arm_faults(c.options);
      if (v == "aged-integrity") arm_aged_integrity(c.options);
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

std::uint64_t golden_digest(const GoldenCell& cell, RunResult* result) {
  SyntheticTraceSource trace(cell.profile);
  SimulationSession session(cell.options, trace);
  while (session.step()) {
  }
  SnapshotWriter w;
  session.serialize(w);
  const RunResult r = session.finish();
  std::ostringstream csv;
  write_results_csv(csv, {r});
  if (result != nullptr) *result = r;
  return Fingerprint().add_string(csv.str()).add_string(w.buffer()).value();
}

std::string format_table(
    const std::map<std::string, std::uint64_t>& digests) {
  std::string out =
      "# Golden behaviour digests: FNV-1a-64 over each cell's results CSV\n"
      "# and final session snapshot (tests/golden/golden_cells.h).\n"
      "# Rewrite with `golden_digests --regen`, and say why in CHANGES.md.\n";
  for (const auto& [name, digest] : digests) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
    out += name + " " + hex + "\n";
  }
  return out;
}

std::map<std::string, std::uint64_t> parse_table(const std::string& text) {
  std::map<std::string, std::uint64_t> digests;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string hex;
    std::string extra;
    if (!(fields >> name >> hex) || (fields >> extra) || hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      throw std::runtime_error("malformed golden digest line: " + line);
    }
    if (!digests.emplace(name, std::stoull(hex, nullptr, 16)).second) {
      throw std::runtime_error("golden digest table repeats cell " + name);
    }
  }
  return digests;
}

}  // namespace reqblock::golden
