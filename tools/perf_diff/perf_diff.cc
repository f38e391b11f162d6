// perf_diff: validate and compare BENCH_attribution.json perf ledgers.
//
//   perf_diff --check LEDGER
//       Parse the ledger and validate every record's structure (required
//       fields, share values in [0, 1]). Exit 0 on success, 2 on error.
//
//   perf_diff LEDGER
//       For each case label, compare the last record against the previous
//       one in the same ledger (a local before/after history).
//
//   perf_diff OLD_LEDGER NEW_LEDGER
//       For each case label in NEW, compare its last record against the
//       last record of the same case in OLD.
//
//   Options: --throughput-band PCT (default 5), --p99-band PCT (default
//   10). A comparison flags a regression when throughput drops by more
//   than the throughput band or p99 rises by more than the p99 band.
//   Records whose config or trace fingerprints differ are reported as
//   incomparable and skipped (changing the config is not a regression).
//   Exit 1 when any regression was flagged, 0 otherwise.
//
// JSON parsing lives in json_mini.h (shared with the test suite's
// Chrome-trace validation); number lexemes are retained verbatim there
// so 64-bit fingerprints compare exactly instead of through a lossy
// double.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "json_mini.h"
#include "util/strings.h"

namespace {

using jsonmini::JsonParser;
using reqblock::format_double;
using jsonmini::JsonValue;

// --- Ledger access ---------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const char* const kRequiredNumbers[] = {
    "config_fingerprint", "trace_fingerprint", "requests",
    "throughput_rps",     "p50_ns",            "p99_ns",
    "p999_ns",            "mean_ns"};

/// Throws std::runtime_error when `rec` is not a well-formed ledger
/// record.
void validate_record(const JsonValue& rec, std::size_t index) {
  const std::string where = "record " + std::to_string(index);
  if (rec.type != JsonValue::Type::kObject) {
    throw std::runtime_error(where + " is not an object");
  }
  const JsonValue* label = rec.find("case");
  if (label == nullptr || label->type != JsonValue::Type::kString ||
      label->text.empty()) {
    throw std::runtime_error(where + " has no \"case\" label");
  }
  for (const char* field : kRequiredNumbers) {
    const JsonValue* v = rec.find(field);
    if (v == nullptr || v->type != JsonValue::Type::kNumber) {
      throw std::runtime_error(where + " (" + label->text +
                               ") lacks numeric field \"" + field + "\"");
    }
  }
  const JsonValue* shares = rec.find("component_share");
  if (shares == nullptr || shares->type != JsonValue::Type::kObject ||
      shares->object.empty()) {
    throw std::runtime_error(where + " (" + label->text +
                             ") lacks the component_share object");
  }
  double total = 0.0;
  for (const auto& [name, share] : shares->object) {
    if (share.type != JsonValue::Type::kNumber || share.number < 0.0 ||
        share.number > 1.0) {
      throw std::runtime_error(where + " (" + label->text +
                               ") share \"" + name + "\" is not in [0, 1]");
    }
    total += share.number;
  }
  if (total > 1.0 + 1e-6) {
    throw std::runtime_error(where + " (" + label->text +
                             ") shares sum above 1");
  }
}

/// Parses a ledger file into (case label -> records in file order).
/// Validates every record on the way.
std::map<std::string, std::vector<const JsonValue*>> load_ledger(
    const JsonValue& root, const std::string& path) {
  if (root.type != JsonValue::Type::kObject) {
    throw std::runtime_error(path + ": top level is not an object");
  }
  const JsonValue* records = root.find("records");
  if (records == nullptr || records->type != JsonValue::Type::kArray) {
    throw std::runtime_error(path + ": no \"records\" array");
  }
  std::map<std::string, std::vector<const JsonValue*>> by_case;
  for (std::size_t i = 0; i < records->array.size(); ++i) {
    const JsonValue& rec = records->array[i];
    validate_record(rec, i);
    by_case[rec.find("case")->text].push_back(&rec);
  }
  return by_case;
}

// --- Comparison ------------------------------------------------------------

struct Bands {
  double throughput_pct = 5.0;
  double p99_pct = 10.0;
};

double number_of(const JsonValue& rec, const char* field) {
  return rec.find(field)->number;
}

/// Compares one case's old/new records; returns true when a regression
/// was flagged. Deterministic fixed-point output.
bool compare_case(const std::string& label, const JsonValue& before,
                  const JsonValue& after, const Bands& bands) {
  if (before.find("config_fingerprint")->text !=
          after.find("config_fingerprint")->text ||
      before.find("trace_fingerprint")->text !=
          after.find("trace_fingerprint")->text) {
    std::printf("SKIP  %-24s fingerprints differ (config changed)\n",
                label.c_str());
    return false;
  }
  const double tput_before = number_of(before, "throughput_rps");
  const double tput_after = number_of(after, "throughput_rps");
  const double p99_before = number_of(before, "p99_ns");
  const double p99_after = number_of(after, "p99_ns");
  const double tput_delta_pct =
      tput_before == 0.0
          ? 0.0
          : (tput_after - tput_before) / tput_before * 100.0;
  const double p99_delta_pct =
      p99_before == 0.0 ? 0.0
                        : (p99_after - p99_before) / p99_before * 100.0;
  const bool tput_regressed = tput_delta_pct < -bands.throughput_pct;
  const bool p99_regressed = p99_delta_pct > bands.p99_pct;
  // format_double, not %f: the output must not depend on the locale.
  const auto signed_pct = [](double v) {
    return (std::signbit(v) ? "" : "+") + format_double(v, 2);
  };
  std::printf("%s  %-24s throughput %s%% (band %s%%), p99 %s%% (band %s%%)\n",
              tput_regressed || p99_regressed ? "FAIL" : "OK  ",
              label.c_str(), signed_pct(tput_delta_pct).c_str(),
              format_double(bands.throughput_pct, 0).c_str(),
              signed_pct(p99_delta_pct).c_str(),
              format_double(bands.p99_pct, 0).c_str());
  return tput_regressed || p99_regressed;
}

int usage() {
  std::cerr
      << "usage: perf_diff --check LEDGER\n"
         "       perf_diff [--throughput-band PCT] [--p99-band PCT] LEDGER\n"
         "       perf_diff [--throughput-band PCT] [--p99-band PCT] OLD NEW\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  bool check_only = false;
  Bands bands;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check_only = true;
    } else if (arg == "--throughput-band" && i + 1 < argc) {
      bands.throughput_pct = std::strtod(argv[++i], nullptr);
    } else if (arg == "--p99-band" && i + 1 < argc) {
      bands.p99_pct = std::strtod(argv[++i], nullptr);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() || paths.size() > 2 || (check_only && paths.size() != 1)) {
    return usage();
  }

  const std::string first_text = read_file(paths[0]);
  const JsonValue first_root = JsonParser(first_text).parse();
  const auto first = load_ledger(first_root, paths[0]);

  if (check_only) {
    std::size_t records = 0;
    for (const auto& [label, recs] : first) records += recs.size();
    std::printf("OK: %zu records across %zu cases in %s\n", records,
                first.size(), paths[0].c_str());
    return 0;
  }

  bool regressed = false;
  std::size_t compared = 0;
  if (paths.size() == 1) {
    // Within one ledger: last record vs the previous one, per case.
    for (const auto& [label, recs] : first) {
      if (recs.size() < 2) continue;
      regressed |= compare_case(label, *recs[recs.size() - 2], *recs.back(),
                                bands);
      ++compared;
    }
  } else {
    const std::string second_text = read_file(paths[1]);
    const JsonValue second_root = JsonParser(second_text).parse();
    const auto second = load_ledger(second_root, paths[1]);
    for (const auto& [label, recs] : second) {
      const auto it = first.find(label);
      if (it == first.end()) {
        std::printf("NEW   %-24s no baseline record\n", label.c_str());
        continue;
      }
      regressed |= compare_case(label, *it->second.back(), *recs.back(),
                                bands);
      ++compared;
    }
  }
  if (compared == 0) {
    std::printf("nothing to compare (need two records per case)\n");
  }
  return regressed ? 1 : 0;
} catch (const std::exception& e) {
  std::cerr << "perf_diff: " << e.what() << "\n";
  return 2;
}
