// Golden behaviour digests: one FNV-1a-64 digest per small end-to-end
// cell, pinned in tests/golden/digests.txt.
//
// The determinism and checkpoint suites compare runs of one build with
// each other, so a change that shifts every result the same way passes
// them all. The golden table compares every cell against bytes committed
// to the repository instead: each digest covers the cell's results CSV
// and its final session snapshot (the bytes serialize() writes after the
// last request, before finish()).
//
// Cells: every known policy x {plain, faults + power loss, pre-aged
// device + full integrity hierarchy}, about 5k requests each on the 1 GB
// test device. A change that moves a digest must say why in CHANGES.md
// and rewrite the table with `golden_digests --regen`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace reqblock::golden {

struct GoldenCell {
  std::string name;  // "<policy>/<variant>", the table key
  WorkloadProfile profile;
  SimOptions options;
};

/// Every cell, in table order.
std::vector<GoldenCell> golden_cells();

/// Runs the cell to completion and digests its results CSV and its final
/// session snapshot. `result` (may be null) receives the run's result.
std::uint64_t golden_digest(const GoldenCell& cell,
                            RunResult* result = nullptr);

/// Digest table text: one "<cell> <16 hex digits>" line per cell, after a
/// comment header. parse_table throws std::runtime_error on a malformed
/// line or a repeated cell.
std::string format_table(const std::map<std::string, std::uint64_t>& digests);
std::map<std::string, std::uint64_t> parse_table(const std::string& text);

}  // namespace reqblock::golden
