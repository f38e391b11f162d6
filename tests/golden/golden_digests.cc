// golden_digests — checks or rewrites the golden digest table.
//
//   golden_digests [--table PATH]           recompute every cell, print one
//                                           line per cell, exit 1 when any
//                                           digest differs from the table
//   golden_digests [--table PATH] --regen   rewrite the table from the
//                                           recomputed digests
//
// PATH defaults to the tests/golden/digests.txt of the source tree this
// binary was built from.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "golden/golden_cells.h"
#include "util/atomic_file.h"

int main(int argc, char** argv) {
  using namespace reqblock::golden;
  std::string table_path = REQB_GOLDEN_TABLE;
  bool regen = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regen") == 0) {
      regen = true;
    } else if (std::strcmp(argv[i], "--table") == 0 && i + 1 < argc) {
      table_path = argv[++i];
    } else {
      std::cerr << "usage: golden_digests [--table PATH] [--regen]\n";
      return 2;
    }
  }

  std::map<std::string, std::uint64_t> pinned;
  if (!regen) {
    std::ifstream in(table_path);
    if (!in) {
      std::cerr << "golden_digests: cannot read " << table_path << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    pinned = parse_table(text.str());
  }

  std::map<std::string, std::uint64_t> digests;
  int mismatches = 0;
  for (const GoldenCell& cell : golden_cells()) {
    const std::uint64_t d = golden_digest(cell);
    digests[cell.name] = d;
    const auto it = pinned.find(cell.name);
    const bool ok = regen || (it != pinned.end() && it->second == d);
    if (!ok) ++mismatches;
    std::printf("%-28s %016" PRIx64 "%s\n", cell.name.c_str(), d,
                ok ? "" : (it == pinned.end() ? "  (not in table)"
                                              : "  (CHANGED)"));
  }
  if (regen) {
    reqblock::write_file_atomic(table_path, format_table(digests));
    std::printf("wrote %zu digests to %s\n", digests.size(),
                table_path.c_str());
    return 0;
  }
  if (pinned.size() != digests.size()) {
    std::printf("table holds %zu cells, %zu were computed\n", pinned.size(),
                digests.size());
    ++mismatches;
  }
  return mismatches == 0 ? 0 : 1;
}
