// Pins every golden cell's end-to-end digest (results CSV + final session
// snapshot) against the committed table in tests/golden/digests.txt. A
// refactor that changes what the simulator computes fails here even when
// it shifts every run the same way; see tests/golden/golden_cells.h.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "golden/golden_cells.h"

namespace reqblock::golden {
namespace {

std::map<std::string, std::uint64_t> committed_table() {
  std::ifstream in(REQB_GOLDEN_TABLE);
  EXPECT_TRUE(in.good()) << "cannot read " << REQB_GOLDEN_TABLE;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_table(text.str());
}

TEST(GoldenDigestTest, EveryCellMatchesTheCommittedDigest) {
  const auto table = committed_table();
  const auto cells = golden_cells();
  ASSERT_EQ(cells.size(), 24u);  // 8 policies x 3 variants
  EXPECT_EQ(table.size(), cells.size())
      << "table and cell list disagree; run golden_digests --regen";
  for (const GoldenCell& cell : cells) {
    const auto it = table.find(cell.name);
    ASSERT_NE(it, table.end()) << cell.name << " has no committed digest";
    RunResult r;
    EXPECT_EQ(golden_digest(cell, &r), it->second)
        << cell.name << " moved; if intended, regenerate the table with "
        << "golden_digests --regen and justify it in CHANGES.md";
    // A cell that never reaches its subsystem pins nothing about it.
    EXPECT_GT(r.cache.evictions, 0u) << cell.name;
    if (cell.name.ends_with("/faults")) {
      EXPECT_GT(r.fault.power_loss_events, 0u) << cell.name;
      EXPECT_GT(r.fault.lost_dirty_pages, 0u) << cell.name;
    }
    if (cell.name.ends_with("/aged-integrity")) {
      EXPECT_GT(r.fault.integrity.retry_steps_total, 0u) << cell.name;
      EXPECT_GT(r.fault.integrity.parity_rebuilds, 0u) << cell.name;
    }
  }
}

TEST(GoldenDigestTest, TableFormatRoundTrips) {
  const std::map<std::string, std::uint64_t> d = {
      {"lru/plain", 0x0123456789abcdefULL}, {"fifo/faults", 0}};
  EXPECT_EQ(parse_table(format_table(d)), d);
  EXPECT_THROW(parse_table("lru/plain 12345\n"), std::runtime_error);
  EXPECT_THROW(parse_table("a 0000000000000000\na 0000000000000001\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace reqblock::golden
