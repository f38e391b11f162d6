// Fixture: the sanctioned form — the slot only indexes a table (inside
// [...]) and the bytes carry the LPN it holds, in list order.
#include <cstdint>
#include <vector>

#include "snapshot/snapshot.h"

struct Page {
  std::uint64_t lpn;
  std::uint32_t slot;
};

void serialize_pages(reqblock::SnapshotWriter& w,
                     const std::vector<Page>& pages,
                     const std::vector<std::uint64_t>& version_of_slot) {
  w.u64(pages.size());
  for (const Page& p : pages) {
    w.u64(p.lpn);
    w.u64(version_of_slot[p.slot]);
  }
}
