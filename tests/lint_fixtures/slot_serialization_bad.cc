// Fixture: a serializer that writes each page's cache slot. A restore
// re-occupies slots in ascending LPN order, so these bytes would differ
// from an uninterrupted run's even though the state is the same.
#include <cstdint>
#include <vector>

#include "snapshot/snapshot.h"

struct Page {
  std::uint64_t lpn;
  std::uint32_t slot;
};

void serialize_pages(reqblock::SnapshotWriter& w,
                     const std::vector<Page>& pages) {
  w.u64(pages.size());
  for (const Page& p : pages) {
    w.u64(p.lpn);
    w.u32(p.slot);
  }
}
