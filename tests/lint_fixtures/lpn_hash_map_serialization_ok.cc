// Fixture: the sanctioned forms — an LpnTable, which iterates in
// ascending LPN order, and an LpnHashMap probed only by key.
#include <sstream>
#include <string>

#include "util/lpn_table.h"

std::string serialize_versions(const reqblock::LpnTable<int>& versions,
                               const reqblock::LpnHashMap<int>& blocks) {
  std::ostringstream os;
  versions.for_each([&](reqblock::Lpn lpn, int version) {
    const int* block = blocks.find(lpn);
    os << lpn << ',' << version << ',' << (block ? *block : -1) << '\n';
  });
  return os.str();
}
