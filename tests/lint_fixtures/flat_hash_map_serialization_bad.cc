// Fixture: a serializer walking a FlatHashMap (util/lpn_table.h) id index
// with for_each. Like LpnHashMap, it visits keys in hash order, so the
// bytes would depend on the insertion history, not only on the state.
#include <cstdint>
#include <sstream>
#include <string>

#include "util/lpn_table.h"

std::string serialize_ids(
    const reqblock::FlatHashMap<int, reqblock::kInvalidLpn>& ids) {
  std::ostringstream os;
  ids.for_each([&](std::uint64_t id, int block) {
    os << id << ',' << block << '\n';
  });
  return os.str();
}
