// Fixture: a serializer walking an LpnHashMap (util/lpn_table.h) with
// for_each. The open-addressing table visits keys in hash order, so the
// bytes would depend on the insertion history, not only on the state.
#include <sstream>
#include <string>

#include "util/lpn_table.h"

std::string serialize_blocks(const reqblock::LpnHashMap<int>& blocks) {
  std::ostringstream os;
  blocks.for_each([&](reqblock::Lpn lpn, int block) {
    os << lpn << ',' << block << '\n';
  });
  return os.str();
}
