// Fixture: the sanctioned form — emit in an order kept outside the
// FlatHashMap (here a sorted id list) and probe the index only by key.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/lpn_table.h"

std::string serialize_ids(
    const std::vector<std::uint64_t>& sorted_ids,
    const reqblock::FlatHashMap<int, reqblock::kInvalidLpn>& ids) {
  std::ostringstream os;
  for (const std::uint64_t id : sorted_ids) {
    const int* block = ids.find(id);
    os << id << ',' << (block ? *block : -1) << '\n';
  }
  return os.str();
}
