// Reference LRU write buffer, written apart from the simulator.
//
// It replays the page stream of a request list the way the paper's LRU
// baseline sees it with read admission off: a write page that hits moves
// to the MRU end; a write page that misses evicts single pages from the
// LRU end until a slot is free and is then inserted at the MRU end; a
// read page that hits moves to the MRU end; a read page that misses goes
// to flash and is not admitted. The benchmark asserts that the simulator
// counts exactly the hits, inserts and evictions this model counts.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "trace/io_request.h"

namespace perfbench {

struct LruCounts {
  std::uint64_t read_hits = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
};

inline LruCounts replay_lru(const std::vector<reqblock::IoRequest>& requests,
                            std::uint64_t capacity_pages) {
  LruCounts c;
  std::list<std::uint64_t> order;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> where;
  for (const reqblock::IoRequest& req : requests) {
    for (std::uint32_t i = 0; i < req.pages; ++i) {
      const std::uint64_t lpn = req.lpn + i;
      const auto it = where.find(lpn);
      if (it != where.end()) {
        order.splice(order.begin(), order, it->second);
        ++(req.is_write() ? c.write_hits : c.read_hits);
        continue;
      }
      if (!req.is_write()) {
        ++c.read_misses;
        continue;
      }
      while (where.size() >= capacity_pages) {
        where.erase(order.back());
        order.pop_back();
        ++c.evictions;
      }
      order.push_front(lpn);
      where.emplace(lpn, order.begin());
      ++c.inserts;
    }
  }
  return c;
}

}  // namespace perfbench
