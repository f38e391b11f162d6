// Page-granularity FIFO (insertion-order eviction; hits do not promote).
#pragma once

#include "cache/lru.h"

namespace reqblock {

class FifoPolicy final : public PageListPolicy {
 public:
  explicit FifoPolicy(std::uint64_t capacity_pages)
      : PageListPolicy(capacity_pages, /*promote_on_hit=*/false, 0) {}
};

}  // namespace reqblock
