// CFLRU (Clean-First LRU, Park et al., CASES'06); see cache/lru.h.
#pragma once

#include "cache/lru.h"

namespace reqblock {

class CflruPolicy final : public PageListPolicy {
 public:
  /// window_fraction: portion of capacity forming the clean-first region.
  explicit CflruPolicy(std::uint64_t capacity_pages,
                       double window_fraction = 0.1)
      : PageListPolicy(capacity_pages, /*promote_on_hit=*/true,
                       clean_first_window(capacity_pages, window_fraction)) {}
};

}  // namespace reqblock
