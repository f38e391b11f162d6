#include "cache/policy_factory.h"

#include <stdexcept>

#include "cache/bplru.h"
#include "cache/cflru.h"
#include "cache/fab.h"
#include "cache/fifo.h"
#include "cache/lfu.h"
#include "cache/lru.h"
#include "util/strings.h"

namespace reqblock {

std::unique_ptr<WriteBufferPolicy> make_policy(const PolicyConfig& cfg) {
  const std::string& n = cfg.name;
  if (iequals(n, "lru")) return std::make_unique<LruPolicy>(cfg.capacity_pages);
  if (iequals(n, "fifo")) {
    return std::make_unique<FifoPolicy>(cfg.capacity_pages);
  }
  if (iequals(n, "lfu")) return std::make_unique<LfuPolicy>(cfg.capacity_pages);
  if (iequals(n, "cflru")) {
    return std::make_unique<CflruPolicy>(cfg.capacity_pages,
                                         cfg.cflru_window);
  }
  if (iequals(n, "fab")) {
    return std::make_unique<FabPolicy>(cfg.pages_per_block);
  }
  if (iequals(n, "bplru")) {
    return std::make_unique<BplruPolicy>(cfg.pages_per_block, cfg.bplru);
  }
  if (iequals(n, "vbbms")) {
    return std::make_unique<VbbmsPolicy>(cfg.capacity_pages, cfg.vbbms);
  }
  if (iequals(n, "reqblock") || iequals(n, "req-block")) {
    return std::make_unique<ReqBlockPolicy>(cfg.capacity_pages, cfg.reqblock);
  }
  throw std::invalid_argument("unknown cache policy: " + n);
}

std::vector<std::string> known_policy_names() {
  return {"lru", "fifo", "lfu", "cflru", "fab", "bplru", "vbbms", "reqblock"};
}

std::vector<std::string> paper_policy_names() {
  return {"lru", "bplru", "vbbms", "reqblock"};
}

}  // namespace reqblock
