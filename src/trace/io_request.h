// Host I/O request model.
//
// The simulator works at SSD-page granularity (4 KB by default); trace
// parsers convert byte offsets/lengths into page-aligned requests the same
// way SSDsim does (round the start down and the end up to page boundaries).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

enum class IoType : std::uint8_t { kRead = 0, kWrite = 1 };

inline const char* to_string(IoType t) {
  return t == IoType::kRead ? "Read" : "Write";
}

/// 32 bytes: `type` sits after `pages` so the struct has no inner padding
/// (replayed traces are held as vectors of these).
struct IoRequest {
  /// Monotonically increasing per-trace identifier.
  std::uint64_t id = 0;
  /// Arrival time relative to trace start.
  SimTime arrival = 0;
  /// First logical page touched.
  Lpn lpn = 0;
  /// Number of consecutive pages touched; always >= 1.
  std::uint32_t pages = 1;
  IoType type = IoType::kRead;

  bool is_write() const { return type == IoType::kWrite; }
  bool is_read() const { return type == IoType::kRead; }
  Lpn end_lpn() const { return lpn + pages; }  // one past the last page

  /// Byte size assuming the given page size.
  std::uint64_t bytes(std::uint64_t page_size) const {
    return static_cast<std::uint64_t>(pages) * page_size;
  }
};

/// Abstract stream of requests. Implementations must be resettable so the
/// same trace can be replayed under every policy.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Returns false when the trace is exhausted; fills `out` otherwise.
  virtual bool next(IoRequest& out) = 0;

  /// Rewinds to the first request (regenerating identically for synthetic
  /// sources).
  virtual void reset() = 0;

  /// Human-readable trace name for reports.
  virtual std::string name() const = 0;

  /// Logical ranges [begin, end) that hold data written *before* the
  /// trace starts (device pre-conditioning). The simulator registers them
  /// with the FTL so cold reads of old data pay real flash latency
  /// instead of being served as never-written pages. Default: none.
  virtual std::vector<std::pair<Lpn, Lpn>> preexisting_ranges() const {
    return {};
  }

  /// Stable hash of the trace *content* (name, generator parameters or
  /// request list) — independent of the read cursor. Checkpoints embed it
  /// so a resume against a different trace is refused.
  virtual std::uint64_t identity_hash() const = 0;

  /// Checkpoint the read cursor (and, for synthetic sources, all
  /// generator state) so a restored source continues emitting exactly the
  /// requests an uninterrupted one would.
  virtual void serialize(SnapshotWriter& w) const = 0;
  virtual void deserialize(SnapshotReader& r) = 0;
};

}  // namespace reqblock
