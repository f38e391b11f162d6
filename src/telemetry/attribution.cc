#include "telemetry/attribution.h"

#include <algorithm>
#include <cmath>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

void AttributionResult::prepare() {
  enabled = true;
  const std::size_t buckets = LogHistogram::bucket_count();
  if (bucket_requests.size() != buckets) {
    bucket_requests.assign(buckets, 0);
    bucket_component_ns.assign(buckets * kAttrComponents, 0);
  }
}

void AttributionResult::record(const RequestBreakdown& bd, SimTime total) {
  REQB_DCHECK(enabled && !bucket_requests.empty());
  ++requests;
  total_ns += static_cast<std::uint64_t>(total);
  const std::size_t bucket = LogHistogram::bucket_index(total);
  ++bucket_requests[bucket];
  const std::size_t row = bucket * kAttrComponents;
  for (std::size_t c = 0; c < kAttrComponents; ++c) {
    const SimTime v = bd.ns[c];
    if (v == 0) continue;
    component_ns[c] += static_cast<std::uint64_t>(v);
    component_hist[c].record(v);
    bucket_component_ns[row + c] += static_cast<std::uint64_t>(v);
  }
}

void AttributionResult::clear() {
  requests = 0;
  total_ns = 0;
  component_ns.fill(0);
  for (auto& h : component_hist) h.clear();
  std::fill(bucket_requests.begin(), bucket_requests.end(), 0);
  std::fill(bucket_component_ns.begin(), bucket_component_ns.end(), 0);
}

bool AttributionResult::consistent() const {
  if (!enabled) {
    return requests == 0 && total_ns == 0 && bucket_requests.empty();
  }
  std::uint64_t reqs = 0;
  std::array<std::uint64_t, kAttrComponents> per_component{};
  std::uint64_t matrix_total = 0;
  for (std::size_t b = 0; b < bucket_requests.size(); ++b) {
    reqs += bucket_requests[b];
    for (std::size_t c = 0; c < kAttrComponents; ++c) {
      const std::uint64_t v = bucket_component_ns[b * kAttrComponents + c];
      per_component[c] += v;
      matrix_total += v;
    }
  }
  if (reqs != requests || matrix_total != total_ns) return false;
  for (std::size_t c = 0; c < kAttrComponents; ++c) {
    if (per_component[c] != component_ns[c]) return false;
    // The histogram sums in a double. Below 2^53 every partial sum of
    // integer samples is exact, so the sums must agree exactly. Above it
    // (an overloaded run's summed latency can get there), each of the
    // histogram's additions rounds by at most half an ulp of the final
    // sum, so allow count ulps.
    const double exact = static_cast<double>(component_ns[c]);
    const double sum = component_hist[c].raw_sum();
    if (component_ns[c] < (std::uint64_t{1} << 53)) {
      if (sum != exact) return false;
      continue;
    }
    const double top = std::max(sum, exact);
    const double ulp = std::nextafter(top, HUGE_VAL) - top;
    const double slack =
        static_cast<double>(component_hist[c].count()) * ulp;
    if (!(std::fabs(sum - exact) <= slack)) return false;
  }
  return true;
}

void AttributionResult::serialize(SnapshotWriter& w) const {
  w.tag("attr");
  w.b(enabled);
  if (!enabled) return;
  w.u64(requests);
  w.u64(total_ns);
  for (const std::uint64_t v : component_ns) w.u64(v);
  for (const auto& h : component_hist) reqblock::serialize(w, h);
  w.vec_u64(bucket_requests);
  w.vec_u64(bucket_component_ns);
}

void AttributionResult::deserialize(SnapshotReader& r) {
  r.tag("attr");
  enabled = r.b();
  if (!enabled) {
    *this = AttributionResult{};
    return;
  }
  prepare();
  requests = r.u64();
  total_ns = r.u64();
  for (std::uint64_t& v : component_ns) v = r.u64();
  for (auto& h : component_hist) reqblock::deserialize(r, h);
  bucket_requests = r.vec_u64();
  bucket_component_ns = r.vec_u64();
  const std::size_t buckets = LogHistogram::bucket_count();
  if (bucket_requests.size() != buckets ||
      bucket_component_ns.size() != buckets * kAttrComponents ||
      !consistent()) {
    throw SnapshotError("attribution section is internally inconsistent");
  }
}

TailSlice tail_slice(const AttributionResult& a, double fraction) {
  TailSlice s;
  s.fraction = fraction;
  if (!a.enabled || a.requests == 0 || fraction <= 0.0) return s;
  fraction = std::min(fraction, 1.0);
  const auto want = static_cast<std::uint64_t>(std::ceil(
      fraction * static_cast<double>(a.requests)));
  for (std::size_t b = a.bucket_requests.size(); b > 0; --b) {
    const std::size_t bucket = b - 1;
    if (a.bucket_requests[bucket] == 0) continue;
    s.requests += a.bucket_requests[bucket];
    s.threshold_ns = LogHistogram::bucket_value(bucket);
    for (std::size_t c = 0; c < kAttrComponents; ++c) {
      const std::uint64_t v =
          a.bucket_component_ns[bucket * kAttrComponents + c];
      s.component_ns[c] += v;
      s.total_ns += v;
    }
    if (s.requests >= want) break;
  }
  return s;
}

std::array<std::size_t, kAttrComponents> rank_components(
    const TailSlice& slice) {
  std::array<std::size_t, kAttrComponents> order{};
  for (std::size_t i = 0; i < kAttrComponents; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slice.component_ns[a] > slice.component_ns[b];
                   });
  return order;
}

}  // namespace reqblock
