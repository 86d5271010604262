// Batched interval stabbing (survey §computational geometry).
//
// Given N intervals and Q query points on the line, report every
// (query, interval) pair with interval.lo <= query <= interval.hi.
//
// Two algorithms:
//  - BatchedStabbingReport: reduction to orthogonal segment intersection
//    (interval -> horizontal segment at a distinct y; query -> full-height
//    vertical line), inheriting the distribution sweep's
//    O(Sort(N) + Z/B) bound.
//  - BatchedStabbingCount: counting only, via pure sorting — count(q) =
//    #starts <= q  -  #ends < q, two sorted merges, O(Sort(N)).
#pragma once

#include <limits>

#include "core/ext_vector.h"
#include "geometry/segment_intersection.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Closed interval [lo, hi] with caller-chosen id.
struct Interval {
  double lo, hi;
  uint64_t id;
};

/// Stabbing query point with caller-chosen id.
struct StabQuery {
  double x;
  uint64_t id;
};

/// (query id, interval id) output pair.
struct StabHit {
  uint64_t query_id;
  uint64_t interval_id;
  bool operator==(const StabHit&) const = default;
  bool operator<(const StabHit& o) const {
    return query_id != o.query_id ? query_id < o.query_id
                                  : interval_id < o.interval_id;
  }
};

/// Report all stabbing pairs; O(Sort(N+Q) + Z/B) I/Os.
inline Status BatchedStabbingReport(const ExtVector<Interval>& intervals,
                                    const ExtVector<StabQuery>& queries,
                                    ExtVector<StabHit>* out,
                                    const Options& opts) {
  BlockDevice* dev = out->device();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ExtVector<HSegment> hs(dev);
  {
    typename ExtVector<Interval>::Reader r(&intervals);
    typename ExtVector<HSegment>::Writer w(&hs);
    Interval iv;
    double y = 0;
    while (r.Next(&iv)) {
      // Distinct finite y per interval keeps the sweep well-defined.
      if (!w.Append(HSegment{y, iv.lo, iv.hi, iv.id})) return w.status();
      y += 1.0;
    }
    VEM_RETURN_IF_ERROR(r.status());
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  ExtVector<VSegment> vs(dev);
  {
    typename ExtVector<StabQuery>::Reader r(&queries);
    typename ExtVector<VSegment>::Writer w(&vs);
    StabQuery q;
    while (r.Next(&q)) {
      if (!w.Append(VSegment{q.x, -kInf, kInf, q.id})) return w.status();
    }
    VEM_RETURN_IF_ERROR(r.status());
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  ExtVector<IntersectionPair> pairs(dev);
  {
    OrthogonalSegmentIntersection osi(dev, opts);
    VEM_RETURN_IF_ERROR(osi.Run(hs, vs, &pairs));
  }
  hs.Destroy();
  vs.Destroy();
  typename ExtVector<IntersectionPair>::Reader r(&pairs);
  typename ExtVector<StabHit>::Writer w(out);
  IntersectionPair p;
  while (r.Next(&p)) {
    if (!w.Append(StabHit{p.v_id, p.h_id})) return w.status();
  }
  VEM_RETURN_IF_ERROR(r.status());
  return w.Finish();
}

/// (query id, number of stabbing intervals) output pair.
struct StabCount {
  uint64_t query_id;
  uint64_t count;
};

/// Counting-only stabbing in O(Sort(N + Q)) I/Os, output-independent.
/// Output is ordered by query x (ties by id).
inline Status BatchedStabbingCount(const ExtVector<Interval>& intervals,
                                   const ExtVector<StabQuery>& queries,
                                   ExtVector<StabCount>* out,
                                   const Options& opts) {
  BlockDevice* dev = out->device();
  // Endpoint streams sorted by coordinate.
  ExtVector<double> starts(dev), ends(dev);
  {
    typename ExtVector<Interval>::Reader r(&intervals);
    ExtVector<double>::Writer sw(&starts), ew(&ends);
    Interval iv;
    while (r.Next(&iv)) {
      if (!sw.Append(iv.lo)) return sw.status();
      if (!ew.Append(iv.hi)) return ew.status();
    }
    VEM_RETURN_IF_ERROR(r.status());
    VEM_RETURN_IF_ERROR(sw.Finish());
    VEM_RETURN_IF_ERROR(ew.Finish());
  }
  ExtVector<double> starts_sorted(dev), ends_sorted(dev);
  VEM_RETURN_IF_ERROR(ExternalSort(starts, &starts_sorted, opts));
  VEM_RETURN_IF_ERROR(ExternalSort(ends, &ends_sorted, opts));
  starts.Destroy();
  ends.Destroy();
  auto by_x = [](const StabQuery& a, const StabQuery& b) {
    if (a.x != b.x) return a.x < b.x;
    return a.id < b.id;
  };
  ExtVector<StabQuery> queries_sorted(dev);
  VEM_RETURN_IF_ERROR(ExternalSort<StabQuery, decltype(by_x)>(
      queries, &queries_sorted, opts, by_x));
  // Three-way merge: count(q) = #(lo <= q.x) - #(hi < q.x).
  typename ExtVector<StabQuery>::Reader qr(&queries_sorted);
  ExtVector<double>::Reader sr(&starts_sorted), er(&ends_sorted);
  typename ExtVector<StabCount>::Writer w(out);
  StabQuery q;
  double s = 0, e = 0;
  bool have_s = sr.Next(&s), have_e = er.Next(&e);
  uint64_t n_started = 0, n_ended = 0;
  while (qr.Next(&q)) {
    while (have_s && s <= q.x) {
      n_started++;
      have_s = sr.Next(&s);
    }
    while (have_e && e < q.x) {
      n_ended++;
      have_e = er.Next(&e);
    }
    if (!w.Append(StabCount{q.id, n_started - n_ended})) return w.status();
  }
  VEM_RETURN_IF_ERROR(qr.status());
  return w.Finish();
}

}  // namespace vem
