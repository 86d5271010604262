// Batched 2-D dominance counting by distribution sweep — O(Sort(N)) I/Os.
//
// For each query (qx, qy): count input points with x <= qx AND y <= qy.
// (Rectangle range counting reduces to four dominance counts by
// inclusion-exclusion; see BatchedRectangleCount below.)
//
// Distribution sweep: split x into k = Θ(m) strips by sampled point
// abscissae; sweep everything by increasing y keeping one in-RAM counter
// per strip (#points already passed in that strip). A query in strip j
// collects the prefix sum of counters 0..j-1 — its cross-strip count —
// and recurses into strip j (carrying the partial sum) for the points
// sharing its strip. Base case: in-RAM sweep.
#pragma once

#include <algorithm>
#include <vector>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "sort/external_sort.h"
#include "util/random.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Input point.
struct Point2 {
  double x, y;
};

/// Dominance query; `acc` is internal accumulator state (leave 0).
struct DomQuery {
  double x, y;
  uint64_t id;
  uint64_t acc;
};

/// (query id, dominated point count) result.
struct DomCount {
  uint64_t id;
  uint64_t count;
};

/// Distribution-sweep dominance counter.
class DominanceCounter {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead/write-behind on the input copies, the
  /// y-ordered co-scans, the output writer and the internal sorts' run
  /// streams (0 = synchronous). The per-strip writers stay synchronous:
  /// Θ(m) of them are open at once and each armed writer would stage 2K
  /// extra blocks. Never changes IoStats.
  DominanceCounter(BlockDevice* dev, const Options& opts,
                   uint64_t seed = 0xD0E)
      : dev_(dev), opts_(opts), rng_(seed) {}

  Status Run(const ExtVector<Point2>& points,
             const ExtVector<DomQuery>& queries, ExtVector<DomCount>* out) {
    typename ExtVector<DomCount>::Writer w(out, opts_.prefetch_depth);
    ExtVector<Point2> p(dev_);
    ExtVector<DomQuery> q(dev_);
    VEM_RETURN_IF_ERROR(Copy(points, &p));
    VEM_RETURN_IF_ERROR(Copy(queries, &q));
    VEM_RETURN_IF_ERROR(Solve(std::move(p), std::move(q), &w));
    return w.Finish();
  }

 private:
  template <typename T>
  Status Copy(const ExtVector<T>& in, ExtVector<T>* out) {
    typename ExtVector<T>::Reader r(&in, 0, opts_.prefetch_depth);
    typename ExtVector<T>::Writer w(out, opts_.prefetch_depth);
    T item;
    while (r.Next(&item)) {
      if (!w.Append(item)) return w.status();
    }
    VEM_RETURN_IF_ERROR(r.status());
    return w.Finish();
  }

  size_t fan_out() const {
    size_t m = opts_.memory_budget / dev_->block_size();
    return std::max<size_t>(2, m / 4);
  }
  size_t memory_items() const {
    return opts_.memory_budget / (sizeof(Point2) + sizeof(DomQuery));
  }

  Status Solve(ExtVector<Point2> points, ExtVector<DomQuery> queries,
               typename ExtVector<DomCount>::Writer* out) {
    if (queries.size() == 0) return Status::OK();
    if (points.size() == 0) {
      // No points left: every query resolves to its accumulator.
      typename ExtVector<DomQuery>::Reader r(&queries, 0, opts_.prefetch_depth);
      DomQuery q;
      while (r.Next(&q)) {
        if (!out->Append(DomCount{q.id, q.acc})) return out->status();
      }
      return r.status();
    }
    if (points.size() + queries.size() <= memory_items()) {
      return SolveInMemory(points, queries, out);
    }
    // Sample splitters from point abscissae.
    const size_t k = fan_out();
    double min_x, max_x;
    std::vector<double> splitters;
    VEM_RETURN_IF_ERROR(SampleSplitters(points, k, &splitters, &min_x,
                                        &max_x));
    if (splitters.empty()) {
      // All points share one x: 1-D problem, handled in the sweep below
      // with a single strip + direct resolution.
      return SolveUniformX(points, queries, min_x, out);
    }
    const size_t strips = splitters.size() + 1;
    auto strip_of = [&](double x) {
      return static_cast<size_t>(
          std::upper_bound(splitters.begin(), splitters.end(), x) -
          splitters.begin());
    };

    std::vector<ExtVector<Point2>> child_p;
    std::vector<ExtVector<DomQuery>> child_q;
    for (size_t s = 0; s < strips; ++s) {
      child_p.emplace_back(dev_);
      child_q.emplace_back(dev_);
    }
    // Sort both streams by increasing y (points before queries on ties:
    // dominance is inclusive, x<=qx && y<=qy).
    auto p_by_y = [](const Point2& a, const Point2& b) { return a.y < b.y; };
    auto q_by_y = [](const DomQuery& a, const DomQuery& b) {
      return a.y < b.y;
    };
    ExtVector<Point2> ps(dev_);
    ExtVector<DomQuery> qs(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort<Point2, decltype(p_by_y)>(
        points, &ps, opts_, p_by_y));
    VEM_RETURN_IF_ERROR(ExternalSort<DomQuery, decltype(q_by_y)>(
        queries, &qs, opts_, q_by_y));
    points.Destroy();
    queries.Destroy();
    {
      std::vector<std::unique_ptr<typename ExtVector<Point2>::Writer>> pw;
      std::vector<std::unique_ptr<typename ExtVector<DomQuery>::Writer>> qw;
      for (size_t s = 0; s < strips; ++s) {
        pw.push_back(std::make_unique<typename ExtVector<Point2>::Writer>(
            &child_p[s]));
        qw.push_back(std::make_unique<typename ExtVector<DomQuery>::Writer>(
            &child_q[s]));
      }
      std::vector<uint64_t> strip_count(strips, 0);
      typename ExtVector<Point2>::Reader pr(&ps, 0, opts_.prefetch_depth);
      typename ExtVector<DomQuery>::Reader qr(&qs, 0, opts_.prefetch_depth);
      Point2 p;
      DomQuery q;
      bool have_p = pr.Next(&p), have_q = qr.Next(&q);
      while (have_p || have_q) {
        bool take_p = have_p && (!have_q || p.y <= q.y);
        if (take_p) {
          size_t s = strip_of(p.x);
          strip_count[s]++;
          if (!pw[s]->Append(p)) return pw[s]->status();
          have_p = pr.Next(&p);
        } else {
          size_t s = strip_of(q.x);
          for (size_t t = 0; t < s; ++t) q.acc += strip_count[t];
          if (!qw[s]->Append(q)) return qw[s]->status();
          have_q = qr.Next(&q);
        }
      }
      VEM_RETURN_IF_ERROR(pr.status());
      VEM_RETURN_IF_ERROR(qr.status());
      for (size_t s = 0; s < strips; ++s) {
        VEM_RETURN_IF_ERROR(pw[s]->Finish());
        VEM_RETURN_IF_ERROR(qw[s]->Finish());
      }
    }
    ps.Destroy();
    qs.Destroy();
    for (size_t s = 0; s < strips; ++s) {
      VEM_RETURN_IF_ERROR(
          Solve(std::move(child_p[s]), std::move(child_q[s]), out));
    }
    return Status::OK();
  }

  Status SampleSplitters(const ExtVector<Point2>& points, size_t k,
                         std::vector<double>* splitters, double* min_x,
                         double* max_x) {
    const size_t target = 4 * k;
    std::vector<double> sample;
    *min_x = std::numeric_limits<double>::infinity();
    *max_x = -std::numeric_limits<double>::infinity();
    typename ExtVector<Point2>::Reader r(&points, 0, opts_.prefetch_depth);
    Point2 p;
    size_t seen = 0;
    while (r.Next(&p)) {
      *min_x = std::min(*min_x, p.x);
      *max_x = std::max(*max_x, p.x);
      seen++;
      if (sample.size() < target) {
        sample.push_back(p.x);
      } else {
        size_t j = rng_.Uniform(seen);
        if (j < target) sample[j] = p.x;
      }
    }
    VEM_RETURN_IF_ERROR(r.status());
    std::sort(sample.begin(), sample.end());
    splitters->clear();
    for (size_t i = 4; i < sample.size(); i += 4) {
      if ((splitters->empty() || splitters->back() < sample[i]) &&
          sample[i] > *min_x) {
        splitters->push_back(sample[i]);
      }
      if (splitters->size() == k - 1) break;
    }
    if (splitters->empty() && *min_x < *max_x) {
      splitters->push_back((*min_x + *max_x) / 2);
    }
    return Status::OK();
  }

  /// All points at one x: count(q) = acc + (qx >= x ? #points with
  /// y <= qy : 0) — one y-sweep.
  Status SolveUniformX(ExtVector<Point2>& points, ExtVector<DomQuery>& queries,
                       double x,
                       typename ExtVector<DomCount>::Writer* out) {
    auto p_by_y = [](const Point2& a, const Point2& b) { return a.y < b.y; };
    auto q_by_y = [](const DomQuery& a, const DomQuery& b) {
      return a.y < b.y;
    };
    ExtVector<Point2> ps(dev_);
    ExtVector<DomQuery> qs(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort<Point2, decltype(p_by_y)>(
        points, &ps, opts_, p_by_y));
    VEM_RETURN_IF_ERROR(ExternalSort<DomQuery, decltype(q_by_y)>(
        queries, &qs, opts_, q_by_y));
    typename ExtVector<Point2>::Reader pr(&ps, 0, opts_.prefetch_depth);
    typename ExtVector<DomQuery>::Reader qr(&qs, 0, opts_.prefetch_depth);
    Point2 p;
    DomQuery q;
    bool have_p = pr.Next(&p), have_q = qr.Next(&q);
    uint64_t passed = 0;
    while (have_q) {
      while (have_p && p.y <= q.y) {
        passed++;
        have_p = pr.Next(&p);
      }
      uint64_t c = q.acc + (q.x >= x ? passed : 0);
      if (!out->Append(DomCount{q.id, c})) return out->status();
      have_q = qr.Next(&q);
    }
    VEM_RETURN_IF_ERROR(pr.status());
    VEM_RETURN_IF_ERROR(qr.status());
    return Status::OK();
  }

  Status SolveInMemory(const ExtVector<Point2>& points,
                       const ExtVector<DomQuery>& queries,
                       typename ExtVector<DomCount>::Writer* out) {
    std::vector<Point2> ps;
    std::vector<DomQuery> qs;
    VEM_RETURN_IF_ERROR(points.ReadAll(&ps));
    VEM_RETURN_IF_ERROR(queries.ReadAll(&qs));
    std::sort(ps.begin(), ps.end(),
              [](const Point2& a, const Point2& b) { return a.y < b.y; });
    std::sort(qs.begin(), qs.end(),
              [](const DomQuery& a, const DomQuery& b) { return a.y < b.y; });
    // Sweep by y; Fenwick tree over x-ranks of points.
    std::vector<double> xs(ps.size());
    for (size_t i = 0; i < ps.size(); ++i) xs[i] = ps[i].x;
    std::sort(xs.begin(), xs.end());
    std::vector<uint64_t> fen(xs.size() + 1, 0);
    auto fen_add = [&](size_t i) {
      for (i++; i < fen.size(); i += i & (~i + 1)) fen[i]++;
    };
    auto fen_sum = [&](size_t i) {  // count of first i entries
      uint64_t s = 0;
      for (; i > 0; i -= i & (~i + 1)) s += fen[i];
      return s;
    };
    size_t pi = 0;
    for (const DomQuery& q : qs) {
      while (pi < ps.size() && ps[pi].y <= q.y) {
        size_t rank = std::lower_bound(xs.begin(), xs.end(), ps[pi].x) -
                      xs.begin();
        fen_add(rank);
        pi++;
      }
      size_t upto = std::upper_bound(xs.begin(), xs.end(), q.x) - xs.begin();
      if (!out->Append(DomCount{q.id, q.acc + fen_sum(upto)})) {
        return out->status();
      }
    }
    return Status::OK();
  }

  BlockDevice* dev_;
  Options opts_;
  Rng rng_;
};

/// Closed axis-aligned rectangle query [x1,x2] x [y1,y2].
struct RectQuery {
  double x1, x2, y1, y2;
  uint64_t id;
};

/// (query id, points inside) result.
struct RectCount {
  uint64_t id;
  uint64_t count;
};

/// Batched orthogonal range COUNTING by inclusion-exclusion over four
/// dominance counts: |[x1,x2]x[y1,y2]| =
///   D(x2,y2) - D(x1^-,y2) - D(x2,y1^-) + D(x1^-,y1^-)
/// where x^- is the largest double below x (nextafter), making the lower
/// sides inclusive. One DominanceCounter::Run over 4Q queries: O(Sort(N)).
inline Status BatchedRectangleCount(const ExtVector<Point2>& points,
                                    const ExtVector<RectQuery>& rects,
                                    ExtVector<RectCount>* out,
                                    const Options& opts) {
  BlockDevice* dev = out->device();
  constexpr double kLowest = std::numeric_limits<double>::lowest();
  auto below = [](double x) { return std::nextafter(x, kLowest); };
  // Four dominance corners per rectangle; corner index in the low 2 bits
  // of the query id, rectangle index above.
  ExtVector<DomQuery> corners(dev);
  {
    typename ExtVector<RectQuery>::Reader r(&rects, 0, opts.prefetch_depth);
    typename ExtVector<DomQuery>::Writer w(&corners, opts.prefetch_depth);
    RectQuery q;
    uint64_t idx = 0;
    while (r.Next(&q)) {
      if (q.x2 < q.x1 || q.y2 < q.y1) {
        return Status::InvalidArgument("empty rectangle");
      }
      if (!w.Append(DomQuery{q.x2, q.y2, idx << 2 | 0, 0})) return w.status();
      if (!w.Append(DomQuery{below(q.x1), q.y2, idx << 2 | 1, 0}))
        return w.status();
      if (!w.Append(DomQuery{q.x2, below(q.y1), idx << 2 | 2, 0}))
        return w.status();
      if (!w.Append(DomQuery{below(q.x1), below(q.y1), idx << 2 | 3, 0}))
        return w.status();
      idx++;
    }
    VEM_RETURN_IF_ERROR(r.status());
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  ExtVector<DomCount> dom(dev);
  {
    DominanceCounter dc(dev, opts);
    VEM_RETURN_IF_ERROR(dc.Run(points, corners, &dom));
  }
  corners.Destroy();
  // Combine: sort by id so a rectangle's four corners are adjacent.
  struct ByIdCmp {
    bool operator()(const DomCount& a, const DomCount& b) const {
      return a.id < b.id;
    }
  };
  ExtVector<DomCount> sorted(dev);
  VEM_RETURN_IF_ERROR(
      ExternalSort<DomCount, ByIdCmp>(dom, &sorted, opts));
  dom.Destroy();
  // Map rectangle index back to the caller's id with one more join
  // against the rect stream (rects are in idx order already).
  typename ExtVector<DomCount>::Reader dr(&sorted, 0, opts.prefetch_depth);
  typename ExtVector<RectQuery>::Reader rr(&rects, 0, opts.prefetch_depth);
  typename ExtVector<RectCount>::Writer w(out, opts.prefetch_depth);
  DomCount c[4];
  RectQuery q;
  while (rr.Next(&q)) {
    for (int i = 0; i < 4; ++i) {
      if (!dr.Next(&c[i])) return Status::Corruption("missing corner count");
    }
    uint64_t inside =
        c[0].count - c[1].count - c[2].count + c[3].count;
    if (!w.Append(RectCount{q.id, inside})) return w.status();
  }
  VEM_RETURN_IF_ERROR(rr.status());
  return w.Finish();
}

}  // namespace vem
