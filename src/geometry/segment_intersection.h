// Orthogonal segment intersection by distribution sweep —
// O(Sort(N) + Z/B) I/Os (survey §computational geometry; Goodrich, Tsay,
// Vengroff, Vitter's flagship batched-geometry technique).
//
// Report all (horizontal, vertical) crossing pairs (closed segments;
// endpoint touching counts). The plane is cut into k = Θ(m) x-strips by
// sampled vertical-segment abscissae; a single top-down y-sweep processes
// events in decreasing y:
//  - a vertical segment is appended to its strip's active list when the
//    sweep reaches its top;
//  - a horizontal segment reports against the active lists of all strips
//    it spans COMPLETELY: every element scanned is either reported (an
//    intersection, charged to output) or expired (removed, charged once);
//  - the non-spanned end pieces of horizontals, and all verticals, recurse
//    into their strips.
// Base cases: events fit in memory (in-RAM sweep), all verticals share
// one x (single active list).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/random.h"
#include "util/status.h"

namespace vem {

/// Horizontal segment [x1,x2] at height y.
struct HSegment {
  double y, x1, x2;
  uint64_t id;
};

/// Vertical segment [y1,y2] at abscissa x (y1 <= y2).
struct VSegment {
  double x, y1, y2;
  uint64_t id;
};

/// Reported intersection pair.
struct IntersectionPair {
  uint64_t h_id, v_id;
  bool operator<(const IntersectionPair& o) const {
    return h_id != o.h_id ? h_id < o.h_id : v_id < o.v_id;
  }
  bool operator==(const IntersectionPair& o) const = default;
};

/// Distribution-sweep intersection reporter.
class OrthogonalSegmentIntersection {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead on the event streams (the sorted H/V
  /// co-scan, active-list scans, input copies) plus write-behind on the
  /// output writer, and the same depth on the top-level sorts' run
  /// streams (0 = synchronous). The per-strip child writers stay
  /// synchronous on purpose: Θ(m) of them are open at once and each armed
  /// writer stages 2K extra blocks, which would blow the memory budget the
  /// fan-out was sized against. Never changes IoStats.
  OrthogonalSegmentIntersection(BlockDevice* dev, const Options& opts,
                                uint64_t seed = 0x6E0)
      : dev_(dev), opts_(opts), rng_(seed) {}


  /// Recursion depth of the last Run (tests).
  size_t max_depth() const { return max_depth_; }

  Status Run(const ExtVector<HSegment>& hs, const ExtVector<VSegment>& vs,
             ExtVector<IntersectionPair>* out) {
    max_depth_ = 0;
    typename ExtVector<IntersectionPair>::Writer w(out, opts_.prefetch_depth);
    // Copy inputs into the recursion's working sets.
    ExtVector<HSegment> h(dev_);
    ExtVector<VSegment> v(dev_);
    VEM_RETURN_IF_ERROR(Copy(hs, &h));
    VEM_RETURN_IF_ERROR(Copy(vs, &v));
    VEM_RETURN_IF_ERROR(Solve(std::move(h), std::move(v), &w, 1,
                              /*presorted=*/false, -kInf, kInf));
    return w.Finish();
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

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
    return opts_.memory_budget / (sizeof(HSegment) + sizeof(VSegment));
  }

  /// `presorted`: h is already in decreasing-y order and v in
  /// decreasing-top order. Children inherit sweep order, so only the
  /// top-level call pays the two sorts — one Sort(N) total, then scans.
  /// [x_lo, x_hi] is this slab. The outer strips end at its edges, so a
  /// piece clipped to an edge spans them like any other strip and goes
  /// no deeper.
  Status Solve(ExtVector<HSegment> h, ExtVector<VSegment> v,
               typename ExtVector<IntersectionPair>::Writer* out,
               size_t depth, bool presorted, double x_lo, double x_hi) {
    max_depth_ = std::max(max_depth_, depth);
    if (v.size() == 0 || h.size() == 0) return Status::OK();
    if (h.size() + v.size() <= memory_items()) {
      return SolveInMemory(h, v, out);
    }
    // Scan verticals: min/max x + reservoir sample of abscissae.
    const size_t k = fan_out();
    double min_x = kInf, max_x = -kInf;
    std::vector<double> sample;
    {
      const size_t target = 4 * k;
      typename ExtVector<VSegment>::Reader r(&v, 0, opts_.prefetch_depth);
      VSegment s;
      size_t seen = 0;
      while (r.Next(&s)) {
        min_x = std::min(min_x, s.x);
        max_x = std::max(max_x, s.x);
        seen++;
        if (sample.size() < target) {
          sample.push_back(s.x);
        } else {
          size_t j = rng_.Uniform(seen);
          if (j < target) sample[j] = s.x;
        }
      }
      VEM_RETURN_IF_ERROR(r.status());
    }
    if (min_x == max_x) return SolveUniformX(h, v, min_x, out, presorted);
    std::sort(sample.begin(), sample.end());
    std::vector<double> splitters;
    for (size_t i = 4; i < sample.size(); i += 4) {
      if (splitters.empty() || splitters.back() < sample[i]) {
        splitters.push_back(sample[i]);
      }
      if (splitters.size() == k - 1) break;
    }
    // Degenerate sample: force progress by bisecting the value range.
    if (splitters.empty()) splitters.push_back((min_x + max_x) / 2);
    // Drop splitters equal to min_x (left strip would repeat the parent).
    while (!splitters.empty() && splitters.front() <= min_x) {
      splitters.erase(splitters.begin());
    }
    if (splitters.empty()) splitters.push_back((min_x + max_x) / 2);
    const size_t strips = splitters.size() + 1;

    // Strip s covers [bound(s-1), bound(s)), bounded by the slab.
    auto strip_of = [&](double x) {
      return static_cast<size_t>(
          std::upper_bound(splitters.begin(), splitters.end(), x) -
          splitters.begin());
    };
    auto strip_lo = [&](size_t s) {
      return s == 0 ? x_lo : splitters[s - 1];
    };
    auto strip_hi = [&](size_t s) {
      return s == strips - 1 ? x_hi : splitters[s];
    };

    // Child working sets + per-strip active lists (whole blocks on disk,
    // the partial last block in RAM).
    std::vector<ExtVector<HSegment>> child_h;
    std::vector<ExtVector<VSegment>> child_v;
    std::vector<ExtVector<VSegment>> active;  // verticals, top-sorted
    std::vector<std::vector<VSegment>> tail(strips);
    for (size_t s = 0; s < strips; ++s) {
      child_h.emplace_back(dev_);
      child_v.emplace_back(dev_);
      active.emplace_back(dev_);
    }

    // Event stream: merge H and V sorted by decreasing y (V keyed by top).
    if (!presorted) VEM_RETURN_IF_ERROR(SortForSweep(&h, &v));

    {
      // Persistent writers: one block buffer per strip per stream, plus
      // one active-list tail per strip — well within M for k = m/4.
      std::vector<std::unique_ptr<typename ExtVector<HSegment>::Writer>> hw;
      std::vector<std::unique_ptr<typename ExtVector<VSegment>::Writer>> vw;
      for (size_t s = 0; s < strips; ++s) {
        hw.push_back(std::make_unique<typename ExtVector<HSegment>::Writer>(
            &child_h[s]));
        vw.push_back(std::make_unique<typename ExtVector<VSegment>::Writer>(
            &child_v[s]));
      }
      typename ExtVector<HSegment>::Reader hr(&h, 0, opts_.prefetch_depth);
      typename ExtVector<VSegment>::Reader vr(&v, 0, opts_.prefetch_depth);
      HSegment he;
      VSegment ve;
      bool have_h = hr.Next(&he), have_v = vr.Next(&ve);
      while (have_h || have_v) {
        // V tops at equal y go first so endpoint touching is reported.
        bool take_v = have_v && (!have_h || ve.y2 >= he.y);
        if (take_v) {
          size_t s = strip_of(ve.x);
          VEM_RETURN_IF_ERROR(PushActive(&active[s], &tail[s], ve));
          if (!vw[s]->Append(ve)) return vw[s]->status();
          have_v = vr.Next(&ve);
          continue;
        }
        // Horizontal event: report against fully spanned strips, pass
        // end pieces down.
        size_t s_lo = strip_of(he.x1), s_hi = strip_of(he.x2);
        for (size_t s = s_lo; s <= s_hi; ++s) {
          bool spans = he.x1 <= strip_lo(s) && strip_hi(s) <= he.x2;
          if (spans) {
            VEM_RETURN_IF_ERROR(ScanActive(&active[s], &tail[s], he, out));
          } else {
            // End piece: clip and recurse.
            HSegment piece = he;
            piece.x1 = std::max(he.x1, strip_lo(s));
            piece.x2 = std::min(he.x2, strip_hi(s));
            if (!hw[s]->Append(piece)) return hw[s]->status();
          }
        }
        have_h = hr.Next(&he);
      }
      VEM_RETURN_IF_ERROR(hr.status());
      VEM_RETURN_IF_ERROR(vr.status());
      for (size_t s = 0; s < strips; ++s) {
        VEM_RETURN_IF_ERROR(hw[s]->Finish());
        VEM_RETURN_IF_ERROR(vw[s]->Finish());
      }
    }
    h.Destroy();
    v.Destroy();
    for (auto& a : active) a.Destroy();

    for (size_t s = 0; s < strips; ++s) {
      VEM_RETURN_IF_ERROR(Solve(std::move(child_h[s]), std::move(child_v[s]),
                                out, depth + 1, /*presorted=*/true,
                                strip_lo(s), strip_hi(s)));
    }
    return Status::OK();
  }

  /// Append to an active list whose partial last block stays in RAM
  /// (`tail`): the on-disk part holds whole blocks only.
  Status PushActive(ExtVector<VSegment>* active, std::vector<VSegment>* tail,
                    const VSegment& ve) {
    tail->push_back(ve);
    if (tail->size() < active->items_per_block()) return Status::OK();
    VEM_RETURN_IF_ERROR(active->AppendAll(tail->data(), tail->size()));
    tail->clear();
    return Status::OK();
  }

  /// Scan one strip's active list at horizontal `he`: report the live
  /// verticals, compact away the expired ones (bottom above he.y). Every
  /// block read holds B verticals that are each reported or expired, so
  /// the scans cost O(Z/B) over the sweep; a list shorter than a block
  /// lives in RAM and costs nothing.
  Status ScanActive(ExtVector<VSegment>* active, std::vector<VSegment>* tail,
                    const HSegment& he,
                    typename ExtVector<IntersectionPair>::Writer* out) {
    ExtVector<VSegment> survivors(dev_);
    std::vector<VSegment> live;
    auto visit = [&](const VSegment& ve) {
      if (ve.y1 > he.y) return Status::OK();  // expired: sweep passed it
      if (!out->Append(IntersectionPair{he.id, ve.id})) return out->status();
      return PushActive(&survivors, &live, ve);
    };
    if (active->size() > 0) {
      typename ExtVector<VSegment>::Reader r(active, 0, opts_.prefetch_depth);
      VSegment ve;
      while (r.Next(&ve)) VEM_RETURN_IF_ERROR(visit(ve));
      VEM_RETURN_IF_ERROR(r.status());
    }
    for (const VSegment& ve : *tail) VEM_RETURN_IF_ERROR(visit(ve));
    *active = std::move(survivors);
    *tail = std::move(live);
    return Status::OK();
  }

  /// Replace h by its copy in decreasing-y order and v by its copy in
  /// decreasing-top order: the sweep's event order.
  Status SortForSweep(ExtVector<HSegment>* h, ExtVector<VSegment>* v) {
    auto h_by_y = [](const HSegment& a, const HSegment& b) {
      return a.y > b.y;
    };
    auto v_by_top = [](const VSegment& a, const VSegment& b) {
      return a.y2 > b.y2;
    };
    ExtVector<HSegment> hs(dev_);
    ExtVector<VSegment> vs(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<HSegment, decltype(h_by_y)>(dev_, opts_, h_by_y)
            .Sort(*h, &hs));
    VEM_RETURN_IF_ERROR(
        ExternalSorter<VSegment, decltype(v_by_top)>(dev_, opts_, v_by_top)
            .Sort(*v, &vs));
    h->Destroy();
    v->Destroy();
    *h = std::move(hs);
    *v = std::move(vs);
    return Status::OK();
  }

  /// All verticals share abscissa x: one active list, no strips.
  Status SolveUniformX(ExtVector<HSegment>& h, ExtVector<VSegment>& v,
                       double x,
                       typename ExtVector<IntersectionPair>::Writer* out,
                       bool presorted) {
    if (!presorted) VEM_RETURN_IF_ERROR(SortForSweep(&h, &v));
    ExtVector<VSegment> active(dev_);
    std::vector<VSegment> tail;
    typename ExtVector<HSegment>::Reader hr(&h, 0, opts_.prefetch_depth);
    typename ExtVector<VSegment>::Reader vr(&v, 0, opts_.prefetch_depth);
    HSegment he;
    VSegment ve;
    bool have_h = hr.Next(&he), have_v = vr.Next(&ve);
    while (have_h || have_v) {
      bool take_v = have_v && (!have_h || ve.y2 >= he.y);
      if (take_v) {
        VEM_RETURN_IF_ERROR(PushActive(&active, &tail, ve));
        have_v = vr.Next(&ve);
        continue;
      }
      if (he.x1 <= x && x <= he.x2) {
        VEM_RETURN_IF_ERROR(ScanActive(&active, &tail, he, out));
      }
      have_h = hr.Next(&he);
    }
    VEM_RETURN_IF_ERROR(hr.status());
    VEM_RETURN_IF_ERROR(vr.status());
    return Status::OK();
  }

  /// In-RAM sweep base case (std::multimap active structure).
  Status SolveInMemory(const ExtVector<HSegment>& h,
                       const ExtVector<VSegment>& v,
                       typename ExtVector<IntersectionPair>::Writer* out) {
    std::vector<HSegment> hs;
    std::vector<VSegment> vs;
    VEM_RETURN_IF_ERROR(h.ReadAll(&hs, opts_.prefetch_depth));
    VEM_RETURN_IF_ERROR(v.ReadAll(&vs, opts_.prefetch_depth));
    // Events: 0 = V insert (at top), 1 = H query, 2 = V erase (below
    // bottom). Process by y descending; ties: insert, query, erase.
    struct Event {
      double y;
      int type;
      size_t idx;
    };
    std::vector<Event> events;
    events.reserve(hs.size() + 2 * vs.size());
    for (size_t i = 0; i < vs.size(); ++i) {
      events.push_back({vs[i].y2, 0, i});
      events.push_back({vs[i].y1, 2, i});
    }
    for (size_t i = 0; i < hs.size(); ++i) events.push_back({hs[i].y, 1, i});
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      if (a.y != b.y) return a.y > b.y;
      return a.type < b.type;
    });
    std::multimap<double, size_t> act;  // x -> vertical index
    std::vector<std::multimap<double, size_t>::iterator> handles(vs.size());
    for (const Event& e : events) {
      if (e.type == 0) {
        handles[e.idx] = act.insert({vs[e.idx].x, e.idx});
      } else if (e.type == 2) {
        act.erase(handles[e.idx]);
      } else {
        const HSegment& seg = hs[e.idx];
        for (auto it = act.lower_bound(seg.x1);
             it != act.end() && it->first <= seg.x2; ++it) {
          if (!out->Append(IntersectionPair{seg.id, vs[it->second].id})) {
            return out->status();
          }
        }
      }
    }
    return Status::OK();
  }

  BlockDevice* dev_;
  Options opts_;
  Rng rng_;
  size_t max_depth_ = 0;
};

}  // namespace vem
