// External Euler tour of a rooted tree — O(Sort(N)) I/Os.
//
// The survey's standard reduction: replace each tree edge {u,v} by arcs
// (u,v),(v,u); the successor of arc (u,v) is the arc out of v that
// follows (v,u) in v's (circular, neighbor-sorted) adjacency order.
// Breaking the cycle at the root turns the tour into a linked list whose
// ranks — computed with ListRanker — give each arc its tour position,
// from which per-vertex preorder numbers fall out with two more sorts.
#pragma once

#include "core/ext_vector.h"
#include "graph/graph.h"
#include "graph/list_ranking.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Arc with its position in the Euler tour (0-based from the root).
struct TourArc {
  uint64_t u, v;
  uint64_t pos;
};

/// (vertex, preorder number) pair, preorder(root) == 0.
struct Preorder {
  uint64_t vertex;
  uint64_t pre;
};

/// (vertex, depth) pair, depth(root) == 0.
struct VertexDepth2 {
  uint64_t vertex;
  uint64_t depth;
};

/// Euler-tour computations over a tree given as an undirected edge list.
class EulerTour {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead/write-behind on every arc/pairing scan and
  /// reaches the internal sorts and the inner ListRanker (0 =
  /// synchronous). Never changes IoStats.
  EulerTour(BlockDevice* dev, const Options& opts)
      : dev_(dev), opts_(opts) {}

  /// Compute the tour. `tree_edges` holds each undirected edge once;
  /// vertices are 0..n-1; the tree must be connected with n-1 edges.
  /// `arcs_out` receives all 2(n-1) arcs with tour positions (sorted by
  /// (u,v)); `preorder_out` (optional) receives preorder numbers sorted
  /// by vertex.
  Status Run(const ExtVector<Edge>& tree_edges, uint64_t n, uint64_t root,
             ExtVector<TourArc>* arcs_out,
             ExtVector<Preorder>* preorder_out = nullptr) {
    if (n == 0) return Status::InvalidArgument("empty tree");
    if (n == 1) {
      if (preorder_out != nullptr) {
        typename ExtVector<Preorder>::Writer w(preorder_out,
                                               opts_.prefetch_depth);
        if (!w.Append(Preorder{root, 0})) return w.status();
        VEM_RETURN_IF_ERROR(w.Finish());
      }
      return Status::OK();
    }
    // 1. Symmetrize + sort arcs by (u, v). Arc id := index in this order.
    ExtVector<Edge> arcs(dev_);
    {
      typename ExtVector<Edge>::Reader r(&tree_edges, 0, opts_.prefetch_depth);
      typename ExtVector<Edge>::Writer w(&arcs, opts_.prefetch_depth);
      Edge e;
      while (r.Next(&e)) {
        if (!w.Append(e)) return w.status();
        if (!w.Append(Edge{e.v, e.u})) return w.status();
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    ExtVector<Edge> sorted(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(arcs, &sorted, opts_));
    arcs.Destroy();
    const uint64_t num_arcs = sorted.size();

    // 2. Successor assignment. Scanning arcs grouped by source v with
    //    neighbors w_1..w_k: succ(arc (w_i -> v)) = arc (v -> w_{i+1 mod k}),
    //    i.e. a message keyed by the arc (w_i, v).
    struct SuccMsg {
      uint64_t src, dst;  // the arc this successor belongs to
      uint64_t succ_id;
      bool operator<(const SuccMsg& o) const {
        return src != o.src ? src < o.src : dst < o.dst;
      }
    };
    ExtVector<SuccMsg> succs(dev_);
    uint64_t tour_head = kNoVertex;  // id of the root's first out-arc
    {
      typename ExtVector<Edge>::Reader r(&sorted, 0, opts_.prefetch_depth);
      typename ExtVector<SuccMsg>::Writer w(&succs, opts_.prefetch_depth);
      Edge e;
      std::vector<uint64_t> group;  // neighbor ids of current source
      uint64_t group_src = kNoVertex;
      uint64_t group_base = 0;  // arc id of first arc in group
      uint64_t idx = 0;
      auto flush_group = [&]() -> Status {
        if (group.empty()) return Status::OK();
        for (size_t i = 0; i < group.size(); ++i) {
          size_t nxt = (i + 1) % group.size();
          // arc (group[i] -> group_src) gets successor arc id base+nxt.
          if (!w.Append(SuccMsg{group[i], group_src, group_base + nxt})) {
            return w.status();
          }
        }
        if (group_src == root) tour_head = group_base;
        return Status::OK();
      };
      while (r.Next(&e)) {
        if (e.u != group_src) {
          VEM_RETURN_IF_ERROR(flush_group());
          group.clear();
          group_src = e.u;
          group_base = idx;
        }
        group.push_back(e.v);
        idx++;
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(flush_group());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    if (tour_head == kNoVertex) {
      return Status::InvalidArgument("root has no incident edge");
    }
    ExtVector<SuccMsg> succs_sorted(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(succs, &succs_sorted, opts_));
    succs.Destroy();

    // 3. Merge-join arcs with succ messages -> list nodes; break the
    //    cycle where succ == tour_head.
    ExtVector<ListNode> list(dev_);
    {
      typename ExtVector<Edge>::Reader ar(&sorted, 0, opts_.prefetch_depth);
      typename ExtVector<SuccMsg>::Reader mr(&succs_sorted, 0,
                                             opts_.prefetch_depth);
      typename ExtVector<ListNode>::Writer w(&list, opts_.prefetch_depth);
      Edge e;
      SuccMsg m{};
      uint64_t idx = 0;
      while (ar.Next(&e)) {
        if (!mr.Next(&m)) {
          return Status::Corruption("successor message stream too short");
        }
        if (m.src != e.u || m.dst != e.v) {
          return Status::Corruption("arc/successor join misaligned");
        }
        uint64_t succ = (m.succ_id == tour_head) ? kNoVertex : m.succ_id;
        if (!w.Append(ListNode{idx, succ, 1})) return w.status();
        idx++;
      }
      VEM_RETURN_IF_ERROR(ar.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    succs_sorted.Destroy();

    // 4. Rank the list: rank = #arcs from this one to the tour end
    //    (inclusive); position = num_arcs - rank.
    ExtVector<ListRank> ranks(dev_);
    {
      ListRanker ranker(dev_, opts_);
      VEM_RETURN_IF_ERROR(ranker.Rank(list, &ranks));
    }
    list.Destroy();

    // 5. Emit TourArcs: ranks sorted by id == arc order of `sorted`.
    {
      typename ExtVector<Edge>::Reader ar(&sorted, 0, opts_.prefetch_depth);
      typename ExtVector<ListRank>::Reader rr(&ranks, 0, opts_.prefetch_depth);
      typename ExtVector<TourArc>::Writer w(arcs_out, opts_.prefetch_depth);
      Edge e;
      ListRank lr{};
      while (ar.Next(&e)) {
        if (!rr.Next(&lr)) return Status::Corruption("rank stream too short");
        if (!w.Append(TourArc{e.u, e.v, num_arcs - lr.rank})) {
          return w.status();
        }
      }
      VEM_RETURN_IF_ERROR(ar.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    ranks.Destroy();
    sorted.Destroy();

    if (preorder_out != nullptr) {
      VEM_RETURN_IF_ERROR(ComputePreorder(*arcs_out, root, preorder_out));
    }
    return Status::OK();
  }

  /// Node depths from a computed tour: a down arc raises the running
  /// depth by one and fixes its head's depth; an up arc lowers it. One
  /// pairing sort + one by-position sort + one scan: O(Sort(N)).
  Status Depths(const ExtVector<TourArc>& arcs, uint64_t root,
                ExtVector<VertexDepth2>* out) {
    struct PosDir {
      uint64_t pos;
      uint64_t head;
      uint8_t down;
      bool operator<(const PosDir& o) const { return pos < o.pos; }
    };
    // Pair each arc with its reverse to classify down/up.
    struct PairKey {
      uint64_t lo, hi, pos, head;
      bool operator<(const PairKey& o) const {
        if (lo != o.lo) return lo < o.lo;
        if (hi != o.hi) return hi < o.hi;
        return pos < o.pos;
      }
    };
    ExtVector<PairKey> keyed(dev_);
    {
      typename ExtVector<TourArc>::Reader r(&arcs, 0, opts_.prefetch_depth);
      typename ExtVector<PairKey>::Writer w(&keyed, opts_.prefetch_depth);
      TourArc a;
      while (r.Next(&a)) {
        if (!w.Append(PairKey{std::min(a.u, a.v), std::max(a.u, a.v), a.pos,
                              a.v})) {
          return w.status();
        }
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    ExtVector<PairKey> paired(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(keyed, &paired, opts_));
    keyed.Destroy();
    ExtVector<PosDir> dirs(dev_);
    {
      typename ExtVector<PairKey>::Reader r(&paired, 0, opts_.prefetch_depth);
      typename ExtVector<PosDir>::Writer w(&dirs, opts_.prefetch_depth);
      PairKey a, b;
      while (r.Next(&a)) {
        if (!r.Next(&b)) return Status::Corruption("unpaired arc");
        const PairKey& dn = a.pos < b.pos ? a : b;
        const PairKey& up = a.pos < b.pos ? b : a;
        if (!w.Append(PosDir{dn.pos, dn.head, 1})) return w.status();
        if (!w.Append(PosDir{up.pos, up.head, 0})) return w.status();
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    paired.Destroy();
    ExtVector<PosDir> by_pos(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(dirs, &by_pos, opts_));
    dirs.Destroy();
    ExtVector<VertexDepth2> depths(dev_);
    {
      typename ExtVector<PosDir>::Reader r(&by_pos, 0, opts_.prefetch_depth);
      typename ExtVector<VertexDepth2>::Writer w(&depths, opts_.prefetch_depth);
      if (!w.Append(VertexDepth2{root, 0})) return w.status();
      PosDir d;
      uint64_t depth = 0;
      while (r.Next(&d)) {
        if (d.down) {
          depth++;
          if (!w.Append(VertexDepth2{d.head, depth})) return w.status();
        } else {
          depth--;
        }
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    by_pos.Destroy();
    auto by_vertex = [](const VertexDepth2& a, const VertexDepth2& b) {
      return a.vertex < b.vertex;
    };
    VEM_RETURN_IF_ERROR(ExternalSort<VertexDepth2, decltype(by_vertex)>(
        depths, out, opts_, by_vertex));
    return Status::OK();
  }

 private:
  /// Down arcs (first visits) in tour order yield preorder numbers.
  /// Arc (u,v) is down iff pos(u,v) < pos(v,u): join each arc with its
  /// reverse by sorting on the unordered pair, then scan in tour order.
  Status ComputePreorder(const ExtVector<TourArc>& arcs, uint64_t root,
                         ExtVector<Preorder>* out) {
    struct PairKey {
      uint64_t lo, hi;   // unordered endpoints
      uint64_t pos;
      uint64_t head;     // the arc's target vertex
      bool operator<(const PairKey& o) const {
        if (lo != o.lo) return lo < o.lo;
        if (hi != o.hi) return hi < o.hi;
        return pos < o.pos;
      }
    };
    ExtVector<PairKey> keyed(dev_);
    {
      typename ExtVector<TourArc>::Reader r(&arcs, 0, opts_.prefetch_depth);
      typename ExtVector<PairKey>::Writer w(&keyed, opts_.prefetch_depth);
      TourArc a;
      while (r.Next(&a)) {
        PairKey k{std::min(a.u, a.v), std::max(a.u, a.v), a.pos, a.v};
        if (!w.Append(k)) return w.status();
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    ExtVector<PairKey> paired(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(keyed, &paired, opts_));
    keyed.Destroy();
    // Consecutive pairs are an arc and its reverse; the earlier one is
    // the down arc, entering vertex `head`.
    struct DownArc {
      uint64_t pos;
      uint64_t vertex;
      bool operator<(const DownArc& o) const { return pos < o.pos; }
    };
    ExtVector<DownArc> downs(dev_);
    {
      typename ExtVector<PairKey>::Reader r(&paired, 0, opts_.prefetch_depth);
      typename ExtVector<DownArc>::Writer w(&downs, opts_.prefetch_depth);
      PairKey a, b;
      while (r.Next(&a)) {
        if (!r.Next(&b)) return Status::Corruption("unpaired arc");
        const PairKey& first = a.pos < b.pos ? a : b;
        if (!w.Append(DownArc{first.pos, first.head})) return w.status();
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    paired.Destroy();
    ExtVector<DownArc> by_pos(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(downs, &by_pos, opts_));
    downs.Destroy();
    // Scan in tour order: preorder(root)=0, then 1,2,... per down arc.
    ExtVector<Preorder> pres(dev_);
    {
      typename ExtVector<DownArc>::Reader r(&by_pos, 0, opts_.prefetch_depth);
      typename ExtVector<Preorder>::Writer w(&pres, opts_.prefetch_depth);
      if (!w.Append(Preorder{root, 0})) return w.status();
      DownArc d;
      uint64_t c = 1;
      while (r.Next(&d)) {
        if (!w.Append(Preorder{d.vertex, c++})) return w.status();
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    by_pos.Destroy();
    auto by_vertex = [](const Preorder& a, const Preorder& b) {
      return a.vertex < b.vertex;
    };
    VEM_RETURN_IF_ERROR(ExternalSort<Preorder, decltype(by_vertex)>(
        pres, out, opts_, by_vertex));
    return Status::OK();
  }

  BlockDevice* dev_;
  Options opts_;
};

}  // namespace vem
