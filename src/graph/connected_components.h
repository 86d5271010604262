// External connected components — Borůvka-style hook-and-contract,
// O(Sort(E) · log V) I/Os (survey §graph algorithms).
//
// Each round, over the current (contracted) graph:
//   1. hook:     L(u) = min(u, min neighbor of u)  — one scan of the
//                arc list grouped by source; since L(u) <= u the pointer
//                graph is a forest;
//   2. compress: pointer-jump L <- L(L) (sort + merge-join per jump)
//                until every tree is a star;
//   3. relabel:  fold the round's mapping into the global per-vertex
//                labels (one sort-join);
//   4. contract: rewrite arcs as (L(u), L(v)), dropping self-loops and
//                duplicates (two joins + one sort).
// Every component that still has an edge merges with at least one other
// per round, so the number of live representatives at least halves:
// O(log V) rounds, each a constant number of sorts of a shrinking list.
// Pure label-propagation (no contraction) needs Θ(diameter) rounds on
// grids; io_bounds_test bounds each round here by Sort(V + E).
#pragma once

#include "core/ext_vector.h"
#include "graph/graph.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// (vertex, component label) pair; the final label of every vertex is the
/// minimum vertex id in its component.
struct VertexLabel {
  uint64_t v;
  uint64_t label;
};

/// External connected components over an undirected edge list.
class ConnectedComponents {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead/write-behind on every hook/compress/
  /// relabel/contract stream and on the internal sorts' run streams (0 =
  /// synchronous). Never changes IoStats.
  ConnectedComponents(BlockDevice* dev, const Options& opts)
      : dev_(dev), opts_(opts) {}


  /// Hook-and-contract rounds of the last Run().
  size_t rounds() const { return rounds_; }

  /// Compute component labels for vertices 0..n-1. `edges` holds each
  /// undirected edge once (self-loops allowed, ignored). Output sorted
  /// by vertex id.
  Status Run(const ExtVector<Edge>& edges, uint64_t n,
             ExtVector<VertexLabel>* out) {
    rounds_ = 0;
    // Global labels: v -> v, sorted by v.
    ExtVector<VertexLabel> labels(dev_);
    {
      typename ExtVector<VertexLabel>::Writer w(&labels, opts_.prefetch_depth);
      for (uint64_t v = 0; v < n; ++v) {
        if (!w.Append(VertexLabel{v, v})) return w.status();
      }
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    // Symmetrized arc list sorted by (source, target).
    ExtVector<Edge> arcs(dev_);
    {
      ExtVector<Edge> raw(dev_);
      {
        typename ExtVector<Edge>::Reader r(&edges, 0, opts_.prefetch_depth);
        typename ExtVector<Edge>::Writer w(&raw, opts_.prefetch_depth);
        Edge e;
        while (r.Next(&e)) {
          if (e.u == e.v) continue;
          if (!w.Append(e)) return w.status();
          if (!w.Append(Edge{e.v, e.u})) return w.status();
        }
        VEM_RETURN_IF_ERROR(r.status());
        VEM_RETURN_IF_ERROR(w.Finish());
      }
      VEM_RETURN_IF_ERROR(ExternalSorter<Edge>(dev_, opts_).Sort(raw, &arcs));
    }

    while (arcs.size() > 0) {
      rounds_++;
      if (rounds_ > 128) {
        return Status::Corruption("connected components did not converge");
      }
      // --- 1. hook: round labels for active sources, sorted by u. ---
      ExtVector<VertexLabel> rl(dev_);
      {
        typename ExtVector<Edge>::Reader r(&arcs, 0, opts_.prefetch_depth);
        typename ExtVector<VertexLabel>::Writer w(&rl, opts_.prefetch_depth);
        Edge e;
        bool have = r.Next(&e);
        while (have) {
          uint64_t u = e.u;
          uint64_t best = u;
          while (have && e.u == u) {
            best = std::min(best, e.v);
            have = r.Next(&e);
          }
          if (!w.Append(VertexLabel{u, best})) return w.status();
        }
        VEM_RETURN_IF_ERROR(r.status());
        VEM_RETURN_IF_ERROR(w.Finish());
      }
      // --- 2. compress to stars. ---
      bool changed = true;
      while (changed) {
        changed = false;
        VEM_RETURN_IF_ERROR(Jump(&rl, &changed));
      }
      // --- 3. fold into global labels. ---
      VEM_RETURN_IF_ERROR(Relabel(rl, &labels));
      // --- 4. contract arcs. ---
      ExtVector<Edge> contracted(dev_);
      VEM_RETURN_IF_ERROR(Contract(arcs, rl, &contracted));
      arcs = std::move(contracted);
      rl.Destroy();
    }
    *out = std::move(labels);
    return Status::OK();
  }

 private:
  /// rl[u] <- rl[rl[u]] for all u (one pointer-jump pass). rl is sorted
  /// by u on entry and on exit.
  Status Jump(ExtVector<VertexLabel>* rl, bool* changed) {
    auto by_label = [](const VertexLabel& a, const VertexLabel& b) {
      if (a.label != b.label) return a.label < b.label;
      return a.v < b.v;
    };
    ExtVector<VertexLabel> by_l(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<VertexLabel, decltype(by_label)>(dev_, opts_, by_label)
            .Sort(*rl, &by_l));
    ExtVector<VertexLabel> jumped(dev_);
    {
      typename ExtVector<VertexLabel>::Reader pr(
          &by_l, 0, opts_.prefetch_depth);
      typename ExtVector<VertexLabel>::Reader lr(rl, 0, opts_.prefetch_depth);
      typename ExtVector<VertexLabel>::Writer w(&jumped, opts_.prefetch_depth);
      VertexLabel p, l{};
      bool have_l = lr.Next(&l);
      while (pr.Next(&p)) {
        while (have_l && l.v < p.label) have_l = lr.Next(&l);
        uint64_t target = p.label;
        if (have_l && l.v == p.label) target = l.label;
        if (target != p.label) *changed = true;
        if (!w.Append(VertexLabel{p.v, target})) return w.status();
      }
      VEM_RETURN_IF_ERROR(pr.status());
      VEM_RETURN_IF_ERROR(lr.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    by_l.Destroy();
    auto by_v = [](const VertexLabel& a, const VertexLabel& b) {
      return a.v < b.v;
    };
    ExtVector<VertexLabel> restored(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<VertexLabel, decltype(by_v)>(dev_, opts_, by_v)
            .Sort(jumped, &restored));
    jumped.Destroy();
    *rl = std::move(restored);
    return Status::OK();
  }

  /// labels[v] <- rl[labels[v]] where defined. labels sorted by v in/out.
  Status Relabel(const ExtVector<VertexLabel>& rl,
                 ExtVector<VertexLabel>* labels) {
    auto by_label = [](const VertexLabel& a, const VertexLabel& b) {
      if (a.label != b.label) return a.label < b.label;
      return a.v < b.v;
    };
    ExtVector<VertexLabel> by_l(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<VertexLabel, decltype(by_label)>(dev_, opts_, by_label)
            .Sort(*labels, &by_l));
    ExtVector<VertexLabel> updated(dev_);
    {
      typename ExtVector<VertexLabel>::Reader pr(
          &by_l, 0, opts_.prefetch_depth);
      typename ExtVector<VertexLabel>::Reader rr(&rl, 0, opts_.prefetch_depth);
      typename ExtVector<VertexLabel>::Writer w(&updated, opts_.prefetch_depth);
      VertexLabel p, r{};
      bool have_r = rr.Next(&r);
      while (pr.Next(&p)) {
        while (have_r && r.v < p.label) have_r = rr.Next(&r);
        uint64_t target = p.label;
        if (have_r && r.v == p.label) target = r.label;
        if (!w.Append(VertexLabel{p.v, target})) return w.status();
      }
      VEM_RETURN_IF_ERROR(pr.status());
      VEM_RETURN_IF_ERROR(rr.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    by_l.Destroy();
    auto by_v = [](const VertexLabel& a, const VertexLabel& b) {
      return a.v < b.v;
    };
    ExtVector<VertexLabel> restored(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<VertexLabel, decltype(by_v)>(dev_, opts_, by_v)
            .Sort(updated, &restored));
    updated.Destroy();
    *labels = std::move(restored);
    return Status::OK();
  }

  /// Rewrite arcs as (rl[u], rl[v]); drop self-loops and duplicates.
  /// Output sorted by (u, v).
  Status Contract(const ExtVector<Edge>& arcs, const ExtVector<VertexLabel>& rl,
                  ExtVector<Edge>* out) {
    // Arcs are sorted by u and rl by v: first endpoint join is a merge.
    ExtVector<Edge> half(dev_);
    {
      typename ExtVector<Edge>::Reader ar(&arcs, 0, opts_.prefetch_depth);
      typename ExtVector<VertexLabel>::Reader rr(&rl, 0, opts_.prefetch_depth);
      typename ExtVector<Edge>::Writer w(&half, opts_.prefetch_depth);
      Edge e;
      VertexLabel r{};
      bool have_r = rr.Next(&r);
      while (ar.Next(&e)) {
        while (have_r && r.v < e.u) have_r = rr.Next(&r);
        if (!have_r || r.v != e.u) {
          return Status::Corruption("round label missing for arc source");
        }
        // Store as (v, L(u)) so the second join can sort by v once.
        if (!w.Append(Edge{e.v, r.label})) return w.status();
      }
      VEM_RETURN_IF_ERROR(ar.status());
      VEM_RETURN_IF_ERROR(rr.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    ExtVector<Edge> half_sorted(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<Edge>(dev_, opts_).Sort(half, &half_sorted));
    half.Destroy();
    ExtVector<Edge> full(dev_);
    {
      typename ExtVector<Edge>::Reader ar(
          &half_sorted, 0, opts_.prefetch_depth);
      typename ExtVector<VertexLabel>::Reader rr(&rl, 0, opts_.prefetch_depth);
      typename ExtVector<Edge>::Writer w(&full, opts_.prefetch_depth);
      Edge e;  // e.u = original v, e.v = L(u)
      VertexLabel r{};
      bool have_r = rr.Next(&r);
      while (ar.Next(&e)) {
        while (have_r && r.v < e.u) have_r = rr.Next(&r);
        if (!have_r || r.v != e.u) {
          return Status::Corruption("round label missing for arc target");
        }
        uint64_t lu = e.v, lv = r.label;
        if (lu == lv) continue;  // internal edge: contracted away
        if (!w.Append(Edge{lu, lv})) return w.status();
      }
      VEM_RETURN_IF_ERROR(ar.status());
      VEM_RETURN_IF_ERROR(rr.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    half_sorted.Destroy();
    ExtVector<Edge> sorted(dev_);
    VEM_RETURN_IF_ERROR(ExternalSorter<Edge>(dev_, opts_).Sort(full, &sorted));
    full.Destroy();
    // Dedupe in one scan.
    {
      typename ExtVector<Edge>::Reader r(&sorted, 0, opts_.prefetch_depth);
      typename ExtVector<Edge>::Writer w(out, opts_.prefetch_depth);
      Edge e, prev{kNoVertex, kNoVertex};
      while (r.Next(&e)) {
        if (e.u == prev.u && e.v == prev.v) continue;
        if (!w.Append(e)) return w.status();
        prev = e;
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    sorted.Destroy();
    return Status::OK();
  }

  BlockDevice* dev_;
  Options opts_;
  size_t rounds_ = 0;
};

}  // namespace vem
