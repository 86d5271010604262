// Semi-external single-source shortest paths (survey §graph algorithms).
//
// Dijkstra with the external priority queue and lazy deletion: instead
// of decrease-key, every relaxation pushes a fresh (dist, vertex) entry
// and stale pops are discarded against a paged tentative-distance array.
// The PQ traffic is O(Sort(E)); the tentative-distance reads/updates are
// the random-access component that keeps SSSP "semi-external" — the
// survey points out that fully-external SSSP remains harder than BFS,
// and this implementation makes that cost visible in the I/O counters.
//
// Kumar-Schwabe is the classic reference for this structure.
#pragma once

#include <limits>

#include "core/ext_vector.h"
#include "graph/graph.h"
#include "search/external_pq.h"
#include "serve/execution_context.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Weighted directed arc.
struct WeightedEdge {
  uint64_t u, v;
  uint64_t w;

  bool operator<(const WeightedEdge& o) const {
    if (u != o.u) return u < o.u;
    if (v != o.v) return v < o.v;
    return w < o.w;
  }
};

/// Infinite distance marker.
inline constexpr uint64_t kInfDist = ~0ull;

/// CSR adjacency with weights, built by one external sort.
class WeightedGraph {
 public:
  WeightedGraph(BlockDevice* dev, BufferPool* pool)
      : num_vertices_(0), offsets_(dev, pool), targets_(dev, pool),
        weights_(dev, pool) {}

  /// Serving-plane wiring: adjacency paged through an ExecutionContext
  /// (one tenant of a possibly shared M; serve/execution_context.h).
  explicit WeightedGraph(ExecutionContext* ctx)
      : WeightedGraph(ctx->device(), ctx->pool()) {}

  /// Build from arcs; set `symmetrize` for undirected graphs.
  Status Build(const ExtVector<WeightedEdge>& arcs, uint64_t n,
               const Options& opts, bool symmetrize = false) {
    num_vertices_ = n;
    BlockDevice* dev = offsets_.device();
    ExtVector<WeightedEdge> all(dev);
    {
      typename ExtVector<WeightedEdge>::Reader r(&arcs);
      typename ExtVector<WeightedEdge>::Writer w(&all);
      WeightedEdge e;
      while (r.Next(&e)) {
        if (e.u >= n || e.v >= n) {
          return Status::InvalidArgument("edge endpoint out of range");
        }
        if (!w.Append(e)) return w.status();
        if (symmetrize) {
          if (!w.Append(WeightedEdge{e.v, e.u, e.w})) return w.status();
        }
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    ExtVector<WeightedEdge> sorted(dev);
    VEM_RETURN_IF_ERROR(ExternalSort(all, &sorted, opts));
    all.Destroy();
    {
      typename ExtVector<WeightedEdge>::Reader r(&sorted);
      ExtVector<uint64_t>::Writer ow(&offsets_), tw(&targets_), ww(&weights_);
      WeightedEdge e;
      uint64_t next_vertex = 0, count = 0;
      while (r.Next(&e)) {
        while (next_vertex <= e.u) {
          if (!ow.Append(count)) return ow.status();
          next_vertex++;
        }
        if (!tw.Append(e.v)) return tw.status();
        if (!ww.Append(e.w)) return ww.status();
        count++;
      }
      VEM_RETURN_IF_ERROR(r.status());
      while (next_vertex <= n) {
        if (!ow.Append(count)) return ow.status();
        next_vertex++;
      }
      VEM_RETURN_IF_ERROR(ow.Finish());
      VEM_RETURN_IF_ERROR(tw.Finish());
      VEM_RETURN_IF_ERROR(ww.Finish());
    }
    return Status::OK();
  }

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_arcs() const { return targets_.size(); }

  /// Append (target, weight) pairs of v's out-arcs.
  Status OutArcs(uint64_t v,
                 std::vector<std::pair<uint64_t, uint64_t>>* out) const {
    uint64_t begin, end;
    VEM_RETURN_IF_ERROR(offsets_.Get(v, &begin));
    VEM_RETURN_IF_ERROR(offsets_.Get(v + 1, &end));
    ExtVector<uint64_t>::Reader tr(&targets_, begin);
    ExtVector<uint64_t>::Reader wr(&weights_, begin);
    for (uint64_t i = begin; i < end; ++i) {
      uint64_t t, w;
      if (!tr.Next(&t)) return tr.status();
      if (!wr.Next(&w)) return wr.status();
      out->push_back({t, w});
    }
    return Status::OK();
  }

 private:
  uint64_t num_vertices_;
  ExtVector<uint64_t> offsets_;
  ExtVector<uint64_t> targets_;
  ExtVector<uint64_t> weights_;
};

/// Semi-external Dijkstra.
class SemiExternalSssp {
 public:
  /// M is `opts.memory_budget`; its `prefetch_depth` K reaches the
  /// priority queue's run streams (0 = synchronous). Never changes
  /// IoStats.
  SemiExternalSssp(BlockDevice* dev, BufferPool* pool, const Options& opts)
      : dev_(dev), pool_(pool), opts_(opts) {}

  /// Serving-plane wiring: distances and PQ run streams charge the
  /// context tenant's slice of M (serve/execution_context.h).
  explicit SemiExternalSssp(ExecutionContext* ctx)
      : SemiExternalSssp(ctx->device(), ctx->pool(), ctx->options()) {}

  /// Shortest distances from `source`; out[v] = kInfDist if unreachable.
  /// `out` is a dense pooled vector of num_vertices entries.
  Status Run(const WeightedGraph& graph, uint64_t source,
             ExtVector<uint64_t>* out) {
    const uint64_t n = graph.num_vertices();
    if (source >= n) return Status::InvalidArgument("source out of range");
    if (out->pool() == nullptr) {
      return Status::InvalidArgument("SSSP output needs a BufferPool");
    }
    // Tentative distances, paged.
    {
      ExtVector<uint64_t>::Writer w(out);
      for (uint64_t v = 0; v < n; ++v) {
        if (!w.Append(kInfDist)) return w.status();
      }
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    struct Item {
      uint64_t dist;
      uint64_t v;
      bool operator<(const Item& o) const {
        return dist != o.dist ? dist < o.dist : v < o.v;
      }
    };
    ExternalPriorityQueue<Item> pq(dev_, opts_);
    VEM_RETURN_IF_ERROR(out->Set(source, 0));
    VEM_RETURN_IF_ERROR(pq.Push(Item{0, source}));
    std::vector<std::pair<uint64_t, uint64_t>> arcs;
    while (!pq.empty()) {
      Item it;
      VEM_RETURN_IF_ERROR(pq.Pop(&it));
      uint64_t best;
      VEM_RETURN_IF_ERROR(out->Get(it.v, &best));
      if (it.dist != best) continue;  // stale (lazy deletion)
      arcs.clear();
      VEM_RETURN_IF_ERROR(graph.OutArcs(it.v, &arcs));
      for (const auto& [t, w] : arcs) {
        uint64_t nd = it.dist + w;
        uint64_t cur;
        VEM_RETURN_IF_ERROR(out->Get(t, &cur));
        if (nd < cur) {
          VEM_RETURN_IF_ERROR(out->Set(t, nd));
          VEM_RETURN_IF_ERROR(pq.Push(Item{nd, t}));
        }
      }
    }
    // Publish dirty distance pages so streaming readers see the result.
    return pool_->FlushAll();
  }

 private:
  BlockDevice* dev_;
  BufferPool* pool_;
  Options opts_;
};

}  // namespace vem
