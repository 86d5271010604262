// External breadth-first search — Munagala-Ranade, O(V + Sort(E)) I/Os.
//
// The key idea from the survey: the next frontier is
//   N(L_t) \ (L_t ∪ L_{t-1}),
// and because the graph is undirected no earlier level can reappear, so
// dedup needs only the two previous levels. N(L_t) is gathered by reading
// the adjacency lists of frontier vertices (the O(V) term), then sorted
// and set-subtracted with pure merges (the Sort(E) term). No visited
// bitmap, no random access.
#pragma once

#include "core/ext_queue.h"
#include "core/ext_vector.h"
#include "graph/graph.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// (vertex, BFS distance) result pair.
struct VertexDist {
  uint64_t v;
  uint64_t dist;
};

/// External BFS over a (symmetrized) ExtGraph.
class ExternalBfs {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead/write-behind on every level stream
  /// (frontier scans, neighbor gather, the sort+subtract merge, the output
  /// writer) and the same depth on the per-level neighbor sort's run
  /// streams (0 = synchronous). Never changes IoStats.
  ExternalBfs(BlockDevice* dev, const Options& opts) : dev_(dev), opts_(opts) {}


  /// Number of BFS levels of the last Run().
  size_t levels() const { return levels_; }

  /// Run BFS from `source`; emits (v, dist) for every reachable vertex,
  /// grouped by level (i.e. sorted by dist, then by v).
  Status Run(const ExtGraph& graph, uint64_t source,
             ExtVector<VertexDist>* out) {
    levels_ = 0;
    const size_t depth = opts_.prefetch_depth;
    typename ExtVector<VertexDist>::Writer ow(out, depth);

    ExtVector<uint64_t> prev(dev_);   // L_{t-1}, sorted
    ExtVector<uint64_t> cur(dev_);    // L_t, sorted
    {
      ExtVector<uint64_t>::Writer w(&cur);
      if (!w.Append(source)) return w.status();
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    uint64_t dist = 0;
    while (cur.size() > 0) {
      levels_++;
      // Emit the current level.
      {
        ExtVector<uint64_t>::Reader r(&cur, 0, depth);
        uint64_t v;
        while (r.Next(&v)) {
          if (!ow.Append(VertexDist{v, dist})) return ow.status();
        }
        VEM_RETURN_IF_ERROR(r.status());
      }
      // Gather N(L_t): scan frontier, read each adjacency list.
      ExtVector<uint64_t> nbrs(dev_);
      {
        ExtVector<uint64_t>::Reader r(&cur, 0, depth);
        ExtVector<uint64_t>::Writer w(&nbrs, depth);
        uint64_t v;
        std::vector<uint64_t> adj;
        while (r.Next(&v)) {
          adj.clear();
          VEM_RETURN_IF_ERROR(graph.Neighbors(v, &adj));
          for (uint64_t u : adj) {
            if (!w.Append(u)) return w.status();
          }
        }
        VEM_RETURN_IF_ERROR(r.status());
        VEM_RETURN_IF_ERROR(w.Finish());
      }
      // Sort + dedupe + subtract L_t and L_{t-1} in one merge scan.
      ExtVector<uint64_t> nbrs_sorted(dev_);
      VEM_RETURN_IF_ERROR(
          ExternalSorter<uint64_t>(dev_, opts_).Sort(nbrs, &nbrs_sorted));
      nbrs.Destroy();
      ExtVector<uint64_t> next(dev_);
      {
        ExtVector<uint64_t>::Reader nr(&nbrs_sorted, 0, depth);
        ExtVector<uint64_t>::Reader cr(&cur, 0, depth);
        ExtVector<uint64_t>::Reader pr(&prev, 0, depth);
        ExtVector<uint64_t>::Writer w(&next, depth);
        uint64_t n, c = 0, p = 0;
        bool have_c = cr.Next(&c), have_p = pr.Next(&p);
        uint64_t last = kNoVertex;
        while (nr.Next(&n)) {
          if (n == last) continue;  // dedupe
          last = n;
          while (have_c && c < n) have_c = cr.Next(&c);
          if (have_c && c == n) continue;  // in L_t
          while (have_p && p < n) have_p = pr.Next(&p);
          if (have_p && p == n) continue;  // in L_{t-1}
          if (!w.Append(n)) return w.status();
        }
        VEM_RETURN_IF_ERROR(nr.status());
        VEM_RETURN_IF_ERROR(w.Finish());
      }
      nbrs_sorted.Destroy();
      prev = std::move(cur);
      cur = std::move(next);
      dist++;
    }
    return ow.Finish();
  }

 private:
  BlockDevice* dev_;
  Options opts_;
  size_t levels_ = 0;
};

/// Baseline for benchmarks: textbook internal BFS with a paged visited
/// array and paged adjacency access — ~Θ(E) random I/Os once the graph
/// exceeds the pool (the behavior MR-BFS is designed to avoid).
inline Status InternalBfsBaseline(const ExtGraph& graph, uint64_t source,
                                  BufferPool* pool,
                                  ExtVector<VertexDist>* out) {
  BlockDevice* dev = pool->device();
  ExtVector<uint8_t> visited(dev, pool);
  {
    ExtVector<uint8_t>::Writer w(&visited);
    for (uint64_t v = 0; v < graph.num_vertices(); ++v) {
      if (!w.Append(0)) return w.status();
    }
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  ExtQueue<VertexDist> queue(dev);
  VEM_RETURN_IF_ERROR(queue.Push(VertexDist{source, 0}));
  VEM_RETURN_IF_ERROR(visited.Set(source, 1));
  typename ExtVector<VertexDist>::Writer ow(out);
  VertexDist vd;
  std::vector<uint64_t> adj;
  while (queue.Pop(&vd).ok()) {
    if (!ow.Append(vd)) return ow.status();
    adj.clear();
    VEM_RETURN_IF_ERROR(graph.Neighbors(vd.v, &adj));
    for (uint64_t u : adj) {
      uint8_t seen = 0;
      VEM_RETURN_IF_ERROR(visited.Get(u, &seen));
      if (!seen) {
        VEM_RETURN_IF_ERROR(visited.Set(u, 1));
        VEM_RETURN_IF_ERROR(queue.Push(VertexDist{u, vd.dist + 1}));
      }
    }
  }
  return ow.Finish();
}

}  // namespace vem
