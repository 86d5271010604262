// External-memory graph representation (survey §graph algorithms).
//
// Edge-list + CSR adjacency on ExtVectors. Construction is sort-based:
// Sort(E) I/Os to order edges, one scan to build the offset array.
#pragma once

#include <cstdint>

#include "core/ext_vector.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Directed arc (u -> v). Undirected graphs store both arcs.
struct Edge {
  uint64_t u;
  uint64_t v;

  bool operator<(const Edge& o) const {
    return u != o.u ? u < o.u : v < o.v;
  }
  bool operator==(const Edge& o) const = default;
};

/// Sentinel vertex id.
inline constexpr uint64_t kNoVertex = ~0ull;

/// CSR adjacency: offsets[v]..offsets[v+1] indexes into neighbors.
/// Offsets support random access through a pool; neighbor lists are read
/// with positioned sequential Readers (1 + deg(v)/B I/Os per list).
class ExtGraph {
 public:
  ExtGraph(BlockDevice* dev, BufferPool* pool)
      : num_vertices_(0), offsets_(dev, pool), neighbors_(dev, pool) {}

  /// Build from an arc list. For an undirected graph pass both (u,v) and
  /// (v,u), or set `symmetrize` to add reverses automatically.
  /// Cost: Sort(E) + Scan(E); the sort takes M and its stream depth
  /// from `opts`.
  Status Build(const ExtVector<Edge>& arcs, uint64_t num_vertices,
               const Options& opts, bool symmetrize = false) {
    num_vertices_ = num_vertices;
    BlockDevice* dev = offsets_.device();
    ExtVector<Edge> all(dev);
    {
      typename ExtVector<Edge>::Reader r(&arcs);
      typename ExtVector<Edge>::Writer w(&all);
      Edge e;
      while (r.Next(&e)) {
        if (e.u >= num_vertices || e.v >= num_vertices) {
          return Status::InvalidArgument("edge endpoint out of range");
        }
        if (!w.Append(e)) return w.status();
        if (symmetrize) {
          if (!w.Append(Edge{e.v, e.u})) return w.status();
        }
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    ExtVector<Edge> sorted(dev);
    VEM_RETURN_IF_ERROR(ExternalSort(all, &sorted, opts));
    all.Destroy();
    // One merged scan: offsets (prefix counts) + neighbor ids.
    {
      typename ExtVector<Edge>::Reader r(&sorted);
      ExtVector<uint64_t>::Writer ow(&offsets_);
      ExtVector<uint64_t>::Writer nw(&neighbors_);
      Edge e;
      uint64_t next_vertex = 0;
      uint64_t count = 0;
      while (r.Next(&e)) {
        while (next_vertex <= e.u) {
          if (!ow.Append(count)) return ow.status();
          next_vertex++;
        }
        if (!nw.Append(e.v)) return nw.status();
        count++;
      }
      VEM_RETURN_IF_ERROR(r.status());
      while (next_vertex <= num_vertices) {
        if (!ow.Append(count)) return ow.status();
        next_vertex++;
      }
      VEM_RETURN_IF_ERROR(ow.Finish());
      VEM_RETURN_IF_ERROR(nw.Finish());
    }
    return Status::OK();
  }

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_arcs() const { return neighbors_.size(); }

  /// Read the [begin, end) neighbor range of v: 2 offset lookups.
  Status NeighborRange(uint64_t v, uint64_t* begin, uint64_t* end) const {
    VEM_RETURN_IF_ERROR(offsets_.Get(v, begin));
    return offsets_.Get(v + 1, end);
  }

  /// Append all neighbors of v to *out (1 + deg/B reads).
  Status Neighbors(uint64_t v, std::vector<uint64_t>* out) const {
    uint64_t begin = 0, end = 0;
    VEM_RETURN_IF_ERROR(NeighborRange(v, &begin, &end));
    ExtVector<uint64_t>::Reader r(&neighbors_, begin);
    uint64_t nb;
    for (uint64_t i = begin; i < end; ++i) {
      if (!r.Next(&nb)) return r.status();
      out->push_back(nb);
    }
    return Status::OK();
  }

  const ExtVector<uint64_t>& offsets() const { return offsets_; }
  const ExtVector<uint64_t>& neighbors() const { return neighbors_; }

 private:
  uint64_t num_vertices_;
  ExtVector<uint64_t> offsets_;    // num_vertices + 1 entries
  ExtVector<uint64_t> neighbors_;  // arc targets, grouped by source
};

}  // namespace vem
