// Time-forward processing — the survey's marquee application of external
// priority queues / buffer trees (Chiang et al., Arge).
//
// Evaluate a DAG whose vertices are numbered in topological order: each
// vertex computes a value from its in-neighbors' values, then "sends" the
// result forward along its out-edges. The trick: park every message in an
// external priority queue keyed by destination; when the scan reaches
// vertex v, exactly its incoming messages are at the front. Total cost
// O(Sort(E)) I/Os — no random access to a values array.
//
// Classic uses: circuit evaluation, DAG longest path, maximal independent
// set. The tests exercise the first two.
#pragma once

#include <functional>
#include <vector>

#include "core/ext_vector.h"
#include "graph/graph.h"
#include "search/external_pq.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Evaluates a topologically-numbered DAG by time-forward processing.
///
/// @tparam V value type (trivially copyable)
template <typename V>
class TimeForwardProcessor {
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  /// (vertex, value) output pair.
  struct VertexValue {
    uint64_t v;
    V value;
  };

  /// Computes vertex v's value from its id and incoming values (in
  /// arbitrary order). Vertices with no in-edges get an empty span.
  using EvalFn =
      std::function<V(uint64_t v, const std::vector<V>& incoming)>;

  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K reaches the edge sort, the message queue and the edge/output
  /// scans, which arm K-block read-ahead/write-behind (0 = synchronous).
  /// Never changes IoStats.
  TimeForwardProcessor(BlockDevice* dev, const Options& opts)
      : dev_(dev), opts_(opts) {}

  /// Run over vertices 0..n-1 in id (== topological) order. `edges` must
  /// satisfy u < v for every edge (u, v); violations are reported as
  /// InvalidArgument. Output: one value per vertex, sorted by id.
  Status Run(const ExtVector<Edge>& edges, uint64_t n, const EvalFn& eval,
             ExtVector<VertexValue>* out) {
    // Sort edges by source so out-edges stream in vertex order.
    ExtVector<Edge> sorted(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(edges, &sorted, opts_));

    struct Msg {
      uint64_t dest;
      V value;
      bool operator<(const Msg& o) const { return dest < o.dest; }
    };
    ExternalPriorityQueue<Msg> inbox(dev_, opts_);

    typename ExtVector<Edge>::Reader er(&sorted, 0, opts_.prefetch_depth);
    typename ExtVector<VertexValue>::Writer w(out, opts_.prefetch_depth);
    Edge e{};
    bool have_e = er.Next(&e);
    std::vector<V> incoming;
    for (uint64_t v = 0; v < n; ++v) {
      // Collect all messages addressed to v.
      incoming.clear();
      Msg m;
      while (inbox.size() > 0) {
        VEM_RETURN_IF_ERROR(inbox.Top(&m));
        if (m.dest != v) {
          if (m.dest < v) {
            return Status::InvalidArgument(
                "edge targets a lower-numbered vertex: not topological");
          }
          break;
        }
        VEM_RETURN_IF_ERROR(inbox.Pop(&m));
        incoming.push_back(m.value);
      }
      V value = eval(v, incoming);
      if (!w.Append(VertexValue{v, value})) return w.status();
      // Forward along out-edges.
      while (have_e && e.u == v) {
        if (e.v <= e.u) {
          return Status::InvalidArgument(
              "edge (u,v) with v <= u: not topological");
        }
        VEM_RETURN_IF_ERROR(inbox.Push(Msg{e.v, value}));
        have_e = er.Next(&e);
      }
      if (have_e && e.u < v) {
        return Status::InvalidArgument("edge source out of range");
      }
    }
    VEM_RETURN_IF_ERROR(er.status());
    return w.Finish();
  }

 private:
  BlockDevice* dev_;
  Options opts_;
};

}  // namespace vem
