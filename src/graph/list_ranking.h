// External-memory list ranking — O(Sort(N)) I/Os (survey §graph algorithms).
//
// THE canonical example of why naive pointer chasing fails in external
// memory: following a random linked list costs ~1 I/O per node, while the
// sort-based algorithm below costs O(Sort(N)).
//
// Algorithm (randomized independent-set contraction, Chiang et al.):
//  1. if the list fits in memory, chase pointers in RAM;
//  2. flip a deterministic per-level coin for every node; remove node y
//     iff coin(y)=1 and its predecessor's coin is 0 (an independent set,
//     expected >= n/4 nodes);
//  3. removed nodes are bridged out: pred.succ <- y.succ and
//     pred.d += y.d, where d(v) is the distance from v to its current
//     successor in the ORIGINAL list; removed records are parked;
//  4. recurse on the contracted list, then unwind: a parked node y with
//     bridge-time successor s has rank(y) = d(y) + rank(s).
// All inter-node communication is sort + merge-join; no random access.
//
// rank(v) := distance (in original hops, or summed d-weights) from v to
// the tail; the tail has rank 0 when its d is 0 (we use d(v)=1 and
// succ(tail)=kNoVertex, so rank(v) = #hops from v to the end).
#pragma once

#include <unordered_map>
#include <vector>

#include "core/ext_vector.h"
#include "graph/graph.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// One node of the linked list.
struct ListNode {
  uint64_t id;
  uint64_t succ;  // kNoVertex for the tail
  uint64_t d;     // weight to successor (1 for plain ranking)
};

/// (node, rank) result pair.
struct ListRank {
  uint64_t id;
  uint64_t rank;
};

/// External list ranking engine.
class ListRanker {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead/write-behind on every contraction/unwind
  /// stream and on the internal sorts' run streams (0 = synchronous).
  /// Never changes IoStats.
  ListRanker(BlockDevice* dev, const Options& opts, uint64_t seed = 0x1157)
      : dev_(dev), opts_(opts), seed_(seed) {}


  /// Number of contraction levels the last Rank() used (for tests).
  size_t levels() const { return levels_; }

  /// Compute ranks for every node. `nodes` must contain each id exactly
  /// once, forming one or more disjoint lists (each tail: succ==kNoVertex).
  /// Output is sorted by id.
  Status Rank(const ExtVector<ListNode>& nodes, ExtVector<ListRank>* out) {
    levels_ = 0;
    // Copy input (sorted by id) so we can contract destructively.
    ExtVector<ListNode> level(dev_);
    VEM_RETURN_IF_ERROR(SortNodesById(nodes, &level));
    std::vector<ExtVector<ListNode>> parked;  // bridged-out per level
    // ---- contraction ----
    while (level.size() > opts_.memory_budget / sizeof(ListNode) / 2) {
      levels_++;
      ExtVector<ListNode> contracted(dev_);
      ExtVector<ListNode> bridged(dev_);
      VEM_RETURN_IF_ERROR(ContractOnce(level, levels_, &contracted, &bridged));
      level = std::move(contracted);
      parked.push_back(std::move(bridged));
    }
    // ---- base case in RAM ----
    ExtVector<ListRank> ranks(dev_);
    VEM_RETURN_IF_ERROR(RankInMemory(level, &ranks));
    level.Destroy();
    // ---- unwind ----
    for (size_t i = parked.size(); i-- > 0;) {
      VEM_RETURN_IF_ERROR(Unpark(parked[i], &ranks));
      parked[i].Destroy();
    }
    *out = std::move(ranks);
    return Status::OK();
  }

 private:
  struct PredMsg {  // "I am your predecessor; my coin is `coin`."
    uint64_t to;
    uint64_t from;
    uint8_t coin;
    bool operator<(const PredMsg& o) const { return to < o.to; }
  };
  struct FixMsg {  // "your successor was removed; splice me out."
    uint64_t to;
    uint64_t new_succ;
    uint64_t add_d;
    bool operator<(const FixMsg& o) const { return to < o.to; }
  };

  /// Per-level deterministic coin.
  static uint8_t Coin(uint64_t id, uint64_t level, uint64_t seed) {
    uint64_t x = id * 0x9E3779B97F4A7C15ull + level * 0xBF58476D1CE4E5B9ull +
                 seed;
    x ^= x >> 33;
    x *= 0xC2B2AE3D27D4EB4Full;
    x ^= x >> 29;
    return static_cast<uint8_t>(x & 1);
  }

  Status SortNodesById(const ExtVector<ListNode>& in,
                       ExtVector<ListNode>* out) {
    ExtVector<ListNode> copy(dev_);
    {
      typename ExtVector<ListNode>::Reader r(&in, 0, opts_.prefetch_depth);
      typename ExtVector<ListNode>::Writer w(&copy, opts_.prefetch_depth);
      ListNode n;
      while (r.Next(&n)) {
        if (!w.Append(n)) return w.status();
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    auto by_id = [](const ListNode& a, const ListNode& b) {
      return a.id < b.id;
    };
    return ExternalSorter<ListNode, decltype(by_id)>(dev_, opts_, by_id)
        .Sort(copy, out);
  }

  /// One contraction level: removes an independent set from `level`
  /// (sorted by id) into `bridged`; survivors (spliced, still sorted by
  /// id) go to `contracted`.
  Status ContractOnce(const ExtVector<ListNode>& level, uint64_t lvl,
                      ExtVector<ListNode>* contracted,
                      ExtVector<ListNode>* bridged) {
    // Pass A: every node tells its successor its coin.
    ExtVector<PredMsg> msgs(dev_);
    {
      typename ExtVector<ListNode>::Reader r(&level, 0, opts_.prefetch_depth);
      typename ExtVector<PredMsg>::Writer w(&msgs, opts_.prefetch_depth);
      ListNode n;
      while (r.Next(&n)) {
        if (n.succ != kNoVertex) {
          if (!w.Append(PredMsg{n.succ, n.id, Coin(n.id, lvl, seed_)})) {
            return w.status();
          }
        }
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    ExtVector<PredMsg> msgs_sorted(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<PredMsg>(dev_, opts_).Sort(msgs, &msgs_sorted));
    msgs.Destroy();

    // Pass B: merge-join level (by id) with msgs (by to). Decide removal;
    // removed nodes emit a FixMsg to their predecessor and park.
    ExtVector<FixMsg> fixes(dev_);
    ExtVector<ListNode> survivors(dev_);
    {
      typename ExtVector<ListNode>::Reader lr(&level, 0, opts_.prefetch_depth);
      typename ExtVector<PredMsg>::Reader mr(
          &msgs_sorted, 0, opts_.prefetch_depth);
      typename ExtVector<FixMsg>::Writer fw(&fixes, opts_.prefetch_depth);
      typename ExtVector<ListNode>::Writer sw(&survivors, opts_.prefetch_depth);
      typename ExtVector<ListNode>::Writer bw(bridged, opts_.prefetch_depth);
      ListNode n;
      PredMsg m{};
      bool have_msg = mr.Next(&m);
      while (lr.Next(&n)) {
        bool has_pred = false;
        PredMsg my_pred{};
        while (have_msg && m.to < n.id) have_msg = mr.Next(&m);
        if (have_msg && m.to == n.id) {
          has_pred = true;
          my_pred = m;
          have_msg = mr.Next(&m);
        }
        bool removed = Coin(n.id, lvl, seed_) == 1 &&
                       (!has_pred || my_pred.coin == 0);
        if (removed) {
          if (!bw.Append(n)) return bw.status();
          if (has_pred) {
            if (!fw.Append(FixMsg{my_pred.from, n.succ, n.d})) {
              return fw.status();
            }
          }
        } else {
          if (!sw.Append(n)) return sw.status();
        }
      }
      VEM_RETURN_IF_ERROR(lr.status());
      VEM_RETURN_IF_ERROR(mr.status());
      VEM_RETURN_IF_ERROR(fw.Finish());
      VEM_RETURN_IF_ERROR(sw.Finish());
      VEM_RETURN_IF_ERROR(bw.Finish());
    }
    msgs_sorted.Destroy();

    // Pass C: apply fixes to survivors (both sorted by id / to).
    ExtVector<FixMsg> fixes_sorted(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<FixMsg>(dev_, opts_).Sort(fixes, &fixes_sorted));
    fixes.Destroy();
    {
      typename ExtVector<ListNode>::Reader sr(
          &survivors, 0, opts_.prefetch_depth);
      typename ExtVector<FixMsg>::Reader fr(
          &fixes_sorted, 0, opts_.prefetch_depth);
      typename ExtVector<ListNode>::Writer cw(contracted, opts_.prefetch_depth);
      ListNode n;
      FixMsg f{};
      bool have_fix = fr.Next(&f);
      while (sr.Next(&n)) {
        while (have_fix && f.to < n.id) have_fix = fr.Next(&f);
        if (have_fix && f.to == n.id) {
          n.succ = f.new_succ;
          n.d += f.add_d;
          have_fix = fr.Next(&f);
        }
        if (!cw.Append(n)) return cw.status();
      }
      VEM_RETURN_IF_ERROR(sr.status());
      VEM_RETURN_IF_ERROR(fr.status());
      VEM_RETURN_IF_ERROR(cw.Finish());
    }
    fixes_sorted.Destroy();
    survivors.Destroy();
    return Status::OK();
  }

  /// Base case: whole list in RAM; iterative pointer chase with memo.
  Status RankInMemory(const ExtVector<ListNode>& level,
                      ExtVector<ListRank>* ranks) {
    std::vector<ListNode> nodes;
    VEM_RETURN_IF_ERROR(level.ReadAll(&nodes, opts_.prefetch_depth));
    std::unordered_map<uint64_t, size_t> index;
    index.reserve(nodes.size() * 2);
    for (size_t i = 0; i < nodes.size(); ++i) index[nodes[i].id] = i;
    std::vector<uint64_t> rank(nodes.size(), kNoVertex);
    std::vector<size_t> stack;
    for (size_t i = 0; i < nodes.size(); ++i) {
      size_t cur = i;
      stack.clear();
      while (rank[cur] == kNoVertex) {
        stack.push_back(cur);
        if (nodes[cur].succ == kNoVertex) {
          rank[cur] = nodes[cur].d;  // distance to end (self d counted)
          break;
        }
        auto it = index.find(nodes[cur].succ);
        if (it == index.end()) {
          return Status::Corruption("dangling successor " +
                                    std::to_string(nodes[cur].succ));
        }
        cur = it->second;
      }
      // Pop the stack assigning ranks.
      for (size_t s = stack.size(); s-- > 0;) {
        size_t v = stack[s];
        if (rank[v] != kNoVertex) continue;  // the terminal node
        size_t nxt = index[nodes[v].succ];
        rank[v] = nodes[v].d + rank[nxt];
      }
    }
    // Emit sorted by id (nodes are sorted by id already).
    typename ExtVector<ListRank>::Writer w(ranks, opts_.prefetch_depth);
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!w.Append(ListRank{nodes[i].id, rank[i]})) return w.status();
    }
    return w.Finish();
  }

  /// Unwind one level: ranks(by id) JOIN bridged(by succ) gives each
  /// parked node rank = d + rank(succ); merge new ranks into `ranks`.
  Status Unpark(const ExtVector<ListNode>& bridged,
                ExtVector<ListRank>* ranks) {
    auto by_succ = [](const ListNode& a, const ListNode& b) {
      return a.succ < b.succ;
    };
    ExtVector<ListNode> bs(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<ListNode, decltype(by_succ)>(dev_, opts_, by_succ)
            .Sort(bridged, &bs));
    // Join: both sorted by successor id / id.
    ExtVector<ListRank> new_ranks(dev_);
    {
      typename ExtVector<ListNode>::Reader br(&bs, 0, opts_.prefetch_depth);
      typename ExtVector<ListRank>::Reader rr(ranks, 0, opts_.prefetch_depth);
      typename ExtVector<ListRank>::Writer w(&new_ranks, opts_.prefetch_depth);
      ListNode n;
      ListRank r{};
      bool have_rank = rr.Next(&r);
      while (br.Next(&n)) {
        if (n.succ == kNoVertex) {
          // Tail-at-removal: rank = own weight.
          if (!w.Append(ListRank{n.id, n.d})) return w.status();
          continue;
        }
        while (have_rank && r.id < n.succ) have_rank = rr.Next(&r);
        if (!have_rank || r.id != n.succ) {
          return Status::Corruption("missing rank for successor " +
                                    std::to_string(n.succ));
        }
        if (!w.Append(ListRank{n.id, n.d + r.rank})) return w.status();
        // NOTE: do not consume r; several parked nodes can share a succ
        // only across disjoint lists (impossible) — but duplicates in
        // sorted order are safe to re-match anyway.
      }
      VEM_RETURN_IF_ERROR(br.status());
      VEM_RETURN_IF_ERROR(rr.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    bs.Destroy();
    // Sort new ranks by id, then 2-way merge with the existing ranks.
    auto rank_by_id = [](const ListRank& a, const ListRank& b) {
      return a.id < b.id;
    };
    ExtVector<ListRank> new_sorted(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSorter<ListRank, decltype(rank_by_id)>(dev_, opts_, rank_by_id)
            .Sort(new_ranks, &new_sorted));
    new_ranks.Destroy();
    ExtVector<ListRank> merged(dev_);
    {
      typename ExtVector<ListRank>::Reader a(ranks, 0, opts_.prefetch_depth);
      typename ExtVector<ListRank>::Reader b(
          &new_sorted, 0, opts_.prefetch_depth);
      typename ExtVector<ListRank>::Writer w(&merged, opts_.prefetch_depth);
      ListRank ra{}, rb{};
      bool ha = a.Next(&ra), hb = b.Next(&rb);
      while (ha || hb) {
        bool take_a = ha && (!hb || ra.id <= rb.id);
        if (take_a) {
          if (!w.Append(ra)) return w.status();
          ha = a.Next(&ra);
        } else {
          if (!w.Append(rb)) return w.status();
          hb = b.Next(&rb);
        }
      }
      VEM_RETURN_IF_ERROR(a.status());
      VEM_RETURN_IF_ERROR(b.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    new_sorted.Destroy();
    *ranks = std::move(merged);
    return Status::OK();
  }

  BlockDevice* dev_;
  Options opts_;
  uint64_t seed_;
  size_t levels_ = 0;
};

/// Baseline for benchmarks: chase the list pointer by pointer through a
/// buffer pool — ~1 I/O per hop on a randomly laid out list. `nodes`
/// must be sorted by id with ids 0..n-1 (direct indexing).
inline Status ListRankByPointerChasing(const ExtVector<ListNode>& nodes,
                                       uint64_t head,
                                       ExtVector<ListRank>* out) {
  if (nodes.pool() == nullptr) {
    return Status::InvalidArgument("pointer chasing needs a pooled vector");
  }
  typename ExtVector<ListRank>::Writer w(out);
  // First pass: walk to the end to get the total length (or carry ranks
  // backwards; we walk twice to keep it simple and charge honestly).
  uint64_t n = 0;
  uint64_t cur = head;
  while (cur != kNoVertex) {
    ListNode node;
    VEM_RETURN_IF_ERROR(nodes.Get(cur, &node));
    n += node.d;
    cur = node.succ;
  }
  cur = head;
  uint64_t prefix = 0;
  while (cur != kNoVertex) {
    ListNode node;
    VEM_RETURN_IF_ERROR(nodes.Get(cur, &node));
    if (!w.Append(ListRank{cur, n - prefix})) return w.status();
    prefix += node.d;
    cur = node.succ;
  }
  return w.Finish();
}

}  // namespace vem
