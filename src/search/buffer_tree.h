// BufferTree<K,V>: Arge's buffer tree — batched search-tree operations at
// amortized O((1/B) log_{M/B}(N/B)) I/Os each.
//
// Internal nodes of fanout Θ(m) carry op *buffers*: Insert/Delete append
// one op to the root's in-RAM buffer (capacity Θ(M)); when it overflows
// the ops are distributed to the children's on-disk buffers in one scan,
// and any child buffer pushed over capacity cascades downward until ops
// reach the leaves. Every flush moves Θ(M) ops one level with Θ(M/B)
// I/Os, so each op pays O(1/B) I/Os per level of the tree.
//
// Simplifications relative to the paper, documented in DESIGN.md:
//  - tree skeleton (fences/child ids) is kept in RAM (Θ(N/B) words),
//    as STXXL/TPIE do; op buffers and leaf payloads live on disk;
//  - leaves split on overflow but are not re-merged on underflow
//    (delete-heavy workloads may leave sparse leaves; the insert/flush
//    path bounds are unaffected);
//  - point queries flush all pending buffers first (the standard trick
//    for answering online queries on a buffer tree); use BPlusTree when
//    online point queries dominate.
#pragma once

#include <algorithm>
#include <deque>
#include <vector>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Buffered external search tree with batched updates.
template <typename K, typename V, typename Cmp = std::less<K>>
class BufferTree {
  static_assert(std::is_trivially_copyable_v<K>);
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  /// One key/value pair as stored in leaves and emitted by ExtractAll.
  struct Pair {
    K key;
    V value;
  };

  /// Fanout and buffer capacity derive from `opts.memory_budget` (PDM
  /// M); B comes from `dev`.
  BufferTree(BlockDevice* dev, const Options& opts, Cmp cmp = Cmp())
      : dev_(dev), cmp_(cmp) {
    size_t m = std::max<size_t>(opts.memory_budget / dev->block_size(), 8);
    fanout_ = std::max<size_t>(m / 4, 4);
    buffer_cap_ops_ =
        std::max<size_t>((m / 2) * (dev->block_size() / sizeof(Op)), 64);
    leaf_cap_ = std::max<size_t>(dev->block_size() / sizeof(Pair), 2);
    root_ = NewInternal();
    nodes_[root_].children.push_back(NewLeaf());
  }

  size_t fanout() const { return fanout_; }
  size_t leaf_capacity() const { return leaf_cap_; }
  /// Total ops accepted (inserts + deletes), for tests.
  size_t ops_accepted() const { return seq_; }
  /// Number of buffer-emptying events, for tests/benches.
  size_t flushes() const { return flushes_; }

  /// Buffered upsert; O((1/B)·log_m(N/B)) amortized I/Os.
  Status Insert(const K& key, const V& value) {
    return PushOp(Op{key, value, seq_++, kInsert});
  }

  /// Buffered delete; same cost. Deleting an absent key is a no-op.
  Status Delete(const K& key) { return PushOp(Op{key, V{}, seq_++, kDelete}); }

  /// Point query after forcing all pending ops to the leaves.
  Status Query(const K& key, V* value, bool* found) {
    *found = false;
    VEM_RETURN_IF_ERROR(FlushAll());
    int id = root_;
    while (!nodes_[id].leaf) {
      Node& n = nodes_[id];
      id = n.children[ChildIndex(n, key)];
    }
    std::vector<Pair> items;
    VEM_RETURN_IF_ERROR(nodes_[id].items.ReadAll(&items));
    for (const Pair& p : items) {
      if (!cmp_(p.key, key) && !cmp_(key, p.key)) {
        *value = p.value;
        *found = true;
        break;
      }
    }
    return Status::OK();
  }

  /// Force every pending op down to the leaves.
  Status FlushAll() {
    SortOps(&root_ops_);
    std::vector<std::pair<K, int>> sibs;
    VEM_RETURN_IF_ERROR(FlushNode(root_, root_ops_, /*force_all=*/true, &sibs));
    root_ops_.clear();
    GrowRootIfSplit(sibs);
    return Status::OK();
  }

  /// Flush everything and emit all pairs in key order into `out`.
  Status ExtractAll(ExtVector<Pair>* out) {
    VEM_RETURN_IF_ERROR(FlushAll());
    typename ExtVector<Pair>::Writer w(out);
    VEM_RETURN_IF_ERROR(EmitLeaves(root_, &w));
    return w.Finish();
  }

 private:
  static constexpr uint8_t kInsert = 0;
  static constexpr uint8_t kDelete = 1;

  struct Op {
    K key;
    V value;
    uint64_t seq;  // global order; later ops win
    uint8_t type;
  };

  struct Node {
    explicit Node(BlockDevice* dev, bool is_leaf)
        : leaf(is_leaf), buffer(dev), items(dev) {}
    bool leaf;
    std::vector<K> fences;      // internal: child i covers keys < fences[i]
    std::vector<int> children;  // internal
    ExtVector<Op> buffer;       // internal (non-root): pending ops
    ExtVector<Pair> items;      // leaf: sorted pairs
  };

  int NewLeaf() {
    nodes_.emplace_back(dev_, true);
    return static_cast<int>(nodes_.size()) - 1;
  }
  int NewInternal() {
    nodes_.emplace_back(dev_, false);
    return static_cast<int>(nodes_.size()) - 1;
  }

  /// Child to route `key` to: first i with key < fences[i], else last.
  size_t ChildIndex(const Node& n, const K& key) const {
    return std::upper_bound(
               n.fences.begin(), n.fences.end(), key,
               [this](const K& a, const K& b) { return cmp_(a, b); }) -
           n.fences.begin();
  }

  void SortOps(std::vector<Op>* ops) const {
    std::sort(ops->begin(), ops->end(), [this](const Op& a, const Op& b) {
      if (cmp_(a.key, b.key)) return true;
      if (cmp_(b.key, a.key)) return false;
      return a.seq < b.seq;
    });
  }

  Status PushOp(const Op& op) {
    root_ops_.push_back(op);
    if (root_ops_.size() >= buffer_cap_ops_) {
      SortOps(&root_ops_);
      std::vector<std::pair<K, int>> sibs;
      VEM_RETURN_IF_ERROR(
          FlushNode(root_, root_ops_, /*force_all=*/false, &sibs));
      root_ops_.clear();
      GrowRootIfSplit(sibs);
    }
    return Status::OK();
  }

  void GrowRootIfSplit(const std::vector<std::pair<K, int>>& sibs) {
    if (sibs.empty()) return;
    int nr = NewInternal();
    Node& r = nodes_[nr];
    r.children.push_back(root_);
    for (const auto& [fence, node] : sibs) {
      r.fences.push_back(fence);
      r.children.push_back(node);
    }
    root_ = nr;
  }

  /// Distribute sorted `ops` into node `id`'s children. Cascades into
  /// children whose buffers exceed capacity (or all, when force_all).
  /// New siblings created by splitting `id` are appended to *new_siblings
  /// in ascending key order.
  Status FlushNode(int id, const std::vector<Op>& ops, bool force_all,
                   std::vector<std::pair<K, int>>* new_siblings) {
    flushes_++;
    if (nodes_[nodes_[id].children[0]].leaf) {
      VEM_RETURN_IF_ERROR(ApplyToLeaves(id, ops));
    } else {
      // Append each child's op range to its buffer.
      size_t pos = 0;
      const size_t nchildren = nodes_[id].children.size();
      for (size_t c = 0; c < nchildren; ++c) {
        size_t end = ops.size();
        if (c < nodes_[id].fences.size()) {
          const K fence = nodes_[id].fences[c];
          end = pos;
          while (end < ops.size() && cmp_(ops[end].key, fence)) end++;
        }
        if (end > pos) {
          int child = nodes_[id].children[c];
          VEM_RETURN_IF_ERROR(
              nodes_[child].buffer.AppendAll(ops.data() + pos, end - pos));
          pos = end;
        }
      }
      // Cascade. Child splits insert new entries after position c.
      for (size_t c = 0; c < nodes_[id].children.size(); ++c) {
        int child = nodes_[id].children[c];
        if (force_all || nodes_[child].buffer.size() >= buffer_cap_ops_) {
          std::vector<Op> child_ops;
          VEM_RETURN_IF_ERROR(nodes_[child].buffer.ReadAll(&child_ops));
          nodes_[child].buffer.Destroy();
          if (child_ops.empty() && !force_all) continue;
          SortOps(&child_ops);
          std::vector<std::pair<K, int>> child_sibs;
          VEM_RETURN_IF_ERROR(
              FlushNode(child, child_ops, force_all, &child_sibs));
          for (size_t s = 0; s < child_sibs.size(); ++s) {
            nodes_[id].fences.insert(nodes_[id].fences.begin() + c + s,
                                     child_sibs[s].first);
            nodes_[id].children.insert(
                nodes_[id].children.begin() + c + 1 + s, child_sibs[s].second);
          }
          c += child_sibs.size();
        }
      }
    }
    SplitIfWide(id, new_siblings);
    return Status::OK();
  }

  /// Merge sorted ops into the leaf children of node `id`, splitting
  /// overfull leaves and dropping emptied ones.
  Status ApplyToLeaves(int id, const std::vector<Op>& ops) {
    size_t pos = 0;
    std::vector<int> old_children = std::move(nodes_[id].children);
    std::vector<K> old_fences = std::move(nodes_[id].fences);
    std::vector<int> new_children;
    std::vector<K> new_fences;

    auto push_child = [&](int child, const K& first_key) {
      if (!new_children.empty()) new_fences.push_back(first_key);
      new_children.push_back(child);
    };

    for (size_t c = 0; c < old_children.size(); ++c) {
      size_t end = ops.size();
      if (c < old_fences.size()) {
        end = pos;
        while (end < ops.size() && cmp_(ops[end].key, old_fences[c])) end++;
      }
      int leaf_id = old_children[c];
      if (end == pos) {
        // Untouched leaf: keep as-is. Its separator is the old fence
        // before it (c > 0 guarantees old_fences[c-1] exists).
        K sep = c > 0 ? old_fences[c - 1] : K{};
        push_child(leaf_id, sep);
        continue;
      }
      // Merge leaf items with ops[pos..end): two-pointer, last op wins.
      std::vector<Pair> items;
      VEM_RETURN_IF_ERROR(nodes_[leaf_id].items.ReadAll(&items));
      std::vector<Pair> merged;
      merged.reserve(items.size() + (end - pos));
      size_t ii = 0, oi = pos;
      while (ii < items.size() || oi < end) {
        bool take_op;
        if (ii >= items.size()) {
          take_op = true;
        } else if (oi >= end) {
          take_op = false;
        } else {
          take_op = !cmp_(items[ii].key, ops[oi].key);  // op key <= item key
        }
        if (!take_op) {
          merged.push_back(items[ii++]);
          continue;
        }
        const K opkey = ops[oi].key;
        bool exists = false;
        V val{};
        if (ii < items.size() && !cmp_(opkey, items[ii].key) &&
            !cmp_(items[ii].key, opkey)) {
          exists = true;
          val = items[ii].value;
          ii++;
        }
        while (oi < end && !cmp_(ops[oi].key, opkey) &&
               !cmp_(opkey, ops[oi].key)) {
          if (ops[oi].type == kInsert) {
            exists = true;
            val = ops[oi].value;
          } else {
            exists = false;
          }
          oi++;
        }
        if (exists) merged.push_back(Pair{opkey, val});
      }
      pos = end;
      nodes_[leaf_id].items.Destroy();
      if (merged.empty()) continue;  // leaf vanished
      // Rewrite as one or more ~equally-filled leaves.
      size_t chunks = (merged.size() + leaf_cap_ - 1) / leaf_cap_;
      size_t per = (merged.size() + chunks - 1) / chunks;
      size_t off = 0;
      for (size_t s = 0; s < chunks; ++s) {
        size_t len = std::min(per, merged.size() - off);
        int lid = (s == 0) ? leaf_id : NewLeaf();
        VEM_RETURN_IF_ERROR(
            nodes_[lid].items.AppendAll(merged.data() + off, len));
        push_child(lid, merged[off].key);
        off += len;
      }
    }
    if (new_children.empty()) new_children.push_back(NewLeaf());
    nodes_[id].children = std::move(new_children);
    nodes_[id].fences = std::move(new_fences);
    return Status::OK();
  }

  /// If node `id` has more than 2*fanout children, split it into chunks
  /// of ~fanout children; extra chunks become siblings (ascending order).
  void SplitIfWide(int id, std::vector<std::pair<K, int>>* new_siblings) {
    Node& n = nodes_[id];
    size_t max_children = 2 * fanout_;
    if (n.children.size() <= max_children) return;
    size_t total = n.children.size();
    size_t chunks = (total + fanout_ - 1) / fanout_;
    size_t per = (total + chunks - 1) / chunks;
    std::vector<int> all_children = std::move(n.children);
    std::vector<K> all_fences = std::move(n.fences);
    // First chunk stays in `id`.
    n.children.assign(all_children.begin(), all_children.begin() + per);
    n.fences.assign(all_fences.begin(), all_fences.begin() + (per - 1));
    for (size_t off = per; off < total; off += per) {
      size_t len = std::min(per, total - off);
      int sib = NewInternal();
      Node& s = nodes_[sib];
      s.children.assign(all_children.begin() + off,
                        all_children.begin() + off + len);
      s.fences.assign(all_fences.begin() + off,
                      all_fences.begin() + off + (len - 1));
      // Separator for this sibling = fence before its first child.
      new_siblings->push_back({all_fences[off - 1], sib});
    }
  }

  Status EmitLeaves(int id, typename ExtVector<Pair>::Writer* w) {
    if (nodes_[id].leaf) {
      typename ExtVector<Pair>::Reader r(&nodes_[id].items);
      Pair p;
      while (r.Next(&p)) {
        if (!w->Append(p)) return w->status();
      }
      return r.status();
    }
    for (int child : nodes_[id].children) {
      VEM_RETURN_IF_ERROR(EmitLeaves(child, w));
    }
    return Status::OK();
  }

  BlockDevice* dev_;
  Cmp cmp_;
  size_t fanout_;
  size_t buffer_cap_ops_;
  size_t leaf_cap_;
  std::deque<Node> nodes_;  // deque: stable references on growth
  int root_;
  std::vector<Op> root_ops_;  // the root's buffer lives in RAM
  uint64_t seq_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace vem
