// BPlusTree<K,V>: the survey's canonical online search structure.
//
// Θ(log_B N) I/Os per point operation, Θ(log_B N + Z/B) per range scan
// reporting Z items. One node per disk block; leaves are chained for
// scans; all node access goes through the BufferPool so misses are
// charged exactly one I/O.
//
// Layout of a node inside one block (all offsets byte-based, memcpy
// accessed so K and V only need to be trivially copyable):
//   [u16 is_leaf][u16 pad][u32 count][u64 next]
//   leaf:     K[leaf_cap] V[leaf_cap]              (next = right sibling)
//   internal: K[int_cap]  u64 children[int_cap+1]  (next unused)
#pragma once

#include <cstring>
#include <functional>
#include <vector>

#include "core/ext_vector.h"
#include "io/buffer_pool.h"
#include "serve/execution_context.h"
#include "util/status.h"

namespace vem {

/// External-memory B+-tree over a BufferPool.
template <typename K, typename V, typename Cmp = std::less<K>>
class BPlusTree {
  static_assert(std::is_trivially_copyable_v<K>);
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  explicit BPlusTree(BufferPool* pool, Cmp cmp = Cmp())
      : pool_(pool), cmp_(cmp), block_size_(pool->device()->block_size()) {
    leaf_cap_ = (block_size_ - kHeaderBytes) / (sizeof(K) + sizeof(V));
    int_cap_ = (block_size_ - kHeaderBytes - 8) / (sizeof(K) + 8);
  }

  /// Serving-plane wiring: cache nodes in an ExecutionContext's pool —
  /// one tenant's slice of a (possibly shared) machine M
  /// (serve/execution_context.h). The frames are a revocable lease, so
  /// the index gains frames while scans idle and cedes cold ones under
  /// staging pressure, at unchanged per-operation I/O charges.
  explicit BPlusTree(ExecutionContext* ctx, Cmp cmp = Cmp())
      : BPlusTree(ctx->pool(), cmp) {}

  /// Create the (initially empty leaf) root. Call exactly once.
  Status Init() {
    char* data;
    VEM_RETURN_IF_ERROR(pool_->PinNew(&root_, &data));
    NodeView n(this, data);
    n.set_leaf(true);
    n.set_count(0);
    n.set_next(kNullBlock);
    pool_->Unpin(root_, true);
    height_ = 1;
    return Status::OK();
  }

  /// Max keys per leaf / internal node (for tests and space math).
  size_t leaf_capacity() const { return leaf_cap_; }
  size_t internal_capacity() const { return int_cap_; }
  size_t size() const { return size_; }
  size_t height() const { return height_; }

  /// Point lookup; NotFound if absent. Cost: height() pool accesses.
  Status Get(const K& key, V* value) {
    uint64_t id = root_;
    for (size_t level = height_; level > 1; --level) {
      PageRef page;
      VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
      NodeView n(this, page.data());
      id = n.child(n.LowerBoundUpper(key, cmp_));
    }
    PageRef page;
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
    NodeView n(this, page.data());
    size_t i = n.LowerBound(key, cmp_);
    if (i < n.count() && !cmp_(key, n.key(i)) && !cmp_(n.key(i), key)) {
      *value = n.val(i);
      return Status::OK();
    }
    return Status::NotFound("key not in tree");
  }

  /// Upsert. *replaced (optional) reports whether an existing key's value
  /// was overwritten.
  Status Insert(const K& key, const V& value, bool* replaced = nullptr) {
    SplitResult sr;
    bool did_replace = false;
    VEM_RETURN_IF_ERROR(InsertRec(root_, height_, key, value, &sr,
                                  &did_replace));
    if (replaced != nullptr) *replaced = did_replace;
    if (!did_replace) size_++;
    if (sr.split) {
      // Grow a new root above the old one.
      uint64_t new_root;
      char* data;
      VEM_RETURN_IF_ERROR(pool_->PinNew(&new_root, &data));
      NodeView n(this, data);
      n.set_leaf(false);
      n.set_count(1);
      n.set_next(kNullBlock);
      n.set_key(0, sr.separator);
      n.set_child(0, root_);
      n.set_child(1, sr.right);
      pool_->Unpin(new_root, true);
      root_ = new_root;
      height_++;
    }
    return Status::OK();
  }

  /// Delete `key`. *erased (optional) reports whether it was present.
  Status Delete(const K& key, bool* erased = nullptr) {
    bool did_erase = false;
    bool underflow = false;
    VEM_RETURN_IF_ERROR(DeleteRec(root_, height_, key, &did_erase, &underflow));
    if (erased != nullptr) *erased = did_erase;
    if (did_erase) size_--;
    // Shrink the root if it became a single-child internal node.
    if (height_ > 1) {
      PageRef page;
      VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, root_, &page));
      NodeView n(this, page.data());
      if (n.count() == 0) {
        uint64_t old = root_;
        root_ = n.child(0);
        page.Release();
        pool_->Evict(old);
        pool_->device()->Free(old);
        height_--;
      }
    }
    return Status::OK();
  }

  /// Visit all (k,v) with lo <= k <= hi in key order; stop early if the
  /// callback returns false. Cost: Θ(log_B N + Z/B) pool accesses.
  Status Scan(const K& lo, const K& hi,
              const std::function<bool(const K&, const V&)>& fn) {
    uint64_t id = root_;
    for (size_t level = height_; level > 1; --level) {
      PageRef page;
      VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
      NodeView n(this, page.data());
      id = n.child(n.LowerBoundUpper(lo, cmp_));
    }
    while (id != kNullBlock) {
      PageRef page;
      VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
      NodeView n(this, page.data());
      for (size_t i = n.LowerBound(lo, cmp_); i < n.count(); ++i) {
        if (cmp_(hi, n.key(i))) return Status::OK();  // past hi
        if (!fn(n.key(i), n.val(i))) return Status::OK();
      }
      id = n.next();
    }
    return Status::OK();
  }

  /// Key/value pair for bulk loading.
  struct KV {
    K key;
    V value;
  };

  /// Bottom-up bulk load from a key-sorted, duplicate-free stream:
  /// Θ(N/B) I/Os instead of N·log_B N one-at-a-time inserts. Leaves are
  /// packed to `fill` of capacity (the classic B-tree loading headroom);
  /// the tree must be freshly Init()'d and empty, and remains fully
  /// mutable afterwards.
  Status BulkLoad(const ExtVector<KV>& sorted, double fill = 0.7) {
    if (size_ != 0) {
      return Status::InvalidArgument("BulkLoad on non-empty tree");
    }
    if (sorted.empty()) return Status::OK();
    fill = std::min(std::max(fill, 0.25), 1.0);
    size_t per_leaf =
        std::max<size_t>(2, std::min<size_t>(leaf_cap_ - 1,
                                             static_cast<size_t>(leaf_cap_ * fill)));
    // Drop the Init() root leaf; we rebuild from scratch.
    pool_->Evict(root_);
    pool_->device()->Free(root_);

    // --- leaves ---
    struct ChildRef {
      K first_key;
      uint64_t id;
    };
    std::vector<ChildRef> level;  // RAM metadata: O(N/B) entries
    {
      typename ExtVector<KV>::Reader r(&sorted);
      KV kv;
      bool have = r.Next(&kv);
      uint64_t prev_leaf = kNullBlock;
      size_t remaining = sorted.size();
      while (have) {
        // Balance the tail: if what's left fits awkwardly, split evenly.
        size_t take = per_leaf;
        if (remaining > per_leaf && remaining < 2 * per_leaf) {
          take = remaining / 2 + (remaining & 1);
        } else {
          take = std::min(per_leaf, remaining);
        }
        uint64_t id;
        char* data;
        VEM_RETURN_IF_ERROR(pool_->PinNew(&id, &data));
        NodeView leaf(this, data);
        leaf.set_leaf(true);
        leaf.set_next(kNullBlock);
        size_t count = 0;
        K first = kv.key;
        while (count < take && have) {
          leaf.set_key(count, kv.key);
          leaf.set_val(count, kv.value);
          count++;
          size_++;
          have = r.Next(&kv);
        }
        VEM_RETURN_IF_ERROR(r.status());
        leaf.set_count(count);
        pool_->Unpin(id, /*dirty=*/true);
        if (prev_leaf != kNullBlock) {
          PageRef prev;
          VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, prev_leaf, &prev));
          NodeView pv(this, prev.data());
          pv.set_next(id);
          prev.MarkDirty();
        }
        prev_leaf = id;
        level.push_back(ChildRef{first, id});
        remaining -= count;
      }
    }
    // --- internal levels ---
    height_ = 1;
    size_t per_node =
        std::max<size_t>(2, std::min<size_t>(int_cap_ - 1,
                                             static_cast<size_t>(int_cap_ * fill)));
    while (level.size() > 1) {
      std::vector<ChildRef> next_level;
      size_t i = 0;
      while (i < level.size()) {
        size_t remaining = level.size() - i;
        const size_t take_max = per_node + 1;  // children per node (>= 3)
        size_t take;
        if (remaining <= take_max) {
          take = remaining;
        } else if (remaining < 2 * take_max) {
          take = remaining / 2;  // remaining >= take_max+1 >= 4 => take >= 2
        } else {
          take = take_max;
        }
        uint64_t id;
        char* data;
        VEM_RETURN_IF_ERROR(pool_->PinNew(&id, &data));
        NodeView node(this, data);
        node.set_leaf(false);
        node.set_next(kNullBlock);
        node.set_child(0, level[i].id);
        for (size_t c = 1; c < take; ++c) {
          node.set_key(c - 1, level[i + c].first_key);
          node.set_child(c, level[i + c].id);
        }
        node.set_count(take - 1);
        pool_->Unpin(id, true);
        next_level.push_back(ChildRef{level[i].first_key, id});
        i += take;
      }
      level.swap(next_level);
      height_++;
    }
    root_ = level.front().id;
    return Status::OK();
  }

 private:
  static constexpr uint64_t kNullBlock = ~0ull;
  static constexpr size_t kHeaderBytes = 16;

  /// Typed window over one block's bytes.
  class NodeView {
   public:
    NodeView(BPlusTree* t, char* d) : t_(t), d_(d) {}

    bool leaf() const { return Load<uint16_t>(0) != 0; }
    void set_leaf(bool v) { Store<uint16_t>(0, v ? 1 : 0); }
    size_t count() const { return Load<uint32_t>(4); }
    void set_count(size_t c) { Store<uint32_t>(4, static_cast<uint32_t>(c)); }
    uint64_t next() const { return Load<uint64_t>(8); }
    void set_next(uint64_t n) { Store<uint64_t>(8, n); }

    K key(size_t i) const {
      K k;
      std::memcpy(&k, d_ + kHeaderBytes + i * sizeof(K), sizeof(K));
      return k;
    }
    void set_key(size_t i, const K& k) {
      std::memcpy(d_ + kHeaderBytes + i * sizeof(K), &k, sizeof(K));
    }
    V val(size_t i) const {
      V v;
      std::memcpy(&v, d_ + ValOff() + i * sizeof(V), sizeof(V));
      return v;
    }
    void set_val(size_t i, const V& v) {
      std::memcpy(d_ + ValOff() + i * sizeof(V), &v, sizeof(V));
    }
    uint64_t child(size_t i) const {
      uint64_t c;
      std::memcpy(&c, d_ + ChildOff() + i * 8, sizeof(c));
      return c;
    }
    void set_child(size_t i, uint64_t c) {
      std::memcpy(d_ + ChildOff() + i * 8, &c, sizeof(c));
    }

    /// First index i with key(i) >= k.
    size_t LowerBound(const K& k, const Cmp& cmp) const {
      size_t lo = 0, hi = count();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (cmp(key(mid), k)) lo = mid + 1; else hi = mid;
      }
      return lo;
    }
    /// Child index to descend into for key k (first i with k < key(i),
    /// i.e. upper bound — equal keys go right, matching leaf placement).
    size_t LowerBoundUpper(const K& k, const Cmp& cmp) const {
      size_t lo = 0, hi = count();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (cmp(k, key(mid))) hi = mid; else lo = mid + 1;
      }
      return lo;
    }

    /// Shift helpers for insert/erase at position i.
    void InsertLeaf(size_t i, const K& k, const V& v) {
      size_t c = count();
      std::memmove(d_ + kHeaderBytes + (i + 1) * sizeof(K),
                   d_ + kHeaderBytes + i * sizeof(K), (c - i) * sizeof(K));
      std::memmove(d_ + ValOff() + (i + 1) * sizeof(V),
                   d_ + ValOff() + i * sizeof(V), (c - i) * sizeof(V));
      set_key(i, k);
      set_val(i, v);
      set_count(c + 1);
    }
    void EraseLeaf(size_t i) {
      size_t c = count();
      std::memmove(d_ + kHeaderBytes + i * sizeof(K),
                   d_ + kHeaderBytes + (i + 1) * sizeof(K),
                   (c - i - 1) * sizeof(K));
      std::memmove(d_ + ValOff() + i * sizeof(V),
                   d_ + ValOff() + (i + 1) * sizeof(V), (c - i - 1) * sizeof(V));
      set_count(c - 1);
    }
    /// Insert separator key at i and child at i+1.
    void InsertInternal(size_t i, const K& k, uint64_t right_child) {
      size_t c = count();
      std::memmove(d_ + kHeaderBytes + (i + 1) * sizeof(K),
                   d_ + kHeaderBytes + i * sizeof(K), (c - i) * sizeof(K));
      std::memmove(d_ + ChildOff() + (i + 2) * 8, d_ + ChildOff() + (i + 1) * 8,
                   (c - i) * 8);
      set_key(i, k);
      set_child(i + 1, right_child);
      set_count(c + 1);
    }
    /// Erase separator key i and child i+1.
    void EraseInternal(size_t i) {
      size_t c = count();
      std::memmove(d_ + kHeaderBytes + i * sizeof(K),
                   d_ + kHeaderBytes + (i + 1) * sizeof(K),
                   (c - i - 1) * sizeof(K));
      std::memmove(d_ + ChildOff() + (i + 1) * 8, d_ + ChildOff() + (i + 2) * 8,
                   (c - i - 1) * 8);
      set_count(c - 1);
    }

   private:
    template <typename U>
    U Load(size_t off) const {
      U u;
      std::memcpy(&u, d_ + off, sizeof(U));
      return u;
    }
    template <typename U>
    void Store(size_t off, U u) {
      std::memcpy(d_ + off, &u, sizeof(U));
    }
    size_t ValOff() const { return kHeaderBytes + t_->leaf_cap_ * sizeof(K); }
    size_t ChildOff() const { return kHeaderBytes + t_->int_cap_ * sizeof(K); }

    BPlusTree* t_;
    char* d_;
  };

  struct SplitResult {
    bool split = false;
    K separator{};
    uint64_t right = kNullBlock;
  };

  Status InsertRec(uint64_t id, size_t level, const K& key, const V& value,
                   SplitResult* sr, bool* replaced) {
    sr->split = false;
    PageRef page;
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
    NodeView n(this, page.data());
    if (level == 1) {
      size_t i = n.LowerBound(key, cmp_);
      if (i < n.count() && !cmp_(key, n.key(i)) && !cmp_(n.key(i), key)) {
        n.set_val(i, value);
        page.MarkDirty();
        *replaced = true;
        return Status::OK();
      }
      n.InsertLeaf(i, key, value);
      page.MarkDirty();
      if (n.count() > leaf_cap_ - 1) {
        VEM_RETURN_IF_ERROR(SplitLeaf(&page, sr));
      }
      return Status::OK();
    }
    size_t ci = n.LowerBoundUpper(key, cmp_);
    uint64_t child_id = n.child(ci);
    page.Release();  // avoid holding pins down the whole root-to-leaf path
    SplitResult child_sr;
    VEM_RETURN_IF_ERROR(
        InsertRec(child_id, level - 1, key, value, &child_sr, replaced));
    if (!child_sr.split) return Status::OK();
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
    NodeView m(this, page.data());
    m.InsertInternal(ci, child_sr.separator, child_sr.right);
    page.MarkDirty();
    if (m.count() > int_cap_ - 1) {
      VEM_RETURN_IF_ERROR(SplitInternal(&page, sr));
    }
    return Status::OK();
  }

  Status SplitLeaf(PageRef* page, SplitResult* sr) {
    NodeView left(this, page->data());
    size_t total = left.count();
    size_t keep = total / 2;
    uint64_t right_id;
    char* rdata;
    VEM_RETURN_IF_ERROR(pool_->PinNew(&right_id, &rdata));
    NodeView right(this, rdata);
    right.set_leaf(true);
    right.set_count(0);
    right.set_next(left.next());
    for (size_t i = keep; i < total; ++i) {
      right.set_key(i - keep, left.key(i));
      right.set_val(i - keep, left.val(i));
    }
    right.set_count(total - keep);
    left.set_count(keep);
    left.set_next(right_id);
    page->MarkDirty();
    pool_->Unpin(right_id, true);
    sr->split = true;
    sr->separator = right.key(0);
    sr->right = right_id;
    return Status::OK();
  }

  Status SplitInternal(PageRef* page, SplitResult* sr) {
    NodeView left(this, page->data());
    size_t total = left.count();
    size_t mid = total / 2;  // key `mid` moves up
    uint64_t right_id;
    char* rdata;
    VEM_RETURN_IF_ERROR(pool_->PinNew(&right_id, &rdata));
    NodeView right(this, rdata);
    right.set_leaf(false);
    right.set_next(kNullBlock);
    size_t rcount = total - mid - 1;
    for (size_t i = 0; i < rcount; ++i) {
      right.set_key(i, left.key(mid + 1 + i));
    }
    for (size_t i = 0; i <= rcount; ++i) {
      right.set_child(i, left.child(mid + 1 + i));
    }
    right.set_count(rcount);
    sr->split = true;
    sr->separator = left.key(mid);
    sr->right = right_id;
    left.set_count(mid);
    page->MarkDirty();
    pool_->Unpin(right_id, true);
    return Status::OK();
  }

  size_t MinFill(size_t level) const {
    return level == 1 ? (leaf_cap_ - 1) / 2 : (int_cap_ - 1) / 2;
  }

  Status DeleteRec(uint64_t id, size_t level, const K& key, bool* erased,
                   bool* underflow) {
    *underflow = false;
    if (level == 1) {
      PageRef page;
      VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
      NodeView n(this, page.data());
      size_t i = n.LowerBound(key, cmp_);
      if (i >= n.count() || cmp_(key, n.key(i)) || cmp_(n.key(i), key)) {
        return Status::OK();  // absent
      }
      n.EraseLeaf(i);
      page.MarkDirty();
      *erased = true;
      *underflow = n.count() < MinFill(1);
      return Status::OK();
    }
    size_t ci;
    uint64_t child_id;
    {
      PageRef page;
      VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
      NodeView n(this, page.data());
      ci = n.LowerBoundUpper(key, cmp_);
      child_id = n.child(ci);
    }
    bool child_underflow = false;
    VEM_RETURN_IF_ERROR(
        DeleteRec(child_id, level - 1, key, erased, &child_underflow));
    if (!child_underflow) return Status::OK();
    VEM_RETURN_IF_ERROR(Rebalance(id, level, ci));
    {
      PageRef page;
      VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
      NodeView n(this, page.data());
      *underflow = n.count() < MinFill(level);
    }
    return Status::OK();
  }

  /// Fix an underflowing child `ci` of internal node `id` at `level` by
  /// borrowing from or merging with a sibling.
  Status Rebalance(uint64_t id, size_t level, size_t ci) {
    PageRef ppage;
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &ppage));
    NodeView parent(this, ppage.data());
    // Prefer the left sibling; fall back to the right one.
    size_t li = ci > 0 ? ci - 1 : ci;      // left child index of the pair
    size_t ri = li + 1;                    // right child index of the pair
    if (ri > parent.count()) return Status::OK();  // single child: nothing to do
    uint64_t lid = parent.child(li), rid = parent.child(ri);
    PageRef lpage, rpage;
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, lid, &lpage));
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, rid, &rpage));
    NodeView left(this, lpage.data());
    NodeView right(this, rpage.data());
    bool child_is_leaf = (level - 1 == 1);
    size_t min_fill = MinFill(level - 1);
    size_t cap = child_is_leaf ? leaf_cap_ : int_cap_;

    if (child_is_leaf) {
      if (left.count() + right.count() <= cap - 1) {
        // Merge right into left.
        for (size_t i = 0; i < right.count(); ++i) {
          left.set_key(left.count() + i, right.key(i));
          left.set_val(left.count() + i, right.val(i));
        }
        left.set_count(left.count() + right.count());
        left.set_next(right.next());
        lpage.MarkDirty();
        rpage.Release();
        pool_->Evict(rid);
        pool_->device()->Free(rid);
        parent.EraseInternal(li);
        ppage.MarkDirty();
      } else if (left.count() < min_fill) {
        // Borrow the first item of right.
        left.set_key(left.count(), right.key(0));
        left.set_val(left.count(), right.val(0));
        left.set_count(left.count() + 1);
        right.EraseLeaf(0);
        parent.set_key(li, right.key(0));
        lpage.MarkDirty();
        rpage.MarkDirty();
        ppage.MarkDirty();
      } else if (right.count() < min_fill) {
        // Borrow the last item of left.
        right.InsertLeaf(0, left.key(left.count() - 1),
                         left.val(left.count() - 1));
        left.set_count(left.count() - 1);
        parent.set_key(li, right.key(0));
        lpage.MarkDirty();
        rpage.MarkDirty();
        ppage.MarkDirty();
      }
    } else {
      K sep = parent.key(li);
      if (left.count() + right.count() + 1 <= cap - 1) {
        // Merge: left + sep + right.
        left.set_key(left.count(), sep);
        for (size_t i = 0; i < right.count(); ++i) {
          left.set_key(left.count() + 1 + i, right.key(i));
        }
        for (size_t i = 0; i <= right.count(); ++i) {
          left.set_child(left.count() + 1 + i, right.child(i));
        }
        left.set_count(left.count() + right.count() + 1);
        lpage.MarkDirty();
        rpage.Release();
        pool_->Evict(rid);
        pool_->device()->Free(rid);
        parent.EraseInternal(li);
        ppage.MarkDirty();
      } else if (left.count() < min_fill) {
        // Rotate left: sep comes down, right's first key goes up.
        left.set_key(left.count(), sep);
        left.set_child(left.count() + 1, right.child(0));
        left.set_count(left.count() + 1);
        parent.set_key(li, right.key(0));
        // shift right node left by one key+child
        for (size_t i = 0; i + 1 < right.count(); ++i) {
          right.set_key(i, right.key(i + 1));
        }
        for (size_t i = 0; i < right.count(); ++i) {
          right.set_child(i, right.child(i + 1));
        }
        right.set_count(right.count() - 1);
        lpage.MarkDirty();
        rpage.MarkDirty();
        ppage.MarkDirty();
      } else if (right.count() < min_fill) {
        // Rotate right: sep comes down, left's last key goes up.
        // Shift right node right by one.
        size_t rc = right.count();
        for (size_t i = rc; i > 0; --i) right.set_key(i, right.key(i - 1));
        for (size_t i = rc + 1; i > 0; --i) right.set_child(i, right.child(i - 1));
        right.set_key(0, sep);
        right.set_child(0, left.child(left.count()));
        right.set_count(rc + 1);
        parent.set_key(li, left.key(left.count() - 1));
        left.set_count(left.count() - 1);
        lpage.MarkDirty();
        rpage.MarkDirty();
        ppage.MarkDirty();
      }
    }
    return Status::OK();
  }

  BufferPool* pool_;
  Cmp cmp_;
  size_t block_size_;
  size_t leaf_cap_, int_cap_;
  uint64_t root_ = kNullBlock;
  size_t height_ = 0;
  size_t size_ = 0;
};

}  // namespace vem
