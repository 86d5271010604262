// Extendible hashing — the survey's O(1)-I/O online dictionary.
//
// Fagin et al.'s classic: a RAM-resident directory of 2^g pointers maps
// the top g hash bits to bucket blocks; each bucket carries a local
// depth d <= g. Lookup = exactly one block read (through the pool);
// insert splits an overflowing bucket (doubling the directory when the
// bucket's depth equals the global depth). Amortized O(1) I/Os per
// update, vs the B-tree's Θ(log_B N) — the constant-vs-log trade the
// survey tabulates for online search structures (io_bounds_test).
//
// Simplification (documented in DESIGN.md): deletions mark slots free
// but never merge buckets or shrink the directory, as in most production
// implementations.
#pragma once

#include <cstring>
#include <vector>

#include "io/buffer_pool.h"
#include "serve/execution_context.h"
#include "util/status.h"

namespace vem {

/// External hash table over a BufferPool.
template <typename K, typename V>
class ExtHashTable {
  static_assert(std::is_trivially_copyable_v<K>);
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  explicit ExtHashTable(BufferPool* pool)
      : pool_(pool), block_size_(pool->device()->block_size()) {
    bucket_cap_ = (block_size_ - kHeaderBytes) / (sizeof(K) + sizeof(V));
  }

  /// Serving-plane wiring: cache buckets in an ExecutionContext's pool
  /// (one tenant of a possibly shared M; serve/execution_context.h).
  explicit ExtHashTable(ExecutionContext* ctx) : ExtHashTable(ctx->pool()) {}

  /// Create the initial single-bucket table. Call exactly once.
  Status Init() {
    uint64_t id;
    char* data;
    VEM_RETURN_IF_ERROR(pool_->PinNew(&id, &data));
    BucketView b(this, data);
    b.set_local_depth(0);
    b.set_count(0);
    pool_->Unpin(id, true);
    dir_.assign(1, id);
    global_depth_ = 0;
    return Status::OK();
  }

  size_t size() const { return size_; }
  size_t bucket_capacity() const { return bucket_cap_; }
  size_t global_depth() const { return global_depth_; }
  size_t num_buckets() const {
    // Distinct directory targets.
    size_t n = 0;
    for (size_t i = 0; i < dir_.size(); ++i) {
      bool first = true;
      for (size_t j = 0; j < i; ++j) {
        if (dir_[j] == dir_[i]) {
          first = false;
          break;
        }
      }
      if (first) n++;
    }
    return n;
  }

  /// Point lookup: exactly one bucket read. NotFound if absent.
  Status Get(const K& key, V* value) {
    PageRef page;
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, BucketOf(key), &page));
    BucketView b(this, page.data());
    size_t i;
    if (b.FindKey(key, &i)) {
      *value = b.val(i);
      return Status::OK();
    }
    return Status::NotFound("key not in hash table");
  }

  /// Upsert; amortized O(1) I/Os. *replaced (optional) reports overwrite.
  Status Insert(const K& key, const V& value, bool* replaced = nullptr) {
    if (replaced != nullptr) *replaced = false;
    for (int guard = 0; guard < 70; ++guard) {
      uint64_t id = BucketOf(key);
      {
        PageRef page;
        VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
        BucketView b(this, page.data());
        size_t i;
        if (b.FindKey(key, &i)) {
          b.set_val(i, value);
          page.MarkDirty();
          if (replaced != nullptr) *replaced = true;
          return Status::OK();
        }
        if (b.count() < bucket_cap_) {
          size_t c = b.count();
          b.set_key(c, key);
          b.set_val(c, value);
          b.set_count(c + 1);
          page.MarkDirty();
          size_++;
          return Status::OK();
        }
      }
      VEM_RETURN_IF_ERROR(SplitBucket(id));
    }
    return Status::Corruption("extendible hashing failed to split (hash collision overload)");
  }

  /// Delete; O(1) I/Os. *erased (optional) reports presence.
  Status Delete(const K& key, bool* erased = nullptr) {
    if (erased != nullptr) *erased = false;
    PageRef page;
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, BucketOf(key), &page));
    BucketView b(this, page.data());
    size_t i;
    if (!b.FindKey(key, &i)) return Status::OK();
    size_t last = b.count() - 1;
    if (i != last) {
      b.set_key(i, b.key(last));
      b.set_val(i, b.val(last));
    }
    b.set_count(last);
    page.MarkDirty();
    size_--;
    if (erased != nullptr) *erased = true;
    return Status::OK();
  }

 private:
  static constexpr size_t kHeaderBytes = 8;  // u16 depth, u16 pad, u32 count

  class BucketView {
   public:
    BucketView(ExtHashTable* t, char* d) : t_(t), d_(d) {}
    size_t local_depth() const { return Load<uint16_t>(0); }
    void set_local_depth(size_t v) {
      Store<uint16_t>(0, static_cast<uint16_t>(v));
    }
    size_t count() const { return Load<uint32_t>(4); }
    void set_count(size_t c) { Store<uint32_t>(4, static_cast<uint32_t>(c)); }
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
    bool FindKey(const K& key, size_t* idx) const {
      for (size_t i = 0; i < count(); ++i) {
        K k = this->key(i);
        if (std::memcmp(&k, &key, sizeof(K)) == 0) {
          *idx = i;
          return true;
        }
      }
      return false;
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
    size_t ValOff() const {
      return kHeaderBytes + t_->bucket_cap_ * sizeof(K);
    }
    ExtHashTable* t_;
    char* d_;
  };

  static uint64_t Hash(const K& key) {
    // FNV-1a over the key bytes, then a murmur finalizer.
    const auto* p = reinterpret_cast<const unsigned char*>(&key);
    uint64_t h = 0xCBF29CE484222325ull;
    for (size_t i = 0; i < sizeof(K); ++i) {
      h = (h ^ p[i]) * 0x100000001B3ull;
    }
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return h;
  }

  size_t DirIndex(uint64_t hash) const {
    return global_depth_ == 0
               ? 0
               : static_cast<size_t>(hash >> (64 - global_depth_));
  }

  uint64_t BucketOf(const K& key) const { return dir_[DirIndex(Hash(key))]; }

  /// Split the (full) bucket stored in block `id`.
  Status SplitBucket(uint64_t id) {
    // Snapshot the old bucket's contents.
    std::vector<std::pair<K, V>> items;
    size_t depth;
    {
      PageRef page;
      VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &page));
      BucketView b(this, page.data());
      depth = b.local_depth();
      items.reserve(b.count());
      for (size_t i = 0; i < b.count(); ++i) {
        items.push_back({b.key(i), b.val(i)});
      }
    }
    if (depth == global_depth_) {
      // Double the directory.
      if (global_depth_ >= 48) {
        return Status::Corruption("directory depth limit reached");
      }
      std::vector<uint64_t> bigger(dir_.size() * 2);
      for (size_t i = 0; i < dir_.size(); ++i) {
        bigger[2 * i] = dir_[i];
        bigger[2 * i + 1] = dir_[i];
      }
      dir_.swap(bigger);
      global_depth_++;
    }
    // New sibling bucket at depth+1; rehash the items between the two.
    uint64_t sib;
    {
      char* sdata;
      VEM_RETURN_IF_ERROR(pool_->PinNew(&sib, &sdata));
      BucketView sb(this, sdata);
      sb.set_local_depth(depth + 1);
      sb.set_count(0);
      pool_->Unpin(sib, true);
    }
    // Update directory: entries pointing at `id` whose (depth+1)-th bit
    // is 1 now point at the sibling.
    const size_t bit_shift = global_depth_ - (depth + 1);
    for (size_t i = 0; i < dir_.size(); ++i) {
      if (dir_[i] == id && ((i >> bit_shift) & 1) == 1) dir_[i] = sib;
    }
    // Redistribute.
    PageRef opage, spage;
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, id, &opage));
    VEM_RETURN_IF_ERROR(PageRef::Acquire(pool_, sib, &spage));
    BucketView ob(this, opage.data());
    BucketView sb(this, spage.data());
    ob.set_local_depth(depth + 1);
    ob.set_count(0);
    for (const auto& [k, v] : items) {
      uint64_t h = Hash(k);
      bool to_sib = (h >> (64 - (depth + 1))) & 1;
      BucketView& dst = to_sib ? sb : ob;
      size_t c = dst.count();
      dst.set_key(c, k);
      dst.set_val(c, v);
      dst.set_count(c + 1);
    }
    opage.MarkDirty();
    spage.MarkDirty();
    return Status::OK();
  }

  BufferPool* pool_;
  size_t block_size_;
  size_t bucket_cap_;
  std::vector<uint64_t> dir_;
  size_t global_depth_ = 0;
  size_t size_ = 0;
};

}  // namespace vem
