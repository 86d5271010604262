// External string sorting (survey §string processing).
//
// Sorting variable-length strings by shipping whole payloads through a
// comparison sort wastes bandwidth; the classic fix (used by TPIE/STXXL
// string sorters) is to sort fixed-size (key-prefix, id) records and
// refine ties round by round:
//   round t sorts records (group, next-8-bytes, id); runs of equal
//   (group, key) become finer groups; a group of size 1 (or an exhausted
//   string) is finally placed. Each round is one external sort of the
//   unresolved records plus one sequential scan of the corpus to fetch
//   the next 8-byte chunks — no random I/O.
//
// Strings live in a corpus blob (all bytes concatenated, in id order)
// plus an offsets array; strings must not contain NUL (0x00), which is
// used as the padding byte ("shorter sorts first").
#pragma once

#include <algorithm>
#include <vector>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// A corpus of strings on a device: concatenated bytes + offsets.
class StringCorpus {
 public:
  explicit StringCorpus(BlockDevice* dev)
      : blob_(dev), offsets_(dev) {}

  /// Append all strings (builder-style; call Finalize when done).
  Status Add(const std::string& s) {
    if (!building_) {
      blob_writer_ = std::make_unique<ExtVector<char>::Writer>(&blob_);
      building_ = true;
    }
    pending_offsets_.push_back(total_bytes_);
    for (char c : s) {
      if (c == '\0') return Status::InvalidArgument("NUL byte in string");
      if (!blob_writer_->Append(c)) return blob_writer_->status();
    }
    total_bytes_ += s.size();
    return Status::OK();
  }

  Status Finalize() {
    if (building_) {
      VEM_RETURN_IF_ERROR(blob_writer_->Finish());
      blob_writer_.reset();
      building_ = false;
    }
    pending_offsets_.push_back(total_bytes_);  // end sentinel
    VEM_RETURN_IF_ERROR(
        offsets_.AppendAll(pending_offsets_.data(), pending_offsets_.size()));
    pending_offsets_.clear();
    return Status::OK();
  }

  size_t size() const {
    return offsets_.size() == 0 ? 0 : offsets_.size() - 1;
  }
  const ExtVector<char>& blob() const { return blob_; }
  const ExtVector<uint64_t>& offsets() const { return offsets_; }

  /// Read string i (sequential in the blob; test/debug helper).
  Status Get(size_t i, std::string* out) const {
    std::vector<uint64_t> offs;  // offsets are small; read both endpoints
    uint64_t lo, hi;
    {
      ExtVector<uint64_t>::Reader r(&offsets_, i);
      if (!r.Next(&lo) || !r.Next(&hi)) {
        return Status::InvalidArgument("string index out of range");
      }
    }
    out->clear();
    ExtVector<char>::Reader br(&blob_, lo);
    char c;
    for (uint64_t b = lo; b < hi; ++b) {
      if (!br.Next(&c)) return br.status();
      out->push_back(c);
    }
    return Status::OK();
  }

 private:
  ExtVector<char> blob_;
  ExtVector<uint64_t> offsets_;
  std::unique_ptr<ExtVector<char>::Writer> blob_writer_;
  std::vector<uint64_t> pending_offsets_;
  uint64_t total_bytes_ = 0;
  bool building_ = false;
};

/// External string sorter. Output: string ids in lexicographic order.
class ExternalStringSort {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead/write-behind on every record scan and the
  /// internal sorts' run streams (0 = synchronous); the corpus byte
  /// reader seeks, so it stays synchronous. Never changes IoStats.
  ExternalStringSort(BlockDevice* dev, const Options& opts)
      : dev_(dev), opts_(opts) {}

  /// Rounds (8-byte refinement passes) of the last Sort (tests/benches).
  size_t rounds() const { return rounds_; }

  Status Sort(const StringCorpus& corpus, ExtVector<uint64_t>* sorted_ids) {
    rounds_ = 0;
    const size_t n = corpus.size();
    if (n == 0) return Status::OK();

    struct Rec {
      uint64_t group;  // current tie-group (ordered)
      uint64_t key;    // next 8 bytes, big-endian packed
      uint64_t id;
      bool operator<(const Rec& o) const {
        if (group != o.group) return group < o.group;
        if (key != o.key) return key < o.key;
        return id < o.id;
      }
    };

    // Final placement: position -> id, collected as (group, id) where the
    // group number IS the final rank once everything is resolved.
    ExtVector<Rec> unresolved(dev_);
    VEM_RETURN_IF_ERROR(
        FetchChunks<Rec>(corpus, nullptr, 0, &unresolved));

    ExtVector<Rec> placed(dev_);  // resolved: (final_group, 0, id)
    size_t depth = 8;
    while (unresolved.size() > 0) {
      rounds_++;
      ExtVector<Rec> sorted(dev_);
      VEM_RETURN_IF_ERROR(ExternalSort(unresolved, &sorted, opts_));
      unresolved.Destroy();
      // Re-group: scan runs of equal (group, key).
      //
      // Rank bookkeeping: a record whose parent tie-group is G and whose
      // position among the group-G records this round is p has final rank
      // in [G + p, ...): refinement only permutes records WITHIN a run,
      // so assigning run-start ranks `G + offset` keeps ranks globally
      // consistent across rounds.
      //
      // Runs are homogeneous: equal keys mean identical bytes including
      // padding, and since the corpus forbids NUL a padded (exhausted)
      // key can only equal another padded key of the same string tail.
      // Hence each run is either all-exhausted (equal strings: place all,
      // id order) or all-continuing (refine), and a singleton is placed
      // outright.
      ExtVector<Rec> next(dev_);
      {
        typename ExtVector<Rec>::Reader r(&sorted, 0, opts_.prefetch_depth);
        typename ExtVector<Rec>::Writer pw(&placed, opts_.prefetch_depth);
        typename ExtVector<Rec>::Writer nw(&next, opts_.prefetch_depth);
        Rec rec{};
        bool have = r.Next(&rec);
        uint64_t cur_parent = ~0ull;
        uint64_t offset = 0;
        while (have) {
          if (rec.group != cur_parent) {
            cur_parent = rec.group;
            offset = 0;
          }
          const Rec head = rec;
          const uint64_t base = cur_parent + offset;
          const bool exhausted = (head.key & 0xFF) == 0;
          have = r.Next(&rec);
          bool multi = have && rec.group == head.group && rec.key == head.key;
          if (exhausted || !multi) {
            if (!pw.Append(Rec{base, 0, head.id})) return pw.status();
          } else {
            if (!nw.Append(Rec{base, 0, head.id})) return nw.status();
          }
          uint64_t len = 1;
          while (have && rec.group == head.group && rec.key == head.key) {
            if (exhausted) {
              if (!pw.Append(Rec{base + len, 0, rec.id})) return pw.status();
            } else {
              if (!nw.Append(Rec{base, 0, rec.id})) return nw.status();
            }
            len++;
            have = r.Next(&rec);
          }
          offset += len;
        }
        VEM_RETURN_IF_ERROR(r.status());
        VEM_RETURN_IF_ERROR(pw.Finish());
        VEM_RETURN_IF_ERROR(nw.Finish());
      }
      sorted.Destroy();
      if (next.size() == 0) {
        unresolved = std::move(next);
        break;
      }
      // Fetch the next 8 bytes for every continuing record.
      ExtVector<Rec> refreshed(dev_);
      VEM_RETURN_IF_ERROR(FetchChunks<Rec>(corpus, &next, depth, &refreshed));
      next.Destroy();
      unresolved = std::move(refreshed);
      depth += 8;
    }
    // placed: (final rank, 0, id); sort by rank and emit ids.
    ExtVector<Rec> final_sorted(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(placed, &final_sorted, opts_));
    placed.Destroy();
    {
      typename ExtVector<Rec>::Reader r(&final_sorted, 0, opts_.prefetch_depth);
      ExtVector<uint64_t>::Writer w(sorted_ids, opts_.prefetch_depth);
      Rec rec;
      while (r.Next(&rec)) {
        if (!w.Append(rec.id)) return w.status();
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    return Status::OK();
  }

 private:
  /// Build records with the 8-byte chunk at `depth` for either every
  /// string (subset == nullptr, groups all 0) or the given subset
  /// (sorted by id after an external sort here). One corpus scan.
  template <typename Rec>
  Status FetchChunks(const StringCorpus& corpus, ExtVector<Rec>* subset,
                     size_t depth, ExtVector<Rec>* out) {
    // Order requests by id so the blob scan is sequential.
    ExtVector<Rec> by_id(dev_);
    if (subset != nullptr) {
      auto cmp = [](const Rec& a, const Rec& b) { return a.id < b.id; };
      VEM_RETURN_IF_ERROR(ExternalSort<Rec, decltype(cmp)>(
          *subset, &by_id, opts_, cmp));
    }
    ExtVector<uint64_t>::Reader offr(&corpus.offsets(), 0,
                                     opts_.prefetch_depth);
    ExtVector<char>::Reader blob_reader(&corpus.blob());
    typename ExtVector<Rec>::Writer w(out, opts_.prefetch_depth);
    uint64_t off = 0, next_off = 0;
    if (!offr.Next(&off)) return Status::Corruption("empty offsets");
    uint64_t cur_id = 0;

    auto emit = [&](uint64_t group, uint64_t id, uint64_t lo,
                    uint64_t hi) -> Status {
      // Pack bytes [lo+depth, min(hi, lo+depth+8)) big-endian, 0-padded.
      // Requests arrive in id order, so the shared blob reader only
      // moves forward: the whole round is one sequential corpus pass.
      uint64_t key = 0;
      uint64_t start = lo + depth;
      size_t take = start < hi ? std::min<uint64_t>(8, hi - start) : 0;
      if (take > 0) {
        blob_reader.Seek(start);
        for (size_t b = 0; b < take; ++b) {
          char c;
          if (!blob_reader.Next(&c)) return blob_reader.status();
          key |= static_cast<uint64_t>(static_cast<unsigned char>(c))
                 << (8 * (7 - b));
        }
      }
      if (!w.Append(Rec{group, key, id})) return w.status();
      return Status::OK();
    };

    if (subset == nullptr) {
      while (offr.Next(&next_off)) {
        VEM_RETURN_IF_ERROR(emit(0, cur_id, off, next_off));
        off = next_off;
        cur_id++;
      }
      VEM_RETURN_IF_ERROR(offr.status());
    } else {
      typename ExtVector<Rec>::Reader sr(&by_id, 0, opts_.prefetch_depth);
      Rec rec;
      while (sr.Next(&rec)) {
        // Advance the offsets reader to rec.id.
        while (cur_id <= rec.id) {
          if (!offr.Next(&next_off)) {
            return Status::Corruption("offsets ended early");
          }
          if (cur_id < rec.id) off = next_off;
          cur_id++;
        }
        VEM_RETURN_IF_ERROR(emit(rec.group, rec.id, off, next_off));
        off = next_off;
      }
      VEM_RETURN_IF_ERROR(sr.status());
    }
    VEM_RETURN_IF_ERROR(w.Finish());
    by_id.Destroy();
    return Status::OK();
  }

  BlockDevice* dev_;
  Options opts_;
  size_t rounds_ = 0;
};

}  // namespace vem
