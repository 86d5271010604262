// External suffix array construction by prefix doubling —
// O(Sort(N) · log N) I/Os (survey §string processing).
//
// Larsson–Sadakane externalized: rank_k(i) orders suffixes by their first
// k characters; one round sorts tuples (rank_k(i), rank_k(i+k), i) to
// produce rank_{2k}. The shifted ranks rank_k(i+k) are obtained with a
// lagged second reader over the id-ordered rank array (positions are
// dense), so each round is two external sorts plus scans.
#pragma once

#include <algorithm>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// External suffix array builder over a byte text.
class SuffixArrayBuilder {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead/write-behind on every text/rank/tuple
  /// scan and the internal sorts' run streams (0 = synchronous). Never
  /// changes IoStats.
  SuffixArrayBuilder(BlockDevice* dev, const Options& opts)
      : dev_(dev), opts_(opts) {}

  /// Doubling rounds of the last Build (== ceil(log2 N) worst case).
  size_t rounds() const { return rounds_; }

  /// Build the suffix array of `text`: out[r] = start position of the
  /// r-th smallest suffix. Suffixes are compared as usual with the
  /// shorter-is-smaller rule (an implicit sentinel smaller than any byte).
  Status Build(const ExtVector<uint8_t>& text, ExtVector<uint64_t>* out) {
    rounds_ = 0;
    const uint64_t n = text.size();
    if (n == 0) return Status::OK();

    struct RankedPos {  // sorted by (r1, r2) to assign new ranks
      uint64_t r1, r2;
      uint64_t pos;
      bool operator<(const RankedPos& o) const {
        if (r1 != o.r1) return r1 < o.r1;
        if (r2 != o.r2) return r2 < o.r2;
        return pos < o.pos;
      }
    };
    struct PosRank {  // rank array entry, sorted by pos
      uint64_t pos;
      uint64_t rank;
      bool operator<(const PosRank& o) const { return pos < o.pos; }
    };

    // Round 0: rank by first character (rank 1..; 0 = past-the-end).
    ExtVector<PosRank> ranks(dev_);  // sorted by pos
    bool all_distinct = false;
    {
      ExtVector<RankedPos> first(dev_);
      {
        typename ExtVector<uint8_t>::Reader r(&text, 0, opts_.prefetch_depth);
        typename ExtVector<RankedPos>::Writer w(&first, opts_.prefetch_depth);
        uint8_t c;
        uint64_t pos = 0;
        while (r.Next(&c)) {
          if (!w.Append(RankedPos{static_cast<uint64_t>(c) + 1, 0, pos})) {
            return w.status();
          }
          pos++;
        }
        VEM_RETURN_IF_ERROR(r.status());
        VEM_RETURN_IF_ERROR(w.Finish());
      }
      VEM_RETURN_IF_ERROR(AssignRanks(first, &ranks, &all_distinct));
    }

    uint64_t k = 1;
    while (!all_distinct && k < n) {
      rounds_++;
      // Tuples (rank[i], rank[i+k], i) via two lagged readers.
      ExtVector<RankedPos> tuples(dev_);
      {
        typename ExtVector<PosRank>::Reader a(&ranks, 0, opts_.prefetch_depth);
        typename ExtVector<PosRank>::Reader b(&ranks, k, opts_.prefetch_depth);
        typename ExtVector<RankedPos>::Writer w(&tuples, opts_.prefetch_depth);
        PosRank pa, pb{};
        bool have_b = b.Next(&pb);
        while (a.Next(&pa)) {
          uint64_t r2 = 0;  // 0 = suffix shorter than i+k: sorts first
          if (have_b && pb.pos == pa.pos + k) {
            r2 = pb.rank;
            have_b = b.Next(&pb);
          }
          if (!w.Append(RankedPos{pa.rank, r2, pa.pos})) return w.status();
        }
        VEM_RETURN_IF_ERROR(a.status());
        VEM_RETURN_IF_ERROR(b.status());
        VEM_RETURN_IF_ERROR(w.Finish());
      }
      ranks.Destroy();
      VEM_RETURN_IF_ERROR(AssignRanks(tuples, &ranks, &all_distinct));
      k *= 2;
    }
    // Emit: sort (pos, rank) by rank.
    auto by_rank = [](const PosRank& a, const PosRank& b) {
      return a.rank < b.rank;
    };
    ExtVector<PosRank> by_r(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort<PosRank, decltype(by_rank)>(
        ranks, &by_r, opts_, by_rank));
    ranks.Destroy();
    typename ExtVector<PosRank>::Reader r(&by_r, 0, opts_.prefetch_depth);
    ExtVector<uint64_t>::Writer w(out, opts_.prefetch_depth);
    PosRank pr;
    while (r.Next(&pr)) {
      if (!w.Append(pr.pos)) return w.status();
    }
    VEM_RETURN_IF_ERROR(r.status());
    return w.Finish();
  }

 private:
  /// Sort tuples by (r1, r2); equal (r1, r2) pairs share a rank (the
  /// 1-based index of the first member). Output sorted by pos.
  template <typename RankedPos, typename PosRank>
  Status AssignRanksImpl(ExtVector<RankedPos>& tuples,
                         ExtVector<PosRank>* ranks, bool* all_distinct) {
    ExtVector<RankedPos> sorted(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(tuples, &sorted, opts_));
    tuples.Destroy();
    ExtVector<PosRank> unsorted(dev_);
    *all_distinct = true;
    {
      typename ExtVector<RankedPos>::Reader r(&sorted, 0, opts_.prefetch_depth);
      typename ExtVector<PosRank>::Writer w(&unsorted, opts_.prefetch_depth);
      RankedPos t;
      uint64_t index = 0, rank = 0;
      uint64_t prev_r1 = 0, prev_r2 = 0;
      bool first = true;
      while (r.Next(&t)) {
        index++;
        if (first || t.r1 != prev_r1 || t.r2 != prev_r2) {
          rank = index;
        } else {
          *all_distinct = false;
        }
        first = false;
        prev_r1 = t.r1;
        prev_r2 = t.r2;
        if (!w.Append(PosRank{t.pos, rank})) return w.status();
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    sorted.Destroy();
    VEM_RETURN_IF_ERROR(ExternalSort(unsorted, ranks, opts_));
    return Status::OK();
  }

  template <typename RankedPos, typename PosRank>
  Status AssignRanks(ExtVector<RankedPos>& tuples, ExtVector<PosRank>* ranks,
                     bool* all_distinct) {
    return AssignRanksImpl(tuples, ranks, all_distinct);
  }

  BlockDevice* dev_;
  Options opts_;
  size_t rounds_ = 0;
};

}  // namespace vem
