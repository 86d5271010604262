// External selection — k-th smallest in expected O(Scan(N)) I/Os.
//
// Sampling quickselect: reservoir-sample pivot candidates in one scan,
// partition-count in the next, keep only the side containing k. The
// working set shrinks geometrically in expectation, so the total I/O is
// a constant number of scans — strictly cheaper than Sort(N), the point
// the survey makes about "selection is easier than sorting".
#pragma once

#include <algorithm>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "util/random.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Expected-linear external selection engine.
template <typename T, typename Cmp = std::less<T>>
class ExternalSelector {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead/write-behind on every partitioning scan (0
  /// = synchronous). Never changes IoStats.
  ExternalSelector(BlockDevice* dev, const Options& opts, Cmp cmp = Cmp(),
                   uint64_t seed = 0x5E1)
      : dev_(dev), opts_(opts), cmp_(cmp), rng_(seed) {}

  /// Scans performed by the last Select (tests: expected O(1) rounds).
  size_t rounds() const { return rounds_; }

  /// *out = the k-th smallest element of `input` (k is 0-based; k=0 is
  /// the minimum). InvalidArgument if k >= input.size().
  Status Select(const ExtVector<T>& input, uint64_t k, T* out) {
    rounds_ = 0;
    if (k >= input.size()) {
      return Status::InvalidArgument("selection rank out of range");
    }
    // Current candidate set; starts as a copy of the input (so we never
    // mutate the caller's data), shrinks per round.
    const size_t depth = opts_.prefetch_depth;
    ExtVector<T> cur(dev_);
    {
      typename ExtVector<T>::Reader r(&input, 0, depth);
      typename ExtVector<T>::Writer w(&cur, depth);
      T v;
      while (r.Next(&v)) {
        if (!w.Append(v)) return w.status();
      }
      VEM_RETURN_IF_ERROR(r.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    uint64_t rank = k;
    const size_t mem_items = opts_.memory_budget / sizeof(T);
    while (true) {
      rounds_++;
      if (rounds_ > 200) return Status::Corruption("selection did not converge");
      if (cur.size() <= mem_items) {
        std::vector<T> buf;
        VEM_RETURN_IF_ERROR(cur.ReadAll(&buf));
        std::nth_element(buf.begin(), buf.begin() + rank, buf.end(), cmp_);
        *out = buf[rank];
        cur.Destroy();
        return Status::OK();
      }
      // Round: pick a pivot via a small reservoir sample (median of the
      // sample keeps the split balanced), then three-way partition.
      T pivot;
      VEM_RETURN_IF_ERROR(SamplePivot(cur, &pivot));
      ExtVector<T> less(dev_), greater(dev_);
      uint64_t n_less = 0, n_equal = 0;
      {
        typename ExtVector<T>::Reader r(&cur, 0, depth);
        typename ExtVector<T>::Writer lw(&less, depth), gw(&greater, depth);
        T v;
        while (r.Next(&v)) {
          if (cmp_(v, pivot)) {
            n_less++;
            if (!lw.Append(v)) return lw.status();
          } else if (cmp_(pivot, v)) {
            if (!gw.Append(v)) return gw.status();
          } else {
            n_equal++;
          }
        }
        VEM_RETURN_IF_ERROR(r.status());
        VEM_RETURN_IF_ERROR(lw.Finish());
        VEM_RETURN_IF_ERROR(gw.Finish());
      }
      cur.Destroy();
      if (rank < n_less) {
        cur = std::move(less);
        greater.Destroy();
      } else if (rank < n_less + n_equal) {
        less.Destroy();
        greater.Destroy();
        *out = pivot;
        return Status::OK();
      } else {
        rank -= n_less + n_equal;
        cur = std::move(greater);
        less.Destroy();
      }
    }
  }

 private:
  Status SamplePivot(const ExtVector<T>& cur, T* pivot) {
    constexpr size_t kSample = 64;
    std::vector<T> sample;
    sample.reserve(kSample);
    typename ExtVector<T>::Reader r(&cur, 0, opts_.prefetch_depth);
    T v;
    size_t seen = 0;
    while (r.Next(&v)) {
      seen++;
      if (sample.size() < kSample) {
        sample.push_back(v);
      } else {
        size_t j = rng_.Uniform(seen);
        if (j < kSample) sample[j] = v;
      }
    }
    VEM_RETURN_IF_ERROR(r.status());
    std::nth_element(sample.begin(), sample.begin() + sample.size() / 2,
                     sample.end(), cmp_);
    *pivot = sample[sample.size() / 2];
    return Status::OK();
  }

  BlockDevice* dev_;
  Options opts_;
  Cmp cmp_;
  Rng rng_;
  size_t rounds_ = 0;
};

/// Convenience: median of `input` (lower median for even sizes).
template <typename T, typename Cmp = std::less<T>>
Status ExternalMedian(const ExtVector<T>& input, T* out,
                      const Options& opts, Cmp cmp = Cmp()) {
  ExternalSelector<T, Cmp> sel(input.device(), opts, cmp);
  return sel.Select(input, (input.size() - 1) / 2, out);
}

}  // namespace vem
