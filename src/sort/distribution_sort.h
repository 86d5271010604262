// External distribution sort (external quicksort / sample sort).
//
// The survey's dual of merge sort: pick k-1 splitters from a random
// sample, scatter the input into k buckets in one scan, recurse on each
// bucket, emit buckets in order. Same Θ((N/B) log_{M/B}(N/B)) bound;
// io_bounds_test holds it within a constant of merge sort's exact count.
#pragma once

#include <algorithm>
#include <vector>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "util/options.h"
#include "util/random.h"
#include "util/status.h"

namespace vem {

/// External distribution sort over ExtVector<T>.
template <typename T, typename Cmp = std::less<T>>
class DistributionSorter {
 public:
  struct Metrics {
    size_t items = 0;
    size_t partition_levels = 0;  ///< deepest recursion that scattered
    size_t base_case_sorts = 0;   ///< buckets sorted in RAM
  };

  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead on every sequential scan (input, splitter
  /// sample, equal-bucket emit, base-case loads) and write-behind on the
  /// output stream (0 = synchronous). The per-bucket scatter writers stay
  /// synchronous on purpose: ~2k+1 of them are open at once and each
  /// armed writer stages 2K extra blocks, which would multiply the memory
  /// budget the fan-out was sized against. On an IndependentDiskDevice
  /// every armed stream leases with a per-disk route (the Reader tags its
  /// governor lease with the placement of its first block), so a slow or
  /// wasteful disk disarms only its own streams. Never changes IoStats —
  /// accounting is deferred to consumption time (see block_device.h).
  DistributionSorter(BlockDevice* dev, const Options& opts, Cmp cmp = Cmp(),
                     uint64_t seed = 0xD157)
      : dev_(dev),
        memory_budget_(opts.memory_budget),
        prefetch_depth_(opts.prefetch_depth),
        cmp_(cmp),
        rng_(seed) {}


  /// Splitter count per pass. Each of the k "less-than" buckets and k-1
  /// "equal-to-splitter" buckets holds a writer, so ~2k+1 block buffers
  /// must fit in M.
  size_t fan_out() const {
    size_t blocks = memory_budget_ / dev_->block_size();
    size_t k = blocks >= 9 ? (blocks - 1) / 2 : 4;
    return std::max<size_t>(k, 2);
  }

  /// Sort `input` into empty `output` on the same device.
  Status Sort(const ExtVector<T>& input, ExtVector<T>* output) {
    if (output->device() != dev_ || !output->empty()) {
      return Status::InvalidArgument("output must be empty, same device");
    }
    metrics_ = Metrics{};
    metrics_.items = input.size();
    typename ExtVector<T>::Writer writer(output, prefetch_depth_);
    VEM_RETURN_IF_ERROR(SortInto(input, &writer, 1));
    return writer.Finish();
  }

  const Metrics& metrics() const { return metrics_; }

 private:
  size_t memory_items() const { return memory_budget_ / sizeof(T); }

  /// Recursive sort of `input` appended to `writer` in sorted order.
  Status SortInto(const ExtVector<T>& input,
                  typename ExtVector<T>::Writer* writer, size_t depth) {
    if (input.size() <= memory_items()) {
      // Base case: fits in internal memory.
      std::vector<T> buf;
      VEM_RETURN_IF_ERROR(input.ReadAll(&buf, prefetch_depth_));
      std::sort(buf.begin(), buf.end(), cmp_);
      metrics_.base_case_sorts++;
      for (const T& v : buf) {
        if (!writer->Append(v)) return writer->status();
      }
      return Status::OK();
    }
    metrics_.partition_levels = std::max(metrics_.partition_levels, depth);

    // Splitter selection: reservoir-sample 4k items in one scan, sort,
    // take every 4th as a splitter. Oversampling keeps buckets balanced
    // with high probability (standard sample-sort analysis).
    const size_t k = fan_out();
    std::vector<T> splitters;
    VEM_RETURN_IF_ERROR(PickSplitters(input, k, &splitters));

    // Scatter pass (three-way): items strictly between splitters go to
    // "less" buckets L_0..L_s which recurse; items EQUAL to a splitter go
    // to per-splitter "equal" buckets which are emitted verbatim (they are
    // trivially sorted). Every splitter is an input member, so every L
    // bucket is strictly smaller than the input — recursion terminates
    // even on all-duplicate inputs.
    const size_t s = splitters.size();
    std::vector<ExtVector<T>> less;     // s + 1 buckets
    std::vector<ExtVector<T>> equal;    // s buckets
    less.reserve(s + 1);
    equal.reserve(s);
    for (size_t i = 0; i <= s; ++i) less.emplace_back(dev_);
    for (size_t i = 0; i < s; ++i) equal.emplace_back(dev_);
    {
      std::vector<typename ExtVector<T>::Writer> lw, ew;
      lw.reserve(less.size());
      ew.reserve(equal.size());
      for (auto& b : less) lw.emplace_back(&b);
      for (auto& b : equal) ew.emplace_back(&b);
      typename ExtVector<T>::Reader reader(&input, 0, prefetch_depth_);
      T item;
      while (reader.Next(&item)) {
        size_t lo = std::lower_bound(splitters.begin(), splitters.end(), item,
                                     cmp_) -
                    splitters.begin();
        if (lo < s && !cmp_(item, splitters[lo]) &&
            !cmp_(splitters[lo], item)) {
          if (!ew[lo].Append(item)) return ew[lo].status();
        } else {
          if (!lw[lo].Append(item)) return lw[lo].status();
        }
      }
      VEM_RETURN_IF_ERROR(reader.status());
      for (auto& w : lw) VEM_RETURN_IF_ERROR(w.Finish());
      for (auto& w : ew) VEM_RETURN_IF_ERROR(w.Finish());
    }

    // Emit in order L_0, E_0, L_1, E_1, ..., L_s; free buckets eagerly.
    for (size_t i = 0; i <= s; ++i) {
      VEM_RETURN_IF_ERROR(SortInto(less[i], writer, depth + 1));
      less[i].Destroy();
      if (i < s) {
        typename ExtVector<T>::Reader reader(&equal[i], 0, prefetch_depth_);
        T item;
        while (reader.Next(&item)) {
          if (!writer->Append(item)) return writer->status();
        }
        VEM_RETURN_IF_ERROR(reader.status());
        equal[i].Destroy();
      }
    }
    return Status::OK();
  }

  /// One-scan reservoir sample of 4k items -> k-1 splitters (deduplicated
  /// so heavy duplicates cannot produce empty progress; equal keys all
  /// land in one bucket which then base-cases or splits by sampling luck).
  Status PickSplitters(const ExtVector<T>& input, size_t k,
                       std::vector<T>* splitters) {
    const size_t sample_target = 4 * k;
    std::vector<T> sample;
    sample.reserve(sample_target);
    typename ExtVector<T>::Reader reader(&input, 0, prefetch_depth_);
    T item;
    size_t seen = 0;
    while (reader.Next(&item)) {
      seen++;
      if (sample.size() < sample_target) {
        sample.push_back(item);
      } else {
        size_t j = rng_.Uniform(seen);
        if (j < sample_target) sample[j] = item;
      }
    }
    VEM_RETURN_IF_ERROR(reader.status());
    std::sort(sample.begin(), sample.end(), cmp_);
    splitters->clear();
    for (size_t i = 4; i < sample.size(); i += 4) {
      const T& cand = sample[i];
      if (splitters->empty() || cmp_(splitters->back(), cand)) {
        splitters->push_back(cand);
      }
      if (splitters->size() == k - 1) break;
    }
    return Status::OK();
  }

  BlockDevice* dev_;
  size_t memory_budget_;
  size_t prefetch_depth_;
  Cmp cmp_;
  Rng rng_;
  Metrics metrics_;
};

}  // namespace vem
