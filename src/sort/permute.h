// External permuting — Permute(N) = Θ(min(N, Sort(N))) I/Os.
//
// Two algorithms, matching the survey's min():
//  - PermuteDirect: write each item straight to its target position via a
//    buffer pool; on a random permutation with N >> M this costs ~1 I/O
//    per item (the naive bound N).
//  - PermuteBySorting: tag each item with its destination, externally sort
//    by destination, strip tags — Sort(N) I/Os.
// PermuteAuto picks whichever estimate is smaller: the crossover the
// survey highlights (sorting wins iff B > ~log_{M/B}(N/B)).
#pragma once

#include <cmath>

#include "core/ext_vector.h"
#include "io/buffer_pool.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Which strategy PermuteAuto selected (exposed for tests/benches).
enum class PermuteStrategy { kDirect, kSorting };

namespace internal {

template <typename T>
struct DestTagged {
  uint64_t dest;
  T value;
  bool operator<(const DestTagged& o) const { return dest < o.dest; }
};

}  // namespace internal

/// output[dest[i]] = input[i], by tag-sort-strip; the sort takes M and
/// its stream depth from `opts`. dest must be a permutation of 0..N-1
/// (checked only by size; duplicate destinations silently overwrite).
template <typename T>
Status PermuteBySorting(const ExtVector<T>& input,
                        const ExtVector<uint64_t>& dest, ExtVector<T>* output,
                        const Options& opts) {
  using Tagged = internal::DestTagged<T>;
  if (input.size() != dest.size()) {
    return Status::InvalidArgument("input/dest size mismatch");
  }
  BlockDevice* dev = output->device();
  ExtVector<Tagged> tagged(dev);
  {
    typename ExtVector<T>::Reader vr(&input);
    ExtVector<uint64_t>::Reader dr(&dest);
    typename ExtVector<Tagged>::Writer w(&tagged);
    T v;
    uint64_t d;
    while (vr.Next(&v)) {
      if (!dr.Next(&d)) return Status::InvalidArgument("dest too short");
      if (!w.Append(Tagged{d, v})) return w.status();
    }
    VEM_RETURN_IF_ERROR(vr.status());
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  ExtVector<Tagged> sorted(dev);
  VEM_RETURN_IF_ERROR(ExternalSort(tagged, &sorted, opts));
  tagged.Destroy();
  {
    typename ExtVector<Tagged>::Reader r(&sorted);
    typename ExtVector<T>::Writer w(output);
    Tagged t;
    while (r.Next(&t)) {
      if (!w.Append(t.value)) return w.status();
    }
    VEM_RETURN_IF_ERROR(r.status());
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  return Status::OK();
}

/// output[dest[i]] = input[i] by direct random writes through the
/// output's buffer pool (its frame count is the caller's M/B). Output is
/// pre-sized to input.size().
template <typename T>
Status PermuteDirect(const ExtVector<T>& input,
                     const ExtVector<uint64_t>& dest, ExtVector<T>* output) {
  if (input.size() != dest.size()) {
    return Status::InvalidArgument("input/dest size mismatch");
  }
  if (output->pool() == nullptr) {
    return Status::InvalidArgument("PermuteDirect output needs a BufferPool");
  }
  // Pre-size the output (sequential zero-fill, Scan cost).
  {
    typename ExtVector<T>::Writer w(output);
    T zero{};
    for (size_t i = 0; i < input.size(); ++i) {
      if (!w.Append(zero)) return w.status();
    }
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  typename ExtVector<T>::Reader vr(&input);
  ExtVector<uint64_t>::Reader dr(&dest);
  T v;
  uint64_t d;
  while (vr.Next(&v)) {
    if (!dr.Next(&d)) return Status::InvalidArgument("dest too short");
    VEM_RETURN_IF_ERROR(output->Set(static_cast<size_t>(d), v));
  }
  return vr.status();
}

/// Estimated I/O cost of each strategy; PermuteAuto picks the cheaper.
struct PermuteCostModel {
  double direct_ios;
  double sorting_ios;

  static PermuteCostModel Estimate(size_t n_items, size_t item_bytes,
                                   size_t block_bytes, size_t memory_bytes) {
    double N = static_cast<double>(n_items);
    double B = static_cast<double>(block_bytes) /
               static_cast<double>(item_bytes + sizeof(uint64_t));
    double m_blocks =
        std::max(2.0, static_cast<double>(memory_bytes) /
                          static_cast<double>(block_bytes));
    double n_blocks = std::max(1.0, N / B);
    double passes = std::max(1.0, std::ceil(std::log(n_blocks) /
                                            std::log(m_blocks)));
    PermuteCostModel m;
    m.direct_ios = N;                     // ~1 random write per item
    m.sorting_ios = 2.0 * n_blocks * (1.0 + passes);  // scans + merge passes
    return m;
  }
};

/// Permute choosing the cheaper strategy per the survey's min() bound.
/// The crossover estimate takes M from `opts.memory_budget` and B from
/// the output's device; the sorting strategy's sort runs at
/// `opts.prefetch_depth`. If `chosen` is non-null it receives the
/// decision.
template <typename T>
Status PermuteAuto(const ExtVector<T>& input, const ExtVector<uint64_t>& dest,
                   ExtVector<T>* output, const Options& opts,
                   PermuteStrategy* chosen = nullptr) {
  auto est = PermuteCostModel::Estimate(input.size(), sizeof(T),
                                        output->device()->block_size(),
                                        opts.memory_budget);
  if (est.direct_ios <= est.sorting_ios && output->pool() != nullptr) {
    if (chosen != nullptr) *chosen = PermuteStrategy::kDirect;
    return PermuteDirect(input, dest, output);
  }
  if (chosen != nullptr) *chosen = PermuteStrategy::kSorting;
  return PermuteBySorting(input, dest, output, opts);
}

}  // namespace vem
