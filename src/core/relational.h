// Relational operators on external tables — the survey's database-engine
// legacy ("external sort in every database engine") as reusable
// primitives: sort-merge equi-join and sorted group-by aggregation.
//
// Both are Sort(N) + Sort(M) + co-scan: the exact plan a disk-based
// query engine picks when hash tables don't fit.
//
// Both take their machine parameters as Options (a context caller passes
// ctx->options()): M is `memory_budget`, B comes from the output's device,
// and `prefetch_depth` K > 0 arms K-block read-ahead on the co-scan
// readers, write-behind on the output writer, and the same depth on
// every internal sort's run streams (see ExternalSorter). With an
// IoEngine attached to the device the join/aggregate computes while the
// device transfers; without one, K blocks still coalesce into single
// vectored syscalls. IoStats stay bit-identical either way (accounting is
// deferred to consumption time; see block_device.h).
//
// The key functions (`key_l`, `key_r`, `key_of`) run inside the sort's
// comparator, which ExternalSorter calls from several threads at once;
// they must not mutate shared state.
#pragma once

#include <functional>

#include "core/ext_vector.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Sort-merge equi-join: for every pair (l, r) with KeyL(l) == KeyR(r),
/// append Combine(l, r) to `out`. Handles many-to-many matches (the
/// right-side run of each key group is buffered; it must fit in RAM —
/// the standard engine assumption of no mega-duplicate on the smaller
/// side; pass the smaller table as R).
///
/// Cost: Sort(|L|) + Sort(|R|) + (|L| + |R| + |out|)/B.
template <typename L, typename R, typename Out, typename Key>
Status SortMergeJoin(const ExtVector<L>& left, const ExtVector<R>& right,
                     ExtVector<Out>* out, const Options& opts,
                     const std::function<Key(const L&)>& key_l,
                     const std::function<Key(const R&)>& key_r,
                     const std::function<Out(const L&, const R&)>& combine) {
  BlockDevice* dev = out->device();
  const size_t depth = opts.prefetch_depth;
  // Sort both sides by key.
  auto cmp_l = [&](const L& a, const L& b) { return key_l(a) < key_l(b); };
  auto cmp_r = [&](const R& a, const R& b) { return key_r(a) < key_r(b); };
  ExtVector<L> ls(dev);
  ExtVector<R> rs(dev);
  VEM_RETURN_IF_ERROR(
      ExternalSorter<L, decltype(cmp_l)>(dev, opts, cmp_l).Sort(left, &ls));
  VEM_RETURN_IF_ERROR(
      ExternalSorter<R, decltype(cmp_r)>(dev, opts, cmp_r).Sort(right, &rs));
  // Co-scan.
  typename ExtVector<L>::Reader lr(&ls, 0, depth);
  typename ExtVector<R>::Reader rr(&rs, 0, depth);
  typename ExtVector<Out>::Writer w(out, depth);
  L l;
  R r{};
  bool have_l = lr.Next(&l), have_r = rr.Next(&r);
  std::vector<R> group;  // right-side rows sharing the current key
  while (have_l && have_r) {
    Key kl = key_l(l), kr = key_r(r);
    if (kl < kr) {
      have_l = lr.Next(&l);
      continue;
    }
    if (kr < kl) {
      have_r = rr.Next(&r);
      continue;
    }
    // Buffer the right-side group for key kr.
    group.clear();
    while (have_r && !(key_r(r) < kr) && !(kr < key_r(r))) {
      group.push_back(r);
      have_r = rr.Next(&r);
    }
    // Emit the cross product with every matching left row.
    while (have_l && !(key_l(l) < kl) && !(kl < key_l(l))) {
      for (const R& g : group) {
        if (!w.Append(combine(l, g))) return w.status();
      }
      have_l = lr.Next(&l);
    }
  }
  VEM_RETURN_IF_ERROR(lr.status());
  VEM_RETURN_IF_ERROR(rr.status());
  return w.Finish();
}

/// Sorted group-by aggregation: sort rows by key, then fold each run
/// with (init, accumulate, finish). Cost: Sort(N) + Scan.
template <typename Row, typename Key, typename Acc, typename Out>
Status GroupByAggregate(const ExtVector<Row>& rows, ExtVector<Out>* out,
                        const Options& opts,
                        const std::function<Key(const Row&)>& key_of,
                        const std::function<Acc(const Key&)>& init,
                        const std::function<void(Acc*, const Row&)>& fold,
                        const std::function<Out(const Key&, const Acc&)>&
                            finish) {
  BlockDevice* dev = out->device();
  const size_t depth = opts.prefetch_depth;
  auto cmp = [&](const Row& a, const Row& b) { return key_of(a) < key_of(b); };
  ExtVector<Row> sorted(dev);
  VEM_RETURN_IF_ERROR(
      ExternalSorter<Row, decltype(cmp)>(dev, opts, cmp).Sort(rows, &sorted));
  typename ExtVector<Row>::Reader r(&sorted, 0, depth);
  typename ExtVector<Out>::Writer w(out, depth);
  Row row;
  bool have = r.Next(&row);
  while (have) {
    Key k = key_of(row);
    Acc acc = init(k);
    while (have && !(key_of(row) < k) && !(k < key_of(row))) {
      fold(&acc, row);
      have = r.Next(&row);
    }
    if (!w.Append(finish(k, acc))) return w.status();
  }
  VEM_RETURN_IF_ERROR(r.status());
  return w.Finish();
}

}  // namespace vem
