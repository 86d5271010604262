// External multiway merge sort — Sort(N) = Θ((N/B) log_{M/B}(N/B)) I/Os.
//
// Phase 1 (run formation): load M items at a time, sort in RAM, write each
// as a sorted run: one scan, ceil(N/M) runs. The in-RAM sort is the CPU
// bottleneck, so each memory load is cut into kRunSlices contiguous
// slices sorted on up to that many threads (the caller plus helpers, with
// at most kRunSlices - 1 helpers in the whole process), and the sorted
// slices are merged with a LoserTree straight into the run's writer —
// STXXL's parallel run formation (Dementiev & Sanders, SPAA 2003). The
// slice count is a constant, so the output, tie order included, is the
// same on every machine and under any load; memory stays M and the I/Os
// are those of the one-thread sort.
// Phase 2 (merging): repeatedly merge k = M/B - 1 runs at a time with a
// LoserTree until one run remains. Each pass scans all data once, and
// there are ceil(log_k(N/M)) passes — the survey's optimal sorting bound
// (for a single disk; use a StripedDevice for the D-disk variant).
#pragma once

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <memory>
#include <system_error>
#include <thread>
#include <vector>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "serve/execution_context.h"
#include "sort/forecast_merge.h"
#include "sort/loser_tree.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

namespace detail {
/// Run-formation helper threads alive right now, over every
/// ExternalSorter instantiation in the process.
inline std::atomic<size_t> run_sort_helpers{0};
}  // namespace detail

/// External merge sort over ExtVector<T>.
///
/// `Cmp` is called from several threads at once during run formation, so
/// it must not mutate shared state (a stateless lambda or functor is
/// fine).
template <typename T, typename Cmp = std::less<T>>
class ExternalSorter {
 public:
  /// Sorted slices per run-formation memory load: the caller sorts slice
  /// 0, helper threads the rest. Fixed rather than taken from the core
  /// count so tie order never varies by machine. At most kRunSlices - 1
  /// helpers run at once in the whole process, so concurrent sorts (e.g.
  /// serving tenants) do not oversubscribe the cores; a slice that finds
  /// no free helper is sorted by its caller, with the same output.
  static constexpr size_t kRunSlices = 4;
  /// Runs shorter than this many items are sorted as one slice; below it
  /// thread start-up outweighs the sort.
  static constexpr size_t kMinSlicedRun = 16 * 1024;

  /// Observability: what the sort actually did (asserted on in tests,
  /// reported by benches).
  struct Metrics {
    size_t items = 0;        ///< N
    size_t initial_runs = 0; ///< ceil(N/M)
    size_t merge_passes = 0; ///< ceil(log_k initial_runs)
    size_t fan_in = 0;       ///< k
  };

  /// @param dev device holding input, temporaries and output (not owned)
  /// @param opts M is `memory_budget`; `prefetch_depth` K arms K-block
  ///        read-ahead on every run reader and write-behind on every run
  ///        writer (0 = synchronous). B comes from `dev`. In the merge
  ///        loop each of the k run readers keeps its refill in flight
  ///        while the loser tree drains the others. Never changes
  ///        IoStats (accounting is deferred to consumption; see
  ///        block_device.h); costs ~(k + 1) * 2K blocks of RAM on top of
  ///        M, unless a PrefetchGovernor on the device turns K into a
  ///        request leased from its staging budget.
  ExternalSorter(BlockDevice* dev, const Options& opts, Cmp cmp = Cmp())
      : dev_(dev),
        memory_budget_(opts.memory_budget),
        prefetch_depth_(opts.prefetch_depth),
        cmp_(cmp) {}

  /// Serving-plane wiring: device, memory budget (the tenant's slice of
  /// M) and prefetch depth all come from the ExecutionContext.
  explicit ExternalSorter(ExecutionContext* ctx, Cmp cmp = Cmp())
      : ExternalSorter(ctx->device(), ctx->options(), cmp) {}

  /// k: how many runs one merge pass combines. k input buffers plus one
  /// output buffer must fit in M.
  size_t fan_in() const {
    size_t k = memory_budget_ / dev_->block_size();
    return k >= 3 ? k - 1 : 2;
  }

  /// Items per initial run (M in items, >= 2 blocks so merging makes
  /// progress even under absurdly small budgets). Slicing a run for the
  /// parallel sort does not change its length: the slices are merged back
  /// into one run before it is written.
  size_t run_length() const {
    size_t m = memory_budget_ / sizeof(T);
    size_t two_blocks = 2 * (dev_->block_size() / sizeof(T));
    return std::max(m, two_blocks);
  }

  /// Forecast-scheduled merge refills (sort/forecast_merge.h): run
  /// readers are replaced by whole-block refill waves — the empty run's
  /// next block plus the next block of the most-urgent other runs
  /// (smallest buffered last key), one per distinct disk. On an
  /// IndependentDiskDevice each wave is ONE parallel read step, which is
  /// the independent-disk sorting schedule the survey credits with
  /// beating striping; on a single disk waves degenerate to one block
  /// and costs match the plain merge. Block reads/writes are unchanged
  /// either way. Off by default.
  void set_forecast_merge(bool on) { forecast_merge_ = on; }

  /// Sort `input` into `output`. `output` must be an empty vector on the
  /// same device. The input is not modified.
  Status Sort(const ExtVector<T>& input, ExtVector<T>* output) {
    if (output->device() != dev_ || !output->empty()) {
      return Status::InvalidArgument("output must be empty, same device");
    }
    metrics_ = Metrics{};
    metrics_.items = input.size();
    metrics_.fan_in = fan_in();

    std::deque<ExtVector<T>> runs;
    VEM_RETURN_IF_ERROR(FormRuns(input, &runs));
    metrics_.initial_runs = runs.size();

    if (runs.empty()) return Status::OK();  // empty input -> empty output

    const size_t k = fan_in();
    // Intermediate passes: while more than k runs remain, merge groups of
    // k into new runs (each full sweep over the deque = one pass).
    while (runs.size() > k) {
      metrics_.merge_passes++;
      size_t groups = (runs.size() + k - 1) / k;
      std::deque<ExtVector<T>> next;
      for (size_t g = 0; g < groups; ++g) {
        size_t take = std::min(k, runs.size());
        ExtVector<T> merged(dev_);
        VEM_RETURN_IF_ERROR(MergeFront(&runs, take, &merged));
        next.push_back(std::move(merged));
      }
      runs.swap(next);
    }
    // Final pass straight into the caller's output.
    metrics_.merge_passes++;
    if (runs.size() == 1) {
      metrics_.merge_passes--;  // single run: no merge needed
      output->Adopt(std::move(runs.front()));
      runs.pop_front();
      return Status::OK();
    }
    return MergeFront(&runs, runs.size(), output);
  }

  const Metrics& metrics() const { return metrics_; }

 private:
  /// Phase 1: produce sorted runs of run_length() items.
  Status FormRuns(const ExtVector<T>& input, std::deque<ExtVector<T>>* runs) {
    const size_t run_items = run_length();
    typename ExtVector<T>::Reader reader(&input, 0, prefetch_depth_);
    std::vector<T> buf;
    buf.reserve(std::min(run_items, input.size()));
    T item;
    bool more = reader.Next(&item);
    while (more) {
      buf.clear();
      while (more && buf.size() < run_items) {
        buf.push_back(item);
        more = reader.Next(&item);
      }
      VEM_RETURN_IF_ERROR(reader.status());
      ExtVector<T> run(dev_);
      VEM_RETURN_IF_ERROR(WriteSortedRun(&buf, &run));
      runs->push_back(std::move(run));
    }
    return reader.status();
  }

  /// Sort one memory load into `run`: cut `buf` into contiguous slices,
  /// sort slice 0 (and any slice no helper slot is free for) on the
  /// caller and the others on helper threads, then merge the sorted
  /// slices into the run's writer. A short load is one slice and takes
  /// the same loop (a one-leaf LoserTree).
  Status WriteSortedRun(std::vector<T>* buf, ExtVector<T>* run) {
    const size_t n = buf->size();
    const size_t slices = n < kMinSlicedRun ? 1 : kRunSlices;
    std::vector<size_t> bound(slices + 1);
    for (size_t s = 0; s <= slices; ++s) bound[s] = n * s / slices;
    // A comparator exception on a helper is carried back and rethrown on
    // the caller, as the one-thread sort would have thrown it.
    std::vector<std::exception_ptr> thrown(slices);
    auto sort_slice = [&](size_t s) {
      try {
        std::sort(buf->begin() + bound[s], buf->begin() + bound[s + 1], cmp_);
      } catch (...) {
        thrown[s] = std::current_exception();
      }
    };
    {
      std::vector<std::jthread> helpers;
      helpers.reserve(slices - 1);
      std::vector<size_t> mine{0};
      for (size_t s = 1; s < slices; ++s) {
        if (TakeHelperSlot()) {
          try {
            helpers.emplace_back([&sort_slice, s] {
              sort_slice(s);
              detail::run_sort_helpers.fetch_sub(1);
            });
            continue;
          } catch (const std::system_error&) {  // no thread: sort it here
            detail::run_sort_helpers.fetch_sub(1);
          }
        }
        mine.push_back(s);
      }
      for (size_t s : mine) sort_slice(s);
    }  // jthreads join here
    for (const std::exception_ptr& e : thrown) {
      if (e) std::rethrow_exception(e);
    }

    std::vector<size_t> next(bound.begin(), bound.end() - 1);
    LoserTree<T, Cmp> tree(slices, cmp_);
    for (size_t s = 0; s < slices; ++s) {
      if (next[s] < bound[s + 1]) tree.SetSource(s, (*buf)[next[s]++]);
    }
    tree.Build();
    typename ExtVector<T>::Writer writer(run, prefetch_depth_);
    while (tree.HasWinner()) {
      if (!writer.Append(tree.top())) return writer.status();
      const size_t s = tree.winner();
      if (next[s] < bound[s + 1]) {
        tree.ReplaceWinner((*buf)[next[s]++]);
      } else {
        tree.ExhaustWinner();
      }
    }
    return writer.Finish();
  }

  /// Claim one of the kRunSlices - 1 process-wide helper slots.
  static bool TakeHelperSlot() {
    auto& alive = detail::run_sort_helpers;
    size_t n = alive.load();
    while (n < kRunSlices - 1) {
      if (alive.compare_exchange_weak(n, n + 1)) return true;
    }
    return false;
  }

  /// Merge the first `take` runs of `runs` into `out`; merged runs are
  /// destroyed (their blocks freed) as soon as they are drained.
  Status MergeFront(std::deque<ExtVector<T>>* runs, size_t take,
                    ExtVector<T>* out) {
    std::vector<ExtVector<T>> group;
    group.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      group.push_back(std::move(runs->front()));
      runs->pop_front();
    }
    if (forecast_merge_) {
      std::vector<const ExtVector<T>*> srcs;
      srcs.reserve(take);
      for (const auto& run : group) srcs.push_back(&run);
      typename ExtVector<T>::Writer writer(out, prefetch_depth_);
      ForecastMerger<T, Cmp> merger(dev_, cmp_);
      VEM_RETURN_IF_ERROR(merger.Merge(srcs, &writer));
      VEM_RETURN_IF_ERROR(writer.Finish());
      for (auto& run : group) run.Destroy();
      return Status::OK();
    }
    std::vector<typename ExtVector<T>::Reader> readers;
    readers.reserve(take);
    for (auto& run : group) readers.emplace_back(&run, 0, prefetch_depth_);

    LoserTree<T, Cmp> tree(take, cmp_);
    for (size_t i = 0; i < take; ++i) {
      T head;
      if (readers[i].Next(&head)) tree.SetSource(i, head);
      VEM_RETURN_IF_ERROR(readers[i].status());
    }
    tree.Build();

    typename ExtVector<T>::Writer writer(out, prefetch_depth_);
    while (tree.HasWinner()) {
      if (!writer.Append(tree.top())) return writer.status();
      size_t src = tree.winner();
      T next;
      if (readers[src].Next(&next)) {
        tree.ReplaceWinner(next);
      } else {
        VEM_RETURN_IF_ERROR(readers[src].status());
        tree.ExhaustWinner();
      }
    }
    VEM_RETURN_IF_ERROR(writer.Finish());
    for (auto& run : group) run.Destroy();
    return Status::OK();
  }

  BlockDevice* dev_;
  size_t memory_budget_;
  size_t prefetch_depth_;
  Cmp cmp_;
  Metrics metrics_;
  bool forecast_merge_ = false;
};

/// Convenience wrapper: sort on the output's device with M and the
/// stream depth from `opts`.
template <typename T, typename Cmp = std::less<T>>
Status ExternalSort(const ExtVector<T>& input, ExtVector<T>* output,
                    const Options& opts, Cmp cmp = Cmp()) {
  return ExternalSorter<T, Cmp>(output->device(), opts, cmp)
      .Sort(input, output);
}

}  // namespace vem
