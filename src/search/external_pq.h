// ExternalPriorityQueue<T>: external-memory priority queue.
//
// Simplified sequence heap (Sanders' design, the engine of the STXXL PQ,
// which the survey cites for EM priority queues): inserts go to an
// internal min-heap; when it overflows, its contents spill to disk as a
// sorted run. DeleteMin takes the smaller of the internal heap's top and
// the minimum head across on-disk runs. Runs carry a level: a spill is
// level 0, and merging runs up to level l yields one level-(l+1) run.
// When the number of runs would exceed the buffer budget (one block
// buffer per run), the lowest levels holding at least two runs merge.
//
// An item is rewritten once per level it climbs, so N inserts + N
// delete-mins cost O((N/B) log_{M/B}(N/M)) I/Os amortized — sorting by PQ
// push/pop tracks Sort(N) (the external PQ row of io_bounds_test).
#pragma once

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "sort/loser_tree.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Min-priority queue of trivially-copyable items on a block device.
template <typename T, typename Cmp = std::less<T>>
class ExternalPriorityQueue {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// @param dev scratch device for spilled runs (not owned); B comes
  ///        from it.
  /// @param opts `memory_budget` is the internal memory M: half for the
  ///        insertion heap, half for per-run merge buffers.
  ///        `prefetch_depth` K arms K-block write-behind on spilled-run
  ///        writers and read-ahead on every run's merge/pop reader (0 =
  ///        synchronous). Arming is budget-aware, not per-run
  ///        unconditional: when the device carries a PrefetchGovernor, K
  ///        is a request the governor arbitrates globally; without one
  ///        the PQ arms new runs only while total staging (2K blocks per
  ///        armed run) fits in the M/2-derived budget — the oldest
  ///        (longest-lived, most-streamed) runs keep their depth, later
  ///        runs run synchronous until a drained or collapsed run hands
  ///        its staging back. Never changes IoStats.
  ExternalPriorityQueue(BlockDevice* dev, const Options& opts,
                        Cmp cmp = Cmp())
      : dev_(dev), cmp_(cmp), prefetch_depth_(opts.prefetch_depth) {
    size_t half = opts.memory_budget / 2;
    heap_capacity_ = std::max<size_t>(half / sizeof(T), 16);
    max_runs_ = std::max<size_t>(half / dev->block_size(), 2);
    // Staging budget for prefetch arming: the same merge-buffer half of
    // M. Fixed-K arming with R live runs would stage 2*K*R blocks
    // unbounded; this cap (or the device's governor, which supersedes
    // it) keeps total staging within the budget.
    staging_budget_blocks_ = std::max<size_t>(half / dev->block_size(), 2);
  }


  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Statistics for tests/benches.
  size_t spills() const { return spills_; }
  size_t collapses() const { return collapses_; }
  size_t active_runs() const { return runs_.size(); }

  /// Blocks of read-ahead staging currently held by armed runs. Counts
  /// every run whose reader still exists — a drained run's windows live
  /// until the reader is destroyed, so validity alone would undercount
  /// (governor-less accounting; tests assert the budget holds).
  size_t armed_staging_blocks() const {
    size_t total = 0;
    for (const auto& run : runs_) {
      if (run->reader != nullptr) total += 2 * run->armed_depth;
    }
    return total;
  }
  size_t staging_budget_blocks() const { return staging_budget_blocks_; }

  /// Insert one item; O(1/B) amortized I/Os.
  Status Push(const T& v) {
    heap_.push_back(v);
    std::push_heap(heap_.begin(), heap_.end(), InvCmp{cmp_});
    size_++;
    if (heap_.size() >= heap_capacity_) {
      VEM_RETURN_IF_ERROR(SpillHeap());
    }
    return Status::OK();
  }

  /// Read the current minimum without removing it.
  Status Top(T* out) {
    if (size_ == 0) return Status::NotFound("top of empty priority queue");
    const T* best = nullptr;
    if (!heap_.empty()) best = &heap_.front();
    for (auto& run : runs_) {
      if (run->valid && (best == nullptr || cmp_(run->head, *best))) {
        best = &run->head;
      }
    }
    *out = *best;
    return Status::OK();
  }

  /// Remove and return the minimum; O(1/B) amortized I/Os.
  Status Pop(T* out) {
    if (size_ == 0) return Status::NotFound("pop from empty priority queue");
    // Find the best source: -1 for the internal heap, else run index.
    int src = heap_.empty() ? -2 : -1;
    const T* best = heap_.empty() ? nullptr : &heap_.front();
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (runs_[i]->valid && (best == nullptr || cmp_(runs_[i]->head, *best))) {
        best = &runs_[i]->head;
        src = static_cast<int>(i);
      }
    }
    if (src == -1) {
      *out = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), InvCmp{cmp_});
      heap_.pop_back();
    } else {
      RunState& run = *runs_[src];
      *out = run.head;
      if (!run.reader->Next(&run.head)) {
        VEM_RETURN_IF_ERROR(run.reader->status());
        run.valid = false;
        // Release the drained reader now — its prefetch windows would
        // otherwise hold 2K blocks of staging until the next collapse.
        run.reader.reset();
        run.armed_depth = 0;
      }
    }
    size_--;
    if (size_ == 0) ReleaseRuns();
    return Status::OK();
  }

 private:
  struct RunState {
    explicit RunState(BlockDevice* dev) : data(dev) {}
    ExtVector<T> data;
    std::unique_ptr<typename ExtVector<T>::Reader> reader;
    T head{};
    bool valid = false;
    size_t armed_depth = 0;  ///< K granted to this run's streams (0 = sync)
    size_t level = 0;  ///< 0 for a spill; l + 1 for a merge up to level l
  };

  /// Heap comparator inversion: std heap functions build a max-heap, we
  /// want the minimum at front.
  struct InvCmp {
    Cmp cmp;
    bool operator()(const T& a, const T& b) const { return cmp(b, a); }
  };

  /// Stream depth for a NEW run's writer+reader, bounded by the staging
  /// budget. With a governor on the device the global budget (and the
  /// adaptive policy) lives there — pass the request through. Without
  /// one, grant K only while every armed run's 2K staging plus this
  /// run's fits the budget; otherwise the run streams synchronously.
  size_t ArmRunDepth() const {
    if (prefetch_depth_ == 0 || dev_->prefetch_governor() != nullptr) {
      return prefetch_depth_;
    }
    if (armed_staging_blocks() + 2 * prefetch_depth_ > staging_budget_blocks_) {
      return 0;
    }
    return prefetch_depth_;
  }

  Status SpillHeap() {
    std::sort(heap_.begin(), heap_.end(), cmp_);
    auto run = std::make_unique<RunState>(dev_);
    const size_t depth = ArmRunDepth();
    VEM_RETURN_IF_ERROR(
        run->data.AppendAll(heap_.data(), heap_.size(), depth));
    heap_.clear();
    run->reader = std::make_unique<typename ExtVector<T>::Reader>(
        &run->data, 0, depth);
    // Mirror the Reader's tiny-vector gate: a run that fits in one
    // window stayed synchronous and holds no staging to charge.
    run->armed_depth = run->data.num_blocks() > depth ? depth : 0;
    run->valid = run->reader->Next(&run->head);
    VEM_RETURN_IF_ERROR(run->reader->status());
    if (run->valid) runs_.push_back(std::move(run));
    spills_++;
    if (runs_.size() > max_runs_) {
      VEM_RETURN_IF_ERROR(CollapseRuns());
    }
    return Status::OK();
  }

  /// Merge the lowest-level runs into one run a level up: the two lowest
  /// plus every other run on the second one's level. A merged run waits
  /// for peers on its level before it is merged again, so each item is
  /// rewritten O(log(N/M)) times. Drained runs are dropped first; they
  /// hold no items.
  Status CollapseRuns() {
    std::erase_if(runs_, [](const std::unique_ptr<RunState>& r) {
      return !r->valid;
    });
    if (runs_.size() <= max_runs_) return Status::OK();
    collapses_++;
    std::stable_sort(runs_.begin(), runs_.end(),
                     [](const std::unique_ptr<RunState>& a,
                        const std::unique_ptr<RunState>& b) {
                       return a->level < b->level;
                     });
    size_t merge_count = 2;
    while (merge_count < runs_.size() &&
           runs_[merge_count]->level == runs_[1]->level) {
      merge_count++;
    }

    auto merged = std::make_unique<RunState>(dev_);
    merged->level = runs_[1]->level + 1;
    // The merge writer coexists with EVERY live run's reader (the runs
    // being merged only release their staging when erased below), so it
    // arms against the full current staging — ArmRunDepth counts all
    // valid runs. The budget holds even at the collapse peak.
    const size_t writer_depth = ArmRunDepth();
    {
      LoserTree<T, Cmp> tree(merge_count, cmp_);
      for (size_t i = 0; i < merge_count; ++i) {
        tree.SetSource(i, runs_[i]->head);
      }
      tree.Build();
      typename ExtVector<T>::Writer writer(&merged->data, writer_depth);
      while (tree.HasWinner()) {
        if (!writer.Append(tree.top())) return writer.status();
        RunState& run = *runs_[tree.winner()];
        T next;
        if (run.reader->Next(&next)) {
          tree.ReplaceWinner(next);
        } else {
          VEM_RETURN_IF_ERROR(run.reader->status());
          tree.ExhaustWinner();
        }
      }
      VEM_RETURN_IF_ERROR(writer.Finish());
    }
    // Drop the drained runs, keep the rest. Their staging is released
    // now, so the merged run's reader re-arms against the survivors.
    runs_.erase(runs_.begin(), runs_.begin() + merge_count);
    const size_t reader_depth = ArmRunDepth();
    merged->reader = std::make_unique<typename ExtVector<T>::Reader>(
        &merged->data, 0, reader_depth);
    merged->armed_depth =
        merged->data.num_blocks() > reader_depth ? reader_depth : 0;
    merged->valid = merged->reader->Next(&merged->head);
    VEM_RETURN_IF_ERROR(merged->reader->status());
    if (merged->valid) runs_.push_back(std::move(merged));
    return Status::OK();
  }

  void ReleaseRuns() { runs_.clear(); }

  BlockDevice* dev_;
  Cmp cmp_;
  size_t prefetch_depth_;
  size_t heap_capacity_;
  size_t max_runs_;
  std::vector<T> heap_;
  std::vector<std::unique_ptr<RunState>> runs_;
  size_t size_ = 0;
  size_t spills_ = 0;
  size_t collapses_ = 0;
  size_t staging_budget_blocks_ = 2;
};

}  // namespace vem
