// IoEngine: a small worker-thread pool that executes block transfers in
// the background, so computation overlaps I/O and the D transfers of one
// PDM parallel step really happen concurrently.
//
// The engine runs opaque Status-returning jobs; devices and streams build
// their async paths on top:
//  - FileBlockDevice exposes uncounted raw transfers that are safe to run
//    on engine threads (pread/pwrite touch only the fd);
//  - StripedDevice fans one logical transfer out to its D children, one
//    job per child disk, and waits for all of them — one disk's wall-clock
//    per parallel I/O step, exactly the PDM cost accounting;
//  - IndependentDiskDevice fans a batch out as per-disk jobs tagged with
//    the child disk, so the engine's per-disk queues keep one slow disk
//    from head-blocking transfers bound for the others;
//  - ExtVector Reader/Writer submit K-block read-ahead / write-behind
//    windows and account the PDM cost in the consuming thread, so IoStats
//    stay bit-identical to the synchronous path.
//
// Per-disk submission queues: a job may carry a disk tag (any caller-
// chosen id; devices use the child device pointer). Tagged jobs queue
// per disk and at most `disk_inflight_cap` jobs of one disk run on
// workers at a time — the PDM's one-transfer-per-head rule made physical.
// Untagged jobs keep the original single FIFO and are never capped.
// Workers drain the untagged queue first, then round-robin across disk
// queues with spare head capacity, so D tagged streams progress evenly.
//
// Submission backends (the constructor's `backend`): the worker pool is the
// compiled-in default. With IoBackend::kIoUring the pool still executes
// jobs — the Submit/Wait/self-steal contract, per-disk caps, and both
// accounting planes are untouched — but FileBlockDevice transfers inside
// those jobs route through a per-engine io_uring ring (io_ring.h): one
// SQE per coalesced run, batched submission, registered fds, so a deep
// batch of non-contiguous runs is serviced concurrently by the kernel
// instead of sequentially by one worker. disk_inflight_cap bounds the
// concurrent SQE batches per disk, the ring's SQE budget per head. When
// the kernel lacks io_uring (or the build does), construction silently
// degrades to the worker pool — backend() reports the outcome.
//
// Depth gauge: the boolean saturation bit of PR 5 is now derived from a
// per-disk queue-depth gauge. Headroom() / DiskHeadroom(tag) report the
// fraction of submission capacity still open (1 = idle, 0 = every worker
// busy with a backlog pending); DiskDepth/DiskServiceRateNs expose the
// raw per-queue depth and an EWMA of job service time. PrefetchGovernor
// and MemoryArbiter consult the gauge through the DepthGauge interface to
// SHAPE staging grants proportionally to headroom (not just refuse them),
// and ExtVector streams consult it before submitting fills. LabelDisk
// lets multi-head devices name their queues by prefetch route, so the
// governor's per-route leases read the headroom of their own disk.
//
// Counting discipline: engine jobs must never touch IoStats. Physical
// transfers issued speculatively are charged when (and only when) the
// algorithm consumes them — the PDM charges algorithmic block accesses,
// not hardware prefetches.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/options.h"
#include "util/status.h"

namespace vem {

class IoRing;
class RetryPolicy;

/// Read-only view of submission headroom, keyed by prefetch route. The
/// IoEngine is the production implementation; tests inject fakes so
/// governor shaping is deterministic. 1.0 = idle, 0.0 = saturated
/// (growing staging cannot help). Route 0 = the whole engine.
///
/// The gauge also carries the fault-tolerance plane's quarantine bit:
/// RouteQuarantined(route) is true while the disk behind `route` is
/// deemed sick by the health monitor (error-rate EWMA past threshold).
/// Consumers treat it as "stop feeding this head": the PrefetchGovernor
/// disarms leases on the route, the MemoryArbiter denies staging grows
/// while any disk is quarantined. Defaults keep fakes and tests honest
/// without code changes: nothing is ever quarantined.
class DepthGauge {
 public:
  virtual ~DepthGauge() = default;
  virtual double RouteHeadroom(uint64_t route) const = 0;
  virtual bool RouteQuarantined(uint64_t route) const {
    (void)route;
    return false;
  }
  virtual bool AnyQuarantined() const { return false; }
};

/// Fixed-size worker pool with ticketed submit/wait, per-disk queues,
/// and an optional io_uring transport underneath.
class IoEngine : public DepthGauge {
 public:
  /// Identifies one submitted job; pass to Wait() exactly once.
  using Ticket = uint64_t;

  /// Disk tag for jobs outside any per-disk queue (the original FIFO).
  static constexpr uint64_t kNoDisk = ~0ull;

  /// @param num_threads worker count; clamped to >= 1. A handful suffices:
  ///        workers spend their time blocked in pread/pwrite, not on CPU.
  /// @param disk_inflight_cap max concurrently-running jobs per disk tag;
  ///        clamped to >= 1. One head per disk is the PDM rule.
  /// @param backend requested submission backend; kIoUring degrades to
  ///        the worker pool when the ring cannot be built (see backend()).
  /// The watchdog is off (deadline 0).
  explicit IoEngine(size_t num_threads = 2, size_t disk_inflight_cap = 1,
                    IoBackend backend = IoBackend::kWorkerPool)
      : IoEngine(num_threads, disk_inflight_cap, backend,
                 /*deadline_ms=*/0) {}

  /// Thread count and watchdog deadline from Options, on the worker pool
  /// at the PDM's one-transfer-per-head cap of 1 per disk.
  explicit IoEngine(const Options& opts)
      : IoEngine(opts.io_threads, /*disk_inflight_cap=*/1,
                 IoBackend::kWorkerPool, opts.io_deadline_ms) {}

  /// Drains the queues (waits for every submitted job) and joins workers.
  ~IoEngine() override;

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Enqueue `op` for background execution. The closure must be safe to
  /// run on another thread and must not touch IoStats (see header note).
  /// `disk` != kNoDisk routes the job through that disk's queue and
  /// in-flight cap. `retryable` opts the WHOLE job into the engine's
  /// transient-retry policy (set_retry_policy): safe only when a failed
  /// execution has charged nothing — uncounted-plane jobs qualify,
  /// counted batches (which charge completed blocks before a mid-batch
  /// error) must NOT set it and retry at finer granularity instead.
  Ticket Submit(std::function<Status()> op, uint64_t disk = kNoDisk,
                bool retryable = false);

  /// Block until the job behind `t` finishes; returns its Status. Each
  /// ticket is redeemable once (the result is consumed). If the job is
  /// still queued (no worker free), the waiter executes it itself
  /// (self-steal), so jobs may nest waits — e.g. a striped-device fill
  /// fanning out to its child disks via RunBatch — without deadlocking
  /// the pool, and a wait never runs unrelated work. A stolen tagged job
  /// bypasses its disk's in-flight cap: the waiter would otherwise sit
  /// idle blocked on exactly this transfer, which is the synchronous
  /// path's behavior anyway.
  /// Hung-I/O watchdog: when deadline_ms() != 0 and the job is neither
  /// stealable nor completed within the deadline, Wait abandons the
  /// ticket and returns Status::Timeout instead of blocking forever; the
  /// job's eventual result (it may still be running on a worker) is
  /// discarded on completion.
  Status Wait(Ticket t);

  /// Run `ops` with maximal concurrency and return the first error in op
  /// order. Every op is waited for, but under the watchdog deadline an op
  /// still running on a worker is abandoned as in Wait: it reports
  /// Status::Timeout, keeps running, and its eventual result is dropped.
  /// An op must therefore own everything it touches except the caller's
  /// data buffers, which a timed-out batch leaves poisoned. The calling
  /// thread executes one op itself instead of idling — with D jobs on
  /// D-1 busy workers this still completes in one op's wall-clock time.
  /// `disks`, when non-empty, must parallel `ops` and tags each job's
  /// queue (the caller-run op bypasses its cap, as in Wait's self-steal).
  /// `retryable` as in Submit, applied to every op of the batch.
  /// `statuses`, when non-null, receives each op's own Status in op
  /// order (Timeout for an abandoned op).
  Status RunBatch(std::vector<std::function<Status()>> ops,
                  const std::vector<uint64_t>& disks = {},
                  bool retryable = false,
                  std::vector<Status>* statuses = nullptr);

  size_t num_threads() const { return workers_.size(); }
  size_t disk_inflight_cap() const { return disk_inflight_cap_; }

  /// Backend actually in force: the request, downgraded to kWorkerPool
  /// when ring creation failed at construction (runtime fallback) or
  /// when persistent submission failures disabled the ring mid-run.
  IoBackend backend() const {
    return ring_disabled_.load(std::memory_order_relaxed)
               ? IoBackend::kWorkerPool
               : backend_;
  }

  /// The submission ring, or null on the worker-pool backend (including
  /// after mid-run degradation — devices re-read ring() per transfer, so
  /// a disabled ring drops the whole stack onto preadv/pwritev without
  /// touching in-flight work). Devices route their transfers through it;
  /// they must not outlive the engine once they register fds/buffers.
  IoRing* ring() const {
    return ring_disabled_.load(std::memory_order_acquire) ? nullptr
                                                          : ring_.get();
  }

  /// Devices report each ring submission outcome here. A run of
  /// kRingFailureLimit consecutive failures permanently degrades the
  /// engine to the worker pool (ring() -> null, backend() ->
  /// kWorkerPool); any success resets the run. The ring object itself
  /// stays alive so workers mid-transfer race nothing.
  void ReportRingResult(bool ok);
  static constexpr uint32_t kRingFailureLimit = 3;

  /// Optional engine-level retry policy for jobs submitted with
  /// retryable=true. Not owned; set before the first submission.
  void set_retry_policy(RetryPolicy* retry) { retry_ = retry; }
  RetryPolicy* retry_policy() const { return retry_; }

  /// Watchdog deadline (Options::io_deadline_ms), fixed at
  /// construction; 0 waits forever.
  uint64_t deadline_ms() const { return deadline_ms_; }
  /// Jobs abandoned by Wait after the deadline (observability gauge).
  uint64_t timeouts() const;

  // ------------------------------------------------------- depth gauge
  /// Jobs waiting in any queue (not yet picked up by a worker).
  size_t queued_jobs() const;
  /// Workers currently executing a job.
  size_t busy_workers() const;
  /// True when every worker is busy AND a backlog is pending: submitting
  /// more background work only deepens the queues. Equivalent to
  /// Headroom() == 0 — kept as the legacy boolean view of the gauge.
  bool saturated() const;

  /// Whole-engine submission headroom in [0, 1]: the free-worker
  /// fraction, 0.0 exactly when saturated() (all busy + backlog), and a
  /// small nonzero floor when all workers are busy but nothing queues
  /// (the next submit waits, briefly).
  double Headroom() const;

  /// Queue depth of one disk tag: jobs queued plus in flight. 0 for an
  /// idle (or unknown) tag.
  size_t DiskDepth(uint64_t disk_tag) const;

  /// Per-disk headroom in [0, 1], never exceeding the whole-engine
  /// headroom: (cap - depth)/cap while the head has spare capacity, then
  /// 1/(2 + backlog) as jobs queue behind the cap — proportional, so the
  /// governor can shape grants instead of gating them.
  double DiskHeadroom(uint64_t disk_tag) const;

  /// EWMA of one disk's job service time in ns (0 until a tagged job
  /// completes; history drops when the queue fully drains).
  double DiskServiceRateNs(uint64_t disk_tag) const;

  /// Name a disk queue by prefetch route so RouteHeadroom(route) can find
  /// it: multi-head devices call this with (EngineDiskTag, PrefetchRoute)
  /// per child. Routes are small per-device indices; the engine keeps the
  /// latest tag per route.
  void LabelDisk(uint64_t disk_tag, uint64_t route);

  /// DepthGauge: headroom of the disk labeled `route`, or the whole
  /// engine for route 0 / unlabeled routes. A quarantined disk reports
  /// 0.0 — no headroom is the gauge's language for "stop feeding it".
  double RouteHeadroom(uint64_t route) const override;

  // ------------------------------------------------ per-disk health
  /// One disk's health as the monitor sees it. error_ewma in [0, 1] is
  /// an exponentially-weighted failure rate (alpha 0.25: three straight
  /// failures from clean crosses the quarantine-enter bar, roughly five
  /// straight successes clear it); latency_ewma_ns folds worker-observed
  /// service times of successful jobs.
  struct DiskHealthSnapshot {
    double error_ewma = 0.0;
    double latency_ewma_ns = 0.0;
    uint64_t samples = 0;
    bool quarantined = false;
    /// Permanent failure reported (ReportDiskFailStop): quarantine is
    /// latched — success evidence no longer clears it. Only ForgetDisk
    /// (the rebuild swapping in a spare) retires the record.
    bool fail_stopped = false;
    /// A RebuildManager is draining this disk onto a spare right now.
    bool in_rebuild = false;
  };

  /// Evidence feed. Worker-executed tagged jobs report automatically
  /// (result + service time); device-side retry shims (RunWithDiskRetry)
  /// report each failed ATTEMPT, so a head whose faults are absorbed by
  /// retries still accumulates error evidence, and the final success so
  /// a recovered head can leave quarantine. service_ns 0 skips the
  /// latency fold.
  void ReportDiskResult(uint64_t disk_tag, bool ok, uint64_t service_ns = 0);

  /// Permanent-failure evidence: a transfer on `disk_tag` failed with a
  /// non-transient Status after the retry plane was exhausted (or with
  /// no retry plane at all). Saturates the error EWMA and latches
  /// quarantine — a fail-stopped head never leaves quarantine through
  /// success evidence; only ForgetDisk (rebuild swap) retires it.
  /// RunWithDiskRetry calls this automatically on final permanent
  /// failures.
  void ReportDiskFailStop(uint64_t disk_tag);

  /// Mark/unmark a disk as being drained onto a spare (RebuildManager
  /// brackets its drain with this); pure introspection, visible in
  /// DiskHealth/HealthSnapshot.
  void SetDiskRebuilding(uint64_t disk_tag, bool rebuilding);

  /// Drop one disk's health record and route labels entirely — the
  /// rebuild swapped a spare in for this tag and the dead head's record
  /// must not shadow the spare's clean one.
  void ForgetDisk(uint64_t disk_tag);

  DiskHealthSnapshot DiskHealth(uint64_t disk_tag) const;
  bool DiskQuarantined(uint64_t disk_tag) const;
  size_t quarantined_disks() const;

  /// All tracked disks' health in one locked pass (bench/CLI
  /// introspection; also the one-shot quarantine view placement cycles
  /// snapshot so a flapping head cannot split one cycle across
  /// inconsistent per-allocation queries).
  std::map<uint64_t, DiskHealthSnapshot> HealthSnapshot() const;

  /// Tags currently quarantined, in one locked pass.
  std::vector<uint64_t> QuarantinedTagsSnapshot() const;

  /// DepthGauge: quarantine state of the disk labeled `route` (false for
  /// route 0 / unlabeled routes), and whether ANY disk is quarantined.
  bool RouteQuarantined(uint64_t route) const override;
  bool AnyQuarantined() const override;

  // Quarantine hysteresis on error_ewma.
  static constexpr double kQuarantineEnter = 0.5;
  static constexpr double kQuarantineExit = 0.15;

 private:
  IoEngine(size_t num_threads, size_t disk_inflight_cap, IoBackend backend,
           uint64_t deadline_ms);

  void WorkerLoop();

  struct Job {
    Ticket ticket;
    uint64_t disk;
    bool retryable = false;
    std::function<Status()> op;
  };
  struct DiskHealthState {
    double error_ewma = 0.0;
    double latency_ewma_ns = 0.0;
    uint64_t samples = 0;
    bool quarantined = false;
    bool fail_stopped = false;
    bool in_rebuild = false;
  };
  struct DiskQueue {
    std::deque<Job> queue;
    size_t in_flight = 0;
    double ewma_service_ns = 0.0;
  };

  /// Pop the next runnable job under mu_: untagged FIFO first, then
  /// round-robin over disk queues with in-flight < cap. False when
  /// nothing is runnable (queues empty or every pending disk capped).
  bool PickJob(Job* out);
  /// Any job runnable right now (under mu_)?
  bool Runnable() const;
  // Nonempty-queue bookkeeping (under mu_): Wait's self-steal scan is
  // O(1) in the common cases (no tagged backlog, or a single hot disk)
  // instead of touching every disk queue.
  void NotePushed(uint64_t disk, const DiskQueue& dq);
  void NotePopped(const DiskQueue& dq);
  double HeadroomLocked() const;
  double DiskHeadroomLocked(uint64_t disk_tag) const;
  /// Run a job outside the lock, applying the engine retry policy to
  /// retryable jobs (failed attempts feed the job's disk health).
  Status ExecuteJob(const Job& job);
  /// Fold one result into a disk's health state and flip quarantine at
  /// the hysteresis bars (under mu_). service_ns 0 skips the latency
  /// fold (device-side attempt evidence carries no clean timing).
  void FoldHealthLocked(uint64_t disk_tag, bool ok, uint64_t service_ns);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: job runnable/stop
  std::condition_variable done_cv_;  // signals waiters: a job completed
  std::deque<Job> queue_;            // untagged jobs
  std::map<uint64_t, DiskQueue> disk_queues_;
  uint64_t rr_disk_ = 0;  // round-robin cursor: last disk served
  size_t queued_count_ = 0;
  size_t busy_workers_ = 0;
  size_t disk_inflight_cap_;
  // Count of disk queues with pending (queued) jobs, plus the tag of the
  // one pushed most recently: when exactly one queue is nonempty (the
  // common steal shape — one device streaming), Wait jumps straight to
  // it instead of scanning the map.
  size_t nonempty_disk_queues_ = 0;
  uint64_t last_nonempty_disk_ = 0;
  std::map<uint64_t, uint64_t> route_tags_;  // prefetch route -> disk tag
  // Health history outlives DiskQueue entries deliberately: queues are
  // erased when drained (see WorkerLoop), but error evidence must
  // persist across drains or a flaky-but-bursty disk would reset its
  // record between batches. LabelDisk resets a tag's entry, handling
  // recycled device pointers.
  std::map<uint64_t, DiskHealthState> health_;
  size_t quarantined_count_ = 0;
  std::unordered_map<Ticket, Status> done_;
  // Tickets Wait gave up on (watchdog): completions land here instead of
  // done_ and are discarded, so abandoned results neither leak nor
  // satisfy a later stray Wait.
  std::unordered_set<Ticket> abandoned_;
  const uint64_t deadline_ms_;
  uint64_t timeouts_ = 0;
  Ticket next_ticket_ = 1;
  bool stop_ = false;
  IoBackend backend_ = IoBackend::kWorkerPool;
  std::unique_ptr<IoRing> ring_;
  // Mid-run ring degradation: flipped by ReportRingResult after
  // kRingFailureLimit consecutive submission failures. The ring object
  // is never freed while workers may touch it; ring() just stops
  // handing it out.
  std::atomic<bool> ring_disabled_{false};
  std::atomic<uint32_t> ring_failures_{0};
  RetryPolicy* retry_ = nullptr;
  std::vector<std::thread> workers_;
};

}  // namespace vem
