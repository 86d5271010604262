// PrefetchGovernor: budget-aware adaptive control of stream prefetch depth.
//
// The survey's prefetching/caching duality says read-ahead depth is a
// resource allocation problem against the memory budget M, not a per-stream
// constant: optimal prefetching is the dual of optimal caching under a
// fixed budget. A fixed Options::prefetch_depth gets this wrong in both
// directions — it over-stages short-lived streams (MR-BFS frontiers, sweep
// strips) whose windows are mostly thrown away, and it lets K-deep arming
// multiply unchecked across streams (an external PQ with R live runs stages
// 2*K*R blocks with no cap).
//
// The governor owns a global staging budget (in blocks, derived from
// Options) and hands out depth as revocable leases:
//  - streams Arm() on creation and get a granted depth (possibly smaller
//    than requested, possibly 0 = stay synchronous) charged against the
//    budget at 2*depth blocks (double-buffered windows);
//  - per consumed window the stream reports how many staged blocks were
//    consumed vs dropped unused, and whether the consumer stalled waiting
//    for an in-flight fill (EndWait measured against the governor clock);
//  - the governor grows depth on streams that stall (latency not yet
//    hidden — deeper windows help), shrinks-to-disarms streams that waste
//    their staging (no overlap benefit), and gently sheds depth under
//    budget pressure so stalling streams can grow;
//  - a global waste EWMA remembers how past leases on this device behaved,
//    so workloads made of many short-lived streams (one BFS frontier
//    reader per level) stop arming after the first few wasteful ones —
//    with a deterministic probe every Nth refusal so a phase change can
//    re-arm.
//
// Invariant: the governor only ever changes *depth*, and depth is a pure
// wall-clock knob — IoStats are charged at consumption time whatever the
// depth (see block_device.h), so counters stay bit-identical with the
// governor attached or not.
//
// Threading: Arm/adapt/close take an internal mutex (streams on several
// threads may share one governor); each Lease itself must be used from a
// single consumer thread, like the stream that owns it. The injectable
// clock makes decisions deterministic under test (pass a fake clock and
// drive it manually).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

namespace vem {

struct Options;
class DepthGauge;
class IoEngine;
class MemoryArbiter;
class StagingLease;
class TenantLease;

/// Global staging-memory arbiter for prefetching streams on one device
/// (or one family of devices sharing a block size).
class PrefetchGovernor {
 public:
  /// Policy knobs. Defaults are what the benches ship with; unit tests
  /// pin them explicitly.
  struct Config {
    /// Global staging budget in blocks; an armed stream holds 2*depth.
    size_t budget_blocks = 256;
    /// Depth floor for armed streams: below this, disarm entirely.
    size_t min_depth = 2;
    /// Depth ceiling per stream.
    size_t max_depth = 64;
    /// Fresh arms start at most this deep regardless of the request:
    /// depth is earned by stall evidence, not granted up front. Keeps
    /// the fixed per-stream arming cost (window allocation, speculative
    /// fetch of blocks a short stream never reads) small on streams that
    /// die young, while stall-bound streams double past it within a few
    /// adaptation periods.
    size_t initial_depth = 4;
    /// Completed windows per adaptation decision.
    size_t adapt_windows = 4;
    /// Consumer waits longer than this (ns, scaled by the blocks moved
    /// for inline fills) count as a stall. The default sits above a
    /// condition-variable wakeup (~2-10us) and below any real device
    /// wait, so warm-cache engine handoffs don't read as stalls.
    uint64_t stall_floor_ns = 20000;
    /// After this many consecutive stall-free adaptation periods the
    /// lease advises inline fills (use_engine() false): the stream keeps
    /// its coalesced vectored transfers but stops paying the engine
    /// round-trip per window. Inline fills stay stall-bracketed, so a
    /// phase change back to device-bound turns the engine back on.
    size_t engine_off_periods = 2;
    /// Refuse fresh arms while the global waste EWMA exceeds this.
    double waste_disarm_ewma = 0.6;
    /// Refuse fresh arms while recent leases both died young (lifetime
    /// below adapt_windows) and never stalled: a workload phase of
    /// short-lived streams on a fast cache (BFS frontier readers, sweep
    /// strips) pays the fixed arming cost with no latency to hide.
    /// Stall fraction below this counts as "never stalls".
    double stall_benefit_floor = 0.25;
    /// Every Nth history-refused arm is granted min_depth anyway, so a
    /// workload phase change can win its depth back.
    size_t probe_every = 8;
  };

  /// Nanosecond monotonic clock; injectable for deterministic tests.
  using Clock = std::function<uint64_t()>;

  explicit PrefetchGovernor(Config cfg, Clock clock = nullptr);

  /// Convenience: policy derived from the machine configuration. The
  /// budget is half of memory_budget — the same "staging competes with
  /// the algorithm's working set" split the PQ and sorter use for their
  /// run buffers. A different budget is a Config::budget_blocks.
  explicit PrefetchGovernor(const Options& opts, Clock clock = nullptr);
  static Config ConfigFromOptions(const Options& opts);

  PrefetchGovernor(const PrefetchGovernor&) = delete;
  PrefetchGovernor& operator=(const PrefetchGovernor&) = delete;
  ~PrefetchGovernor();

  /// Lease renegotiation: turn the fixed staging budget into a revocable
  /// lease on `arb`'s shared M. From here on the governor adopts the
  /// arbiter's target at every Arm/Adapt boundary (a lowered target
  /// triggers the usual pressure shedding), asks the arbiter for more
  /// budget when stall evidence wants growth the current budget cannot
  /// fit, and pushes its staged/waste/stall shape so idle or wasteful
  /// staging can be reclaimed for the cache side. The arbiter must
  /// outlive this governor. `tenant` names the account the staging
  /// lease charges against (null = the arbiter's default tenant).
  void AttachArbiter(MemoryArbiter* arb, TenantLease* tenant = nullptr);

  /// Depth-aware grant shaping: with an engine attached, arms and depth
  /// grows are scaled by the submission headroom of the lease's own disk
  /// (IoEngine::RouteHeadroom) — full headroom grants the full doubling,
  /// zero headroom (every worker busy with a backlog pending) holds
  /// depth entirely, and fractional headroom grants a proportional
  /// share. Deeper windows only lengthen the queues when the workers
  /// are the bottleneck; the stall evidence that wanted the grow is the
  /// queue's fault, not the depth's. The engine must outlive this
  /// governor. Never affects IoStats (depth is a wall-clock knob).
  void AttachEngine(IoEngine* engine);

  /// Same shaping, driven by any DepthGauge (tests inject fakes so the
  /// shaping curve is deterministic). AttachEngine is AttachGauge with
  /// the engine as the gauge. The gauge must outlive this governor.
  void AttachGauge(const DepthGauge* gauge);

  /// One stream's claim on staging memory. Destroying the lease releases
  /// its budget and folds its waste history into the governor. The
  /// governor must outlive every lease it issued.
  class Lease {
   public:
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// Currently granted depth; 0 means disarmed (run synchronous). May
    /// change at each ReportWindow — streams re-read it when starting the
    /// next window fill.
    size_t depth() const { return depth_; }
    bool armed() const { return depth_ > 0; }

    /// Bracket a blocking wait: call BeginWait just before an engine
    /// Wait (or an inline window fill), EndWait right after. Waits
    /// longer than the configured floor times `blocks` mark the next
    /// reported window as stalled — pass the block count for inline
    /// fills so cheap page-cache transfers don't read as stalls.
    uint64_t BeginWait() const;
    void EndWait(uint64_t began_ns, size_t blocks = 1);

    /// Whether fills should go through the IoEngine (background overlap)
    /// or run inline (coalescing only). The governor turns the engine
    /// off for streams that never stall and back on at the first stall.
    bool use_engine() const { return use_engine_; }

    /// Report one retired window: `consumed` staged blocks were actually
    /// entered by the stream, `unused` were staged but dropped. Triggers
    /// an adaptation decision every adapt_windows reports.
    void ReportWindow(size_t consumed, size_t unused);

   private:
    friend class PrefetchGovernor;
    explicit Lease(PrefetchGovernor* gov, size_t depth)
        : gov_(gov), depth_(depth) {}

    PrefetchGovernor* gov_;
    size_t depth_;
    uint64_t route_ = 0;  // placement route (per-disk history bucket)
    // Current adaptation period (lease-local; consumer thread only —
    // Adapt runs inside this lease's own ReportWindow call).
    size_t windows_ = 0;
    size_t stalled_windows_ = 0;
    size_t consumed_blocks_ = 0;
    size_t unused_blocks_ = 0;
    size_t stall_free_periods_ = 0;
    bool pending_stall_ = false;
    bool use_engine_ = true;
    // Whole-lifetime shape, folded into governor history on close.
    size_t lifetime_windows_ = 0;
    bool ever_stalled_ = false;
  };

  /// Lease staging for a stream that wants `requested_depth`-block
  /// windows. The grant is clamped to [min_depth, max_depth], shrunk to
  /// what the budget allows, and may be 0 (history of waste or budget
  /// exhausted) — callers run synchronous then. Never returns null.
  ///
  /// `route` buckets the lease's waste/stall history: streams pass their
  /// device's PrefetchRoute (per-disk on an IndependentDiskDevice), so a
  /// wasteful phase on one disk stops arming only that disk's streams —
  /// the other heads keep their depth. Each route is judged solely on
  /// its own record: a route with no history yet arms optimistically
  /// (initial_depth keeps that experiment cheap) and earns its own
  /// shape. 0 is the unrouted bucket — all pre-existing devices land
  /// there, so their behavior is unchanged.
  std::unique_ptr<Lease> Arm(size_t requested_depth, uint64_t route = 0);

  // ------------------------------------------------------ introspection
  size_t budget_blocks() const;    ///< current staging budget (may track
                                   ///< an arbiter lease)
  size_t staged_blocks() const;    ///< blocks currently leased
  size_t arms_granted() const;     ///< leases granted depth > 0
  size_t arms_refused() const;     ///< leases granted 0
  size_t grow_decisions() const;
  size_t shrink_decisions() const;
  size_t disarm_decisions() const;
  size_t quarantine_disarms() const;  ///< arms refused / leases disarmed
                                      ///< because the route's disk is
                                      ///< quarantined by the health monitor
  double waste_ewma() const;       ///< global staged-unused history [0,1]
  double stall_ewma() const;       ///< fraction of recent leases that stalled
  double lease_windows_ewma() const;  ///< typical lease lifetime (windows)
  size_t saturation_skips() const; ///< grows held: no submission headroom

  /// Per-route history shape (tests, benches). Zeroes for an unseen route.
  struct RouteShape {
    double waste_ewma = 0.0;
    double stall_ewma = 0.0;
    double lease_windows_ewma = 0.0;
    bool have_history = false;
    bool have_lease_history = false;
  };
  RouteShape route_shape(uint64_t route) const;

  uint64_t now_ns() const { return clock_(); }

 private:
  /// Adopt the arbiter's current staging target (no-op detached); under
  /// mu_. Returns the budget in force.
  size_t ReconcileBudget();
  /// Push staged/waste/stall shape to the arbiter (no-op detached);
  /// under mu_.
  void PushUsage();
  /// Adaptation decision for one lease's completed period; called with
  /// the period counters, under mu_.
  void Adapt(Lease* lease);
  /// Fold a finished period's waste fraction into the global EWMA and
  /// the lease's route history.
  void FoldHistory(size_t consumed, size_t unused, uint64_t route);
  /// Release a lease's staging and absorb its unfinished period.
  void Close(Lease* lease);

  /// Per-route history (same formulas as the global EWMAs, bucketed).
  struct RouteState {
    double waste_ewma = 0.0;
    double stall_ewma = 0.0;
    double lease_windows_ewma = 0.0;
    bool have_history = false;
    bool have_lease_history = false;
    size_t refusals_since_probe = 0;
  };

  Config cfg_;
  Clock clock_;
  mutable std::mutex mu_;
  std::unique_ptr<StagingLease> staging_lease_;  // null = fixed budget
  // Optional headroom gauge for grant shaping (not owned). AttachEngine
  // installs the engine itself (IoEngine is a DepthGauge); tests install
  // fakes. Null = unshaped grants.
  const DepthGauge* gauge_ = nullptr;
  size_t staged_blocks_ = 0;
  size_t arms_granted_ = 0;
  size_t arms_refused_ = 0;
  size_t grow_decisions_ = 0;
  size_t shrink_decisions_ = 0;
  size_t disarm_decisions_ = 0;
  size_t saturation_skips_ = 0;
  size_t quarantine_disarms_ = 0;
  double waste_ewma_ = 0.0;
  double stall_ewma_ = 0.0;
  double lease_windows_ewma_ = 0.0;
  bool have_history_ = false;
  bool have_lease_history_ = false;
  std::map<uint64_t, RouteState> routes_;
};

}  // namespace vem
