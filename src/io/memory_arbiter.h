// MemoryArbiter: one budget for caching frames and prefetch staging.
//
// Vitter's PDM charges every layer against a single internal memory M,
// but until now the repo split M in two fixed halves: BufferPool frames
// for the random-access structures (B+-tree, hash table, matrix/FFT
// tiles, graph offsets) and the PrefetchGovernor's staging budget for
// scans. The survey treats caching and prefetching as ONE resource-
// allocation problem — read-ahead depth and cache residency compete for
// the same M — so the split should move with the workload: scans steal
// frames from a cold pool, a probe-heavy index steals staging from idle
// scans.
//
// The arbiter is a pure accountant plus a small evidence-driven policy:
//  - both sides hold *revocable leases* in blocks of M. A PoolLease backs
//    a resizable BufferPool (frames); a StagingLease backs a governor's
//    staging budget. lease targets always satisfy
//        sum(charged) <= M/block_size        (budget conservation)
//  - the pool reports access windows (hits, misses, cold frames, pinned
//    frames); a high miss rate is GROW evidence, a high cold fraction is
//    WASTE (shed-candidate) evidence;
//  - the governor reports staged usage and its waste/stall EWMAs; a
//    stall-capped grow request is GROW evidence, staged-unused history or
//    an idle (mostly unstaged) budget is WASTE evidence;
//  - growth is granted from free headroom first; when there is none, the
//    arbiter revokes from whichever side currently shows waste by
//    lowering that side's target. Clients apply new targets at their own
//    safe points (the pool at window boundaries, the governor at
//    Arm/Adapt), so the arbiter never calls into a client and never
//    performs I/O — arbitration moves memory, never I/O charging.
//
// Invariant: IoStats stay bit-identical with the arbiter on or off. Scan
// staging already has this property (depth is a wall-clock knob; blocks
// are charged at consumption). The pool gets it from ghost charging (see
// buffer_pool.h): an arbitrated pool charges the PDM cost its *baseline*
// capacity would have paid while transfers ride the uncounted plane.
//
// Multi-tenant mode: the arbiter is also the resource plane for a
// SERVING system — one machine M shared fairly across N concurrent
// clients. RegisterTenant(name, priority, min_floor) returns a
// TenantLease; pool and staging leases opened against a tenant charge
// that tenant's account. Reclaim is proportional-share: when one side
// must shed, victims are ordered by how far their tenant sits ABOVE its
// fair share (total * priority / sum-of-priorities), so an index pool
// under its share is never robbed to feed a scratch tile pool over
// its own, and a late-arriving tenant (charged below share) wins memory
// from incumbents instead of starving. A tenant's floor is a guarantee:
// revocation never cuts the sum of its lease targets below min_floor,
// and RegisterTenant refuses (returns null) when the sum of floors
// would oversubscribe M — the refusal AdmissionController (see
// serve/admission.h) turns into queueing or Status::Busy sheds.
// Revocations stay clock-rate-limited, now PER TENANT: one thrashing
// tenant cannot spend the whole machine's revocation budget.
//
// Threading: every lease method takes the arbiter mutex and never a
// client lock; clients call in under their own locks (lock order: client
// before arbiter, always). The injectable clock pins the revocation
// rate-limit in deterministic tests, like prefetch_governor_test.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/buffer_pool.h"
#include "io/prefetch_governor.h"
#include "util/status.h"

namespace vem {

struct Options;
class DepthGauge;
class IoEngine;
class MemoryArbiter;
class TenantLease;

/// One tenant's registration with the arbiter: an identity (for stats
/// and diagnostics), a priority weight (its slice of M under
/// proportional-share reclaim), and a guaranteed floor in blocks that
/// revocation never crosses. Pool and staging leases opened with a
/// tenant charge that tenant's account; the default constructor-less
/// tenant (used by tenantless leases) has priority 1 and no floor —
/// whole-M share when it is alone.
/// Destroying the tenant releases its floor reservation; any leases
/// still open against it are re-pointed at the default tenant, so the
/// tenant handle may be dropped before (or after) its leases.
class TenantLease {
 public:
  ~TenantLease();
  TenantLease(const TenantLease&) = delete;
  TenantLease& operator=(const TenantLease&) = delete;

  const std::string& name() const { return name_; }
  double priority() const { return priority_; }
  size_t floor_blocks() const { return floor_blocks_; }
  /// Blocks currently charged to this tenant across all its leases.
  size_t charged_blocks() const;
  /// This tenant's proportional share of M right now:
  /// total * priority / sum(priorities of registered tenants), never
  /// below the tenant's floor.
  size_t fair_share_blocks() const;

 private:
  friend class MemoryArbiter;
  friend class PoolLease;
  friend class StagingLease;
  TenantLease(MemoryArbiter* arb, std::string name, double priority,
              size_t floor_blocks)
      : arb_(arb), name_(std::move(name)), priority_(priority),
        floor_blocks_(floor_blocks) {}

  MemoryArbiter* arb_;
  std::string name_;
  double priority_;
  size_t floor_blocks_;
  // All under the arbiter mutex.
  size_t charged_ = 0;  // sum of member lease charges
  uint64_t last_pool_revoke_ns_ = 0;
  uint64_t last_staging_revoke_ns_ = 0;
};

/// One BufferPool's claim on M, in frames (= blocks). The pool reports
/// access windows and follows the returned target; the arbiter keeps
/// charging frames the pool could not shed (pinned/dirty floor) until a
/// later window confirms the release.
class PoolLease {
 public:
  ~PoolLease();
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  /// Current target frame count. Lock-free read; the pool re-reads it at
  /// window boundaries.
  size_t target_frames() const { return target_.load(std::memory_order_relaxed); }

  /// Report one completed access window and learn the new target:
  /// `hits`/`misses` over the window, `cold_frames` valid+unpinned+
  /// unreferenced frames, `pinned_frames` the shed floor, `actual_frames`
  /// what the pool physically holds right now. Returns the frame target
  /// the pool should resize toward.
  size_t ReportWindow(size_t hits, size_t misses, size_t cold_frames,
                      size_t pinned_frames, size_t actual_frames);

  /// Tell the arbiter what the pool actually holds after applying a
  /// target (a shed can fall short of the target when frames are pinned
  /// or dirty): the charge is released down to max(target, actual).
  /// Charges only ever rise through grants from free headroom, so a
  /// physical overshoot past the charge (the pool's emergency frames
  /// for pins the baseline admits, or a manual Resize) is deliberately
  /// NOT billed — it is transient, bounded by the pinned set, and shed
  /// at the next window.
  void ConfirmFrames(size_t actual_frames);

 private:
  friend class MemoryArbiter;
  PoolLease(MemoryArbiter* arb, TenantLease* tenant, size_t frames)
      : arb_(arb), tenant_(tenant), target_(frames), charged_(frames) {}

  MemoryArbiter* arb_;
  TenantLease* tenant_;  // account the charge lands on (never null)
  std::atomic<size_t> target_;
  size_t charged_;  // frames counted against M (>= max(target, actual))
  // Evidence EWMAs, folded per reported window (under the arbiter mutex).
  double miss_ewma_ = 0.0;
  double cold_ewma_ = 0.0;
  bool have_history_ = false;
  size_t last_pinned_ = 0;
};

/// One PrefetchGovernor's claim on M, in blocks. The governor adopts the
/// target as its staging budget at Arm/Adapt boundaries, asks for more on
/// stall evidence, and pushes its usage so idle or wasteful staging can
/// be reclaimed for the pool.
class StagingLease {
 public:
  ~StagingLease();
  StagingLease(const StagingLease&) = delete;
  StagingLease& operator=(const StagingLease&) = delete;

  /// Current staging budget target in blocks. Lock-free read.
  size_t target_blocks() const { return target_.load(std::memory_order_relaxed); }

  /// Stall-capped growth: the governor wants `want_blocks` more staging.
  /// Returns the extra blocks granted (possibly 0); the target already
  /// includes them. A denied request arms pool-reclaim pressure.
  size_t RequestGrow(size_t want_blocks);

  /// Push usage after an adaptation decision or lease close:
  /// `staged_blocks` currently held by streams, plus the governor's
  /// global waste and stall EWMAs (the reclaim evidence).
  void ReportUsage(size_t staged_blocks, double waste_ewma,
                   double stall_ewma);

 private:
  friend class MemoryArbiter;
  StagingLease(MemoryArbiter* arb, TenantLease* tenant, size_t blocks)
      : arb_(arb), tenant_(tenant), target_(blocks), charged_(blocks) {}

  MemoryArbiter* arb_;
  TenantLease* tenant_;  // account the charge lands on (never null)
  std::atomic<size_t> target_;
  size_t charged_;  // blocks counted against M (>= max(target, staged))
  size_t last_staged_ = 0;
  double waste_ewma_ = 0.0;
  double stall_ewma_ = 0.0;
};

/// Global accountant for one machine's internal memory M.
class MemoryArbiter {
 public:
  /// Policy knobs. Defaults are what a standalone ExecutionContext ships
  /// with; unit tests pin them explicitly.
  struct Config {
    /// Total internal memory (PDM M), in bytes.
    size_t budget_bytes = 1u << 20;
    /// Bytes per block/frame.
    size_t block_size = 4096;
    /// Pool frames never drop below this (nor below the pinned set).
    size_t min_pool_frames = 4;
    /// Staging never drops below this many blocks.
    size_t min_staging_blocks = 8;
    /// Blocks moved per decision (one grow or one revocation step).
    size_t step_blocks = 8;
    /// Pool accesses per reported window (the pool's decision cadence).
    size_t window_accesses = 64;
    /// Window miss rate at or above this is pool-grow evidence.
    double pool_grow_miss_rate = 0.25;
    /// Cold-frame fraction at or above this marks the pool a reclaim
    /// victim while scans are starved.
    double pool_cold_fraction = 0.5;
    /// Governor waste EWMA at or above this marks staging a reclaim
    /// victim while the pool is starved.
    double staging_waste_reclaim = 0.5;
    /// Minimum time between revocations of the SAME side (anti-thrash);
    /// growth from free headroom is never rate-limited.
    uint64_t min_revoke_gap_ns = 0;
  };

  /// Nanosecond monotonic clock; injectable for deterministic tests.
  using Clock = std::function<uint64_t()>;

  explicit MemoryArbiter(Config cfg, Clock clock = nullptr);
  /// Policy derived from the machine configuration (M, block size).
  explicit MemoryArbiter(const Options& opts, Clock clock = nullptr);
  static Config ConfigFromOptions(const Options& opts);

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  /// Depth-aware grow shaping: with an engine attached, staging grow
  /// requests are scaled by the engine's submission headroom — full
  /// headroom grants the full request, zero headroom (every worker busy
  /// with a backlog pending) denies it outright, fractional headroom
  /// grants a proportional share. Granting more staging memory cannot
  /// help when the workers, not the depth, are the bottleneck, and the
  /// withheld memory stays available to the cache side. The engine must
  /// outlive this arbiter.
  void AttachEngine(IoEngine* engine);

  /// Same shaping from any DepthGauge (tests inject fakes). AttachEngine
  /// is AttachGauge with the engine as the gauge; the whole-engine
  /// headroom (route 0) shapes staging grows. The gauge must outlive
  /// this arbiter.
  void AttachGauge(const DepthGauge* gauge);

  /// Register a tenant: `priority` weights its proportional share of M
  /// (clamped to > 0), `min_floor_blocks` is a guaranteed minimum that
  /// reclaim never crosses. Returns null when admitting the floor would
  /// oversubscribe M (sum of registered floors > M) — the admission
  /// refusal serve/admission.h turns into queueing or a Busy shed. The
  /// arbiter must outlive the tenant; the tenant may be dropped before
  /// or after the leases opened against it.
  std::unique_ptr<TenantLease> RegisterTenant(const std::string& name,
                                              double priority = 1.0,
                                              size_t min_floor_blocks = 0);

  /// Lease `frames` frames (clamped to free headroom) to a BufferPool,
  /// charged to `tenant` (null = the default tenant). The arbiter must
  /// outlive the lease. Never returns null.
  std::unique_ptr<PoolLease> LeasePool(size_t frames,
                                       TenantLease* tenant = nullptr);

  /// Lease `blocks` of staging (clamped to free headroom) to a governor,
  /// charged to `tenant` (null = the default tenant).
  std::unique_ptr<StagingLease> LeaseStaging(size_t blocks,
                                             TenantLease* tenant = nullptr);

  // ------------------------------------------------------ introspection
  const Config& config() const { return cfg_; }
  size_t total_blocks() const { return total_blocks_; }
  size_t charged_blocks() const;  ///< sum of all lease charges
  size_t free_blocks() const;     ///< total - charged
  size_t window_accesses() const { return cfg_.window_accesses; }
  size_t pool_grows() const;      ///< pool targets raised
  size_t pool_sheds() const;      ///< pool targets lowered (revocations)
  size_t staging_grows() const;   ///< staging targets raised
  size_t staging_sheds() const;   ///< staging targets lowered
  size_t denied_grows() const;    ///< grow requests with no headroom
  size_t saturation_denied_grows() const;  ///< grows shaped away: no headroom
  size_t quarantine_denied_grows() const;  ///< grows denied: a disk is
                                           ///< quarantined by the engine's
                                           ///< health monitor
  size_t tenant_count() const;             ///< registered tenants (incl. the
                                           ///< default once it exists)
  size_t floor_reserved_blocks() const;    ///< sum of registered floors

  uint64_t now_ns() const { return clock_(); }

 private:
  friend class PoolLease;
  friend class StagingLease;
  friend class TenantLease;

  // All under mu_.
  size_t GrantFromFree(size_t want);
  void ReleaseLease(size_t* charged, TenantLease* tenant);
  /// The lazily-created account tenantless leases charge against.
  TenantLease* DefaultTenant();
  /// Unregister: release the floor, re-point surviving leases at the
  /// default tenant (transferring their charges).
  void DropTenant(TenantLease* tenant);
  /// `tenant`'s proportional share of M in blocks, never below its floor.
  double FairShare(const TenantLease* tenant) const;
  /// Blocks charged above (positive) or below (negative) the tenant's
  /// fair share — the proportional-share deficit that orders victims.
  double TenantOverage(const TenantLease* tenant) const;
  /// Sum of `tenant`'s lease TARGETS (the guaranteed-floor ledger; a
  /// revoked-but-unshed lease keeps its charge, but the floor contract
  /// is about what the tenant may keep, i.e. targets).
  size_t TenantTargetBlocks(const TenantLease* tenant) const;
  size_t DoPoolReport(PoolLease* lease, size_t hits, size_t misses,
                      size_t cold, size_t pinned, size_t actual);
  void DoPoolConfirm(PoolLease* lease, size_t actual);
  size_t DoStagingGrow(StagingLease* lease, size_t want);
  void DoStagingUsage(StagingLease* lease, size_t staged, double waste,
                      double stall);
  /// Revoke up to step_blocks from a staging lease showing waste (idle
  /// or staged-unused), ordered by proportional-share deficit: the
  /// most-over-share tenant sheds first, floors and the per-tenant
  /// revocation rate limit respected. True if a target was lowered.
  bool TryRevokeStaging();
  /// Revoke up to step_blocks of cold pool frames, same ordering; true
  /// if lowered.
  bool TryRevokePool();

  Config cfg_;
  Clock clock_;
  mutable std::mutex mu_;
  // Optional headroom gauge for grow shaping (not owned); see
  // AttachGauge. Null = unshaped grows.
  const DepthGauge* gauge_ = nullptr;
  size_t total_blocks_;
  size_t charged_blocks_ = 0;
  // Live leases of each kind; revocation picks the victim showing the
  // most waste. Short-lived leases (one query's context pool) come and
  // go without disturbing the long-lived ones' revocability.
  std::vector<PoolLease*> pools_;
  std::vector<StagingLease*> stagings_;
  // Registered tenants (raw; handles are owned by callers, the default
  // one by default_tenant_ below). Floors sum to floor_reserved_.
  std::vector<TenantLease*> tenants_;
  TenantLease* default_raw_ = nullptr;  // == default_tenant_.get()
  size_t floor_reserved_ = 0;
  bool pool_pressure_ = false;     // pool grow denied by headroom
  bool staging_pressure_ = false;  // staging grow denied by headroom
  size_t pool_grows_ = 0;
  size_t pool_sheds_ = 0;
  size_t staging_grows_ = 0;
  size_t staging_sheds_ = 0;
  size_t denied_grows_ = 0;
  size_t saturation_denied_grows_ = 0;
  size_t quarantine_denied_grows_ = 0;
  // Declared after mu_ so its destructor (which takes mu_) runs first.
  std::unique_ptr<TenantLease> default_tenant_;
};

}  // namespace vem
