#include "io/memory_arbiter.h"

#include <algorithm>
#include <chrono>

#include "io/io_engine.h"
#include "util/options.h"

namespace vem {

namespace {
uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
/// Same half-life fold the governor uses for its shape history.
double Fold(bool have, double ewma, double sample) {
  return have ? 0.5 * ewma + 0.5 * sample : sample;
}
}  // namespace

MemoryArbiter::MemoryArbiter(Config cfg, Clock clock)
    : cfg_(cfg), clock_(clock ? std::move(clock) : Clock(&SteadyNowNs)) {
  if (cfg_.block_size == 0) cfg_.block_size = 4096;
  if (cfg_.step_blocks == 0) cfg_.step_blocks = 1;
  if (cfg_.window_accesses == 0) cfg_.window_accesses = 1;
  if (cfg_.min_pool_frames == 0) cfg_.min_pool_frames = 1;
  total_blocks_ = std::max<size_t>(cfg_.budget_bytes / cfg_.block_size, 8);
}

MemoryArbiter::MemoryArbiter(const Options& opts, Clock clock)
    : MemoryArbiter(ConfigFromOptions(opts), std::move(clock)) {}

MemoryArbiter::Config MemoryArbiter::ConfigFromOptions(const Options& opts) {
  Config cfg;
  cfg.budget_bytes = opts.memory_budget;
  cfg.block_size = opts.block_size != 0 ? opts.block_size : 4096;
  size_t blocks = std::max<size_t>(cfg.budget_bytes / cfg.block_size, 8);
  // One step moves 1/32 of M (at least one block): big enough that the
  // split converges within a few windows, small enough not to thrash.
  cfg.step_blocks = std::max<size_t>(blocks / 32, 1);
  return cfg;
}

size_t MemoryArbiter::GrantFromFree(size_t want) {
  size_t free =
      total_blocks_ > charged_blocks_ ? total_blocks_ - charged_blocks_ : 0;
  size_t grant = std::min(want, free);
  charged_blocks_ += grant;
  return grant;
}

void MemoryArbiter::ReleaseLease(size_t* charged, TenantLease* tenant) {
  charged_blocks_ -= *charged;
  tenant->charged_ -= *charged;
  *charged = 0;
}

TenantLease* MemoryArbiter::DefaultTenant() {
  if (default_raw_ == nullptr) {
    default_tenant_.reset(new TenantLease(this, "default", 1.0, 0));
    default_raw_ = default_tenant_.get();
    tenants_.push_back(default_raw_);
  }
  return default_raw_;
}

std::unique_ptr<TenantLease> MemoryArbiter::RegisterTenant(
    const std::string& name, double priority, size_t min_floor_blocks) {
  std::lock_guard<std::mutex> lock(mu_);
  if (floor_reserved_ + min_floor_blocks > total_blocks_) return nullptr;
  if (!(priority > 0.0)) priority = 1.0;
  auto tenant = std::unique_ptr<TenantLease>(
      new TenantLease(this, name, priority, min_floor_blocks));
  floor_reserved_ += min_floor_blocks;
  tenants_.push_back(tenant.get());
  return tenant;
}

void MemoryArbiter::DropTenant(TenantLease* tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  tenants_.erase(std::remove(tenants_.begin(), tenants_.end(), tenant),
                 tenants_.end());
  floor_reserved_ -= tenant->floor_blocks_;
  if (tenant == default_raw_) {
    default_raw_ = nullptr;  // arbiter teardown; no leases may survive it
    return;
  }
  // Leases may outlive their tenant handle: their charges move to the
  // default account so conservation and share math stay whole.
  TenantLease* fallback = nullptr;
  for (PoolLease* p : pools_) {
    if (p->tenant_ != tenant) continue;
    if (fallback == nullptr) fallback = DefaultTenant();
    p->tenant_ = fallback;
    fallback->charged_ += p->charged_;
  }
  for (StagingLease* s : stagings_) {
    if (s->tenant_ != tenant) continue;
    if (fallback == nullptr) fallback = DefaultTenant();
    s->tenant_ = fallback;
    fallback->charged_ += s->charged_;
  }
}

double MemoryArbiter::FairShare(const TenantLease* tenant) const {
  double sum = 0.0;
  for (const TenantLease* t : tenants_) sum += t->priority_;
  double share = sum > 0.0
                     ? double(total_blocks_) * tenant->priority_ / sum
                     : double(total_blocks_);
  return std::max(share, double(tenant->floor_blocks_));
}

double MemoryArbiter::TenantOverage(const TenantLease* tenant) const {
  return double(tenant->charged_) - FairShare(tenant);
}

size_t MemoryArbiter::TenantTargetBlocks(const TenantLease* tenant) const {
  size_t sum = 0;
  for (const PoolLease* p : pools_) {
    if (p->tenant_ == tenant) {
      sum += p->target_.load(std::memory_order_relaxed);
    }
  }
  for (const StagingLease* s : stagings_) {
    if (s->tenant_ == tenant) {
      sum += s->target_.load(std::memory_order_relaxed);
    }
  }
  return sum;
}

void MemoryArbiter::AttachEngine(IoEngine* engine) {
  AttachGauge(engine);  // the engine IS the production depth gauge
}

void MemoryArbiter::AttachGauge(const DepthGauge* gauge) {
  std::lock_guard<std::mutex> lock(mu_);
  gauge_ = gauge;
}

std::unique_ptr<PoolLease> MemoryArbiter::LeasePool(size_t frames,
                                                    TenantLease* tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant == nullptr) tenant = DefaultTenant();
  size_t grant = GrantFromFree(frames);
  auto lease = std::unique_ptr<PoolLease>(new PoolLease(this, tenant, grant));
  tenant->charged_ += grant;
  pools_.push_back(lease.get());
  return lease;
}

std::unique_ptr<StagingLease> MemoryArbiter::LeaseStaging(
    size_t blocks, TenantLease* tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant == nullptr) tenant = DefaultTenant();
  size_t grant = GrantFromFree(blocks);
  auto lease =
      std::unique_ptr<StagingLease>(new StagingLease(this, tenant, grant));
  tenant->charged_ += grant;
  stagings_.push_back(lease.get());
  return lease;
}

namespace {
/// Floor contract: how much `cut` the tenant can absorb before the sum
/// of its lease targets would dip below its guaranteed floor.
size_t ClampCutToFloor(size_t cut, size_t tenant_targets, size_t floor) {
  size_t slack = tenant_targets > floor ? tenant_targets - floor : 0;
  return std::min(cut, slack);
}
}  // namespace

bool MemoryArbiter::TryRevokeStaging() {
  // Victim: a lease with waste evidence — staged-unused history, or an
  // idle budget (streams hold less than half the target: scans are not
  // using what they own). Candidates are ordered by their tenant's
  // proportional-share deficit: the tenant furthest OVER its fair share
  // sheds first, so a late-arriving tenant still under its share is
  // never the victim while an incumbent squats above its own. Ties
  // (same tenant, or equal overage) prefer the largest target.
  StagingLease* victim = nullptr;
  double victim_over = 0.0;
  for (StagingLease* s : stagings_) {
    size_t target = s->target_.load(std::memory_order_relaxed);
    if (target <= cfg_.min_staging_blocks) continue;
    bool wasteful = s->waste_ewma_ >= cfg_.staging_waste_reclaim;
    bool idle = s->last_staged_ * 2 <= target;
    if (!wasteful && !idle) continue;
    if (TenantTargetBlocks(s->tenant_) <= s->tenant_->floor_blocks_) {
      continue;  // the floor guarantee has no slack left
    }
    double over = TenantOverage(s->tenant_);
    if (victim == nullptr || over > victim_over ||
        (over == victim_over &&
         target > victim->target_.load(std::memory_order_relaxed))) {
      victim = s;
      victim_over = over;
    }
  }
  if (victim == nullptr) return false;
  uint64_t now = now_ns();
  if (cfg_.min_revoke_gap_ns != 0 &&
      now - victim->tenant_->last_staging_revoke_ns_ <
          cfg_.min_revoke_gap_ns) {
    return false;
  }
  victim->tenant_->last_staging_revoke_ns_ = now;
  size_t target = victim->target_.load(std::memory_order_relaxed);
  size_t cut = std::min(cfg_.step_blocks, target - cfg_.min_staging_blocks);
  cut = ClampCutToFloor(cut, TenantTargetBlocks(victim->tenant_),
                        victim->tenant_->floor_blocks_);
  if (cut == 0) return false;
  size_t next = target - cut;
  victim->target_.store(next, std::memory_order_relaxed);
  // The charge follows the staging actually held: an idle lease frees
  // blocks immediately, a busy one keeps them charged until the governor
  // sheds and reports.
  size_t still =
      std::min(std::max(next, victim->last_staged_), victim->charged_);
  if (still < victim->charged_) {
    charged_blocks_ -= victim->charged_ - still;
    victim->tenant_->charged_ -= victim->charged_ - still;
    victim->charged_ = still;
  }
  staging_sheds_++;
  return true;
}

bool MemoryArbiter::TryRevokePool() {
  // Victim: a cold lease above its floor, ordered by the tenant's
  // proportional-share deficit (see TryRevokeStaging); ties prefer
  // more cold evidence (a short-lived scratch pool does not shadow the
  // main one).
  PoolLease* victim = nullptr;
  double victim_over = 0.0;
  for (PoolLease* p : pools_) {
    size_t target = p->target_.load(std::memory_order_relaxed);
    size_t floor = std::max(cfg_.min_pool_frames, p->last_pinned_);
    if (target <= floor) continue;
    if (p->cold_ewma_ < cfg_.pool_cold_fraction) continue;
    if (TenantTargetBlocks(p->tenant_) <= p->tenant_->floor_blocks_) {
      continue;  // the floor guarantee has no slack left
    }
    double over = TenantOverage(p->tenant_);
    if (victim == nullptr || over > victim_over ||
        (over == victim_over && p->cold_ewma_ > victim->cold_ewma_)) {
      victim = p;
      victim_over = over;
    }
  }
  if (victim == nullptr) return false;
  uint64_t now = now_ns();
  if (cfg_.min_revoke_gap_ns != 0 &&
      now - victim->tenant_->last_pool_revoke_ns_ < cfg_.min_revoke_gap_ns) {
    return false;
  }
  victim->tenant_->last_pool_revoke_ns_ = now;
  size_t target = victim->target_.load(std::memory_order_relaxed);
  size_t floor = std::max(cfg_.min_pool_frames, victim->last_pinned_);
  size_t cut = std::min(cfg_.step_blocks, target - floor);
  cut = ClampCutToFloor(cut, TenantTargetBlocks(victim->tenant_),
                        victim->tenant_->floor_blocks_);
  if (cut == 0) return false;
  victim->target_.store(target - cut, std::memory_order_relaxed);
  // Keep the frames charged until the pool confirms the shed; frames are
  // physical until then.
  pool_sheds_++;
  return true;
}

size_t MemoryArbiter::DoPoolReport(PoolLease* lease, size_t hits,
                                   size_t misses, size_t cold, size_t pinned,
                                   size_t actual) {
  size_t accesses = hits + misses;
  double miss_rate = accesses > 0 ? double(misses) / double(accesses) : 0.0;
  double cold_frac = actual > 0 ? double(cold) / double(actual) : 0.0;
  lease->miss_ewma_ = Fold(lease->have_history_, lease->miss_ewma_, miss_rate);
  lease->cold_ewma_ = Fold(lease->have_history_, lease->cold_ewma_, cold_frac);
  lease->have_history_ = true;
  lease->last_pinned_ = pinned;
  // Reconcile the charge with what the pool physically holds (it may
  // still be above a lowered target). Charges only ever RISE through
  // grants from free headroom — reconciliation can release, never
  // overcommit, so sum(charged) <= M is unconditional.
  size_t target = lease->target_.load(std::memory_order_relaxed);
  size_t owed = std::min(std::max(target, actual), lease->charged_);
  if (owed < lease->charged_) {
    charged_blocks_ -= lease->charged_ - owed;
    lease->tenant_->charged_ -= lease->charged_ - owed;
    lease->charged_ = owed;
  }
  if (lease->miss_ewma_ >= cfg_.pool_grow_miss_rate) {
    // Miss evidence: the working set does not fit. Raise the target one
    // step — new charge is drawn from free headroom only for the part
    // not already covered (a revoked-but-unshed lease keeps its frames
    // charged, so un-revoking them is free). Keeps the global charge
    // equal to the sum of lease charges. When nothing can be granted,
    // put the squeeze on wasteful staging and grow once it drains.
    size_t new_target = target + cfg_.step_blocks;
    size_t need =
        new_target > lease->charged_ ? new_target - lease->charged_ : 0;
    size_t charge = GrantFromFree(need);
    lease->tenant_->charged_ += charge;
    size_t granted =
        std::min(cfg_.step_blocks, lease->charged_ + charge - target);
    if (granted > 0) {
      lease->target_.store(target + granted, std::memory_order_relaxed);
      lease->charged_ = std::max(lease->charged_, target + granted);
      pool_grows_++;
      pool_pressure_ = false;
    } else {
      // One reclaim step per denied grow: when the immediate revocation
      // lands, relief is already on its way and the pressure flag stays
      // clear; only a failed attempt arms the other side's callback.
      denied_grows_++;
      pool_pressure_ = !TryRevokeStaging();
    }
  } else if (staging_pressure_) {
    // Scans are starved and this pool is not missing: shed cold frames.
    if (TryRevokePool()) staging_pressure_ = false;
  }
  return lease->target_.load(std::memory_order_relaxed);
}

void MemoryArbiter::DoPoolConfirm(PoolLease* lease, size_t actual) {
  size_t target = lease->target_.load(std::memory_order_relaxed);
  size_t owed = std::min(std::max(target, actual), lease->charged_);
  if (owed < lease->charged_) {
    charged_blocks_ -= lease->charged_ - owed;
    lease->tenant_->charged_ -= lease->charged_ - owed;
    lease->charged_ = owed;
  }
}

size_t MemoryArbiter::DoStagingGrow(StagingLease* lease, size_t want) {
  // Depth-aware shaping: scale the request by the engine's submission
  // headroom. Stall evidence while every worker is busy with a backlog
  // pending is queueing delay, not missing staging — granting blocks
  // would deepen queues, not hide latency — so zero headroom denies the
  // grow outright and fractional headroom grants a proportional share.
  // Shaped-away memory never arms pool-reclaim pressure (the pool is
  // not at fault; the engine is).
  // Quarantine gate: while any disk is quarantined by the engine's
  // health monitor, staging growth is frozen — deeper read-ahead during
  // a fault episode multiplies traffic that will land on the retry path,
  // and the sick head's wave is the one the deeper window would wait on
  // anyway. The withheld memory stays available to the cache side; the
  // governor re-requests once the quarantine lifts.
  if (gauge_ != nullptr && want > 0 && gauge_->AnyQuarantined()) {
    quarantine_denied_grows_++;
    return 0;
  }
  if (gauge_ != nullptr && want > 0) {
    double h = gauge_->RouteHeadroom(0);
    if (h < 1.0) {
      want = static_cast<size_t>(static_cast<double>(want) * h);
      if (want == 0) {
        saturation_denied_grows_++;
        return 0;
      }
    }
  }
  // See DoPoolReport: new charge only for the part of the raise not
  // already covered by a revoked-but-still-charged lease.
  size_t target = lease->target_.load(std::memory_order_relaxed);
  size_t new_target = target + want;
  size_t need =
      new_target > lease->charged_ ? new_target - lease->charged_ : 0;
  size_t charge = GrantFromFree(need);
  lease->tenant_->charged_ += charge;
  size_t grant = std::min(want, lease->charged_ + charge - target);
  if (grant > 0) {
    lease->target_.store(target + grant, std::memory_order_relaxed);
    lease->charged_ = std::max(lease->charged_, target + grant);
    staging_grows_++;
    staging_pressure_ = false;
  }
  if (grant < want) {
    // Stall evidence with no headroom: one pool-reclaim step now; only
    // a failed attempt arms the pool-side callback (see DoPoolReport).
    // The governor re-requests on its next stalled period.
    denied_grows_++;
    staging_pressure_ = !TryRevokePool();
  }
  return grant;
}

void MemoryArbiter::DoStagingUsage(StagingLease* lease, size_t staged,
                                   double waste, double stall) {
  lease->last_staged_ = staged;
  lease->waste_ewma_ = waste;
  lease->stall_ewma_ = stall;
  size_t target = lease->target_.load(std::memory_order_relaxed);
  size_t owed = std::min(std::max(target, staged), lease->charged_);
  if (owed < lease->charged_) {
    charged_blocks_ -= lease->charged_ - owed;
    lease->tenant_->charged_ -= lease->charged_ - owed;
    lease->charged_ = owed;
  }
  if (pool_pressure_) {
    // The pool is starved; reclaim staging that shows waste or idles.
    if (TryRevokeStaging()) pool_pressure_ = false;
  }
}

// ---------------------------------------------------------------- leases

TenantLease::~TenantLease() { arb_->DropTenant(this); }

size_t TenantLease::charged_blocks() const {
  std::lock_guard<std::mutex> lock(arb_->mu_);
  return charged_;
}

size_t TenantLease::fair_share_blocks() const {
  std::lock_guard<std::mutex> lock(arb_->mu_);
  return static_cast<size_t>(arb_->FairShare(this));
}

PoolLease::~PoolLease() {
  std::lock_guard<std::mutex> lock(arb_->mu_);
  arb_->ReleaseLease(&charged_, tenant_);
  auto& v = arb_->pools_;
  v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

size_t PoolLease::ReportWindow(size_t hits, size_t misses, size_t cold_frames,
                               size_t pinned_frames, size_t actual_frames) {
  std::lock_guard<std::mutex> lock(arb_->mu_);
  return arb_->DoPoolReport(this, hits, misses, cold_frames, pinned_frames,
                            actual_frames);
}

void PoolLease::ConfirmFrames(size_t actual_frames) {
  std::lock_guard<std::mutex> lock(arb_->mu_);
  arb_->DoPoolConfirm(this, actual_frames);
}

StagingLease::~StagingLease() {
  std::lock_guard<std::mutex> lock(arb_->mu_);
  arb_->ReleaseLease(&charged_, tenant_);
  auto& v = arb_->stagings_;
  v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

size_t StagingLease::RequestGrow(size_t want_blocks) {
  std::lock_guard<std::mutex> lock(arb_->mu_);
  return arb_->DoStagingGrow(this, want_blocks);
}

void StagingLease::ReportUsage(size_t staged_blocks, double waste_ewma,
                               double stall_ewma) {
  std::lock_guard<std::mutex> lock(arb_->mu_);
  arb_->DoStagingUsage(this, staged_blocks, waste_ewma, stall_ewma);
}

// --------------------------------------------------------- introspection

size_t MemoryArbiter::quarantine_denied_grows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_denied_grows_;
}
size_t MemoryArbiter::charged_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return charged_blocks_;
}
size_t MemoryArbiter::free_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_blocks_ > charged_blocks_ ? total_blocks_ - charged_blocks_
                                         : 0;
}
size_t MemoryArbiter::pool_grows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_grows_;
}
size_t MemoryArbiter::pool_sheds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_sheds_;
}
size_t MemoryArbiter::staging_grows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staging_grows_;
}
size_t MemoryArbiter::staging_sheds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staging_sheds_;
}
size_t MemoryArbiter::denied_grows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return denied_grows_;
}
size_t MemoryArbiter::saturation_denied_grows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return saturation_denied_grows_;
}
size_t MemoryArbiter::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}
size_t MemoryArbiter::floor_reserved_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return floor_reserved_;
}

}  // namespace vem
