#include "io/prefetch_governor.h"

#include <algorithm>
#include <chrono>

#include "io/io_engine.h"
#include "io/memory_arbiter.h"
#include "util/options.h"

namespace vem {

namespace {
uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

PrefetchGovernor::PrefetchGovernor(Config cfg, Clock clock)
    : cfg_(cfg), clock_(clock ? std::move(clock) : Clock(&SteadyNowNs)) {
  if (cfg_.min_depth == 0) cfg_.min_depth = 1;
  if (cfg_.max_depth < cfg_.min_depth) cfg_.max_depth = cfg_.min_depth;
  if (cfg_.initial_depth > cfg_.max_depth) cfg_.initial_depth = cfg_.max_depth;
  if (cfg_.adapt_windows == 0) cfg_.adapt_windows = 1;
  if (cfg_.probe_every == 0) cfg_.probe_every = 1;
}

PrefetchGovernor::PrefetchGovernor(const Options& opts, Clock clock)
    : PrefetchGovernor(ConfigFromOptions(opts), std::move(clock)) {}

PrefetchGovernor::~PrefetchGovernor() = default;

void PrefetchGovernor::AttachArbiter(MemoryArbiter* arb,
                                     TenantLease* tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  staging_lease_ = arb->LeaseStaging(cfg_.budget_blocks, tenant);
  cfg_.budget_blocks = staging_lease_->target_blocks();
}

void PrefetchGovernor::AttachEngine(IoEngine* engine) {
  AttachGauge(engine);  // the engine IS the production depth gauge
}

void PrefetchGovernor::AttachGauge(const DepthGauge* gauge) {
  std::lock_guard<std::mutex> lock(mu_);
  gauge_ = gauge;
}

size_t PrefetchGovernor::ReconcileBudget() {
  if (staging_lease_ != nullptr) {
    cfg_.budget_blocks = staging_lease_->target_blocks();
  }
  return cfg_.budget_blocks;
}

void PrefetchGovernor::PushUsage() {
  if (staging_lease_ != nullptr) {
    staging_lease_->ReportUsage(staged_blocks_, waste_ewma_, stall_ewma_);
  }
}

PrefetchGovernor::Config PrefetchGovernor::ConfigFromOptions(
    const Options& opts) {
  Config cfg;
  size_t bs = opts.block_size != 0 ? opts.block_size : 4096;
  cfg.budget_blocks = std::max<size_t>(opts.memory_budget / 2 / bs, 4);
  // No single stream may claim more than half the budget (2*depth of a
  // quarter), so at least two streams can always overlap.
  cfg.max_depth =
      std::clamp<size_t>(cfg.budget_blocks / 4, cfg.min_depth, 64);
  return cfg;
}

std::unique_ptr<PrefetchGovernor::Lease> PrefetchGovernor::Arm(
    size_t requested_depth, uint64_t route) {
  std::lock_guard<std::mutex> lock(mu_);
  ReconcileBudget();  // adopt a renegotiated staging lease, if any
  size_t grant = std::clamp(requested_depth, cfg_.min_depth, cfg_.max_depth);
  grant = std::min(grant, std::max(cfg_.initial_depth, cfg_.min_depth));
  if (requested_depth == 0) grant = 0;
  // History gates: fresh arms start synchronous when past leases (a)
  // mostly threw their staging away, or (b) died young without ever
  // stalling — the short-lived-stream-on-a-warm-cache shape where the
  // fixed arming cost can never pay off. Either way a deterministic
  // probe every Nth refusal keeps sampling for a phase change back to
  // stall-bound. Each route is judged solely on its own history (one
  // disk's wasteful phase must not disarm the other heads); unrouted
  // traffic all lands in route 0, whose history is the device-global
  // shape of old. A fresh route arms optimistically and earns its own
  // record — initial_depth keeps that experiment cheap.
  // Quarantine gate: while the health monitor has this route's disk
  // quarantined, read-ahead on it is exactly wrong — speculative depth
  // multiplies traffic on a head that is failing or slow, and every
  // staged block rides the retry path. Refuse outright (no probe: the
  // quarantine exit, driven by retry successes on demand traffic, is
  // the re-arm signal). Never touches IoStats — depth is a wall-clock
  // knob.
  if (grant > 0 && gauge_ != nullptr && gauge_->RouteQuarantined(route)) {
    grant = 0;
    quarantine_disarms_++;
  }
  RouteState& rs = routes_[route];
  double waste = rs.waste_ewma;
  bool have_waste = rs.have_history;
  double stall = rs.stall_ewma;
  double windows = rs.lease_windows_ewma;
  bool have_lease = rs.have_lease_history;
  bool wasteful_history = have_waste && waste > cfg_.waste_disarm_ewma;
  bool futile_history = have_lease &&
                        windows < double(cfg_.adapt_windows) &&
                        stall < cfg_.stall_benefit_floor;
  bool probing = false;
  if (grant > 0 && (wasteful_history || futile_history)) {
    if (rs.refusals_since_probe + 1 >= cfg_.probe_every) {
      grant = cfg_.min_depth;
      probing = true;
    } else {
      rs.refusals_since_probe++;
      grant = 0;
    }
  }
  // Budget gate: an armed stream double-buffers 2*depth blocks; fit the
  // grant into the headroom or refuse outright.
  if (grant > 0) {
    size_t headroom = cfg_.budget_blocks > staged_blocks_
                          ? cfg_.budget_blocks - staged_blocks_
                          : 0;
    grant = std::min(grant, headroom / 2);
    if (grant < cfg_.min_depth) grant = 0;
  }
  // Depth-aware shaping: scale the fresh grant by the route's submission
  // headroom, but never below min_depth — a fresh stream always gets its
  // cheap experiment, headroom only trims how deep the experiment
  // starts. Depth beyond that is earned by stall evidence under the same
  // shaping (Adapt).
  if (grant > cfg_.min_depth && gauge_ != nullptr) {
    double h = gauge_->RouteHeadroom(route);
    if (h < 1.0) {
      size_t shaped = static_cast<size_t>(static_cast<double>(grant) * h);
      grant = std::max(shaped, cfg_.min_depth);
    }
  }
  // A probe only counts once it survives the budget gate; a probe
  // swallowed by exhausted headroom leaves the counter primed so the
  // very next arm probes again.
  if (probing && grant > 0) rs.refusals_since_probe = 0;
  if (grant > 0) {
    staged_blocks_ += 2 * grant;
    arms_granted_++;
  } else {
    arms_refused_++;
  }
  // Keep the arbiter's view of held staging fresh at every arm, not
  // just at adaptation boundaries: a never-yet-adapted stream's staging
  // must not read as idle (reclaimable) to the other side.
  PushUsage();
  auto lease = std::unique_ptr<Lease>(new Lease(this, grant));
  lease->route_ = route;
  // Engine advisory at birth: when recent leases never stalled, fresh
  // arms (probes included) start with inline coalesced fills — no
  // engine round-trip per window. Streams shorter than an adaptation
  // period would otherwise pay the handoff for their whole life before
  // the per-lease advisory could act. A stall observed inline flips the
  // engine on mid-lease (Adapt) and raises stall_ewma_ for successors.
  if (have_lease && stall < cfg_.stall_benefit_floor) {
    lease->use_engine_ = false;
  }
  return lease;
}

uint64_t PrefetchGovernor::Lease::BeginWait() const { return gov_->now_ns(); }

void PrefetchGovernor::Lease::EndWait(uint64_t began_ns, size_t blocks) {
  uint64_t now = gov_->now_ns();
  if (blocks == 0) blocks = 1;
  if (now - began_ns > gov_->cfg_.stall_floor_ns * blocks) {
    pending_stall_ = true;
    // A stall revealed by an inline fill flips the engine back on right
    // away, not at the next period boundary: a perfectly-overlapped
    // cold stream that was advised inline (it never *visibly* stalled)
    // pays device latency for exactly one window before background
    // fills resume.
    use_engine_ = true;
  }
}

void PrefetchGovernor::Lease::ReportWindow(size_t consumed, size_t unused) {
  windows_++;
  lifetime_windows_++;
  if (pending_stall_) {
    stalled_windows_++;
    ever_stalled_ = true;
  }
  pending_stall_ = false;
  consumed_blocks_ += consumed;
  unused_blocks_ += unused;
  if (windows_ >= gov_->cfg_.adapt_windows) {
    std::lock_guard<std::mutex> lock(gov_->mu_);
    gov_->Adapt(this);
  }
}

void PrefetchGovernor::Adapt(Lease* lease) {
  ReconcileBudget();  // adopt a renegotiated staging lease, if any
  const size_t staged = lease->consumed_blocks_ + lease->unused_blocks_;
  const size_t depth = lease->depth_;
  if (depth > 0 && gauge_ != nullptr &&
      gauge_->RouteQuarantined(lease->route_)) {
    // The route's disk went sick mid-lease: hand the staging back and go
    // synchronous now. Demand traffic (still served, via retry) is the
    // evidence stream that can lift the quarantine; speculative depth
    // would just pile more load on a failing head.
    staged_blocks_ -= 2 * depth;
    lease->depth_ = 0;
    disarm_decisions_++;
    quarantine_disarms_++;
  } else if (depth > 0 && staged > 0 && lease->unused_blocks_ * 2 > staged) {
    // Most of the staging is thrown away: no overlap benefit at this
    // depth. Halve; below the floor, disarm and hand the budget back.
    size_t next = depth / 2;
    if (next < cfg_.min_depth) {
      staged_blocks_ -= 2 * depth;
      lease->depth_ = 0;
      disarm_decisions_++;
    } else {
      staged_blocks_ -= 2 * (depth - next);
      lease->depth_ = next;
      shrink_decisions_++;
    }
  } else if (depth > 0 && lease->stalled_windows_ * 2 >= lease->windows_ &&
             lease->stalled_windows_ > 0 &&
             gauge_ != nullptr &&
             gauge_->RouteHeadroom(lease->route_) <= 0.0) {
    // Stall evidence, but the lease's disk has no submission headroom
    // left (every worker busy with a backlog pending): the stalls are
    // queueing delay, not insufficient depth — deeper windows would
    // only queue more. Hold depth and let the next period re-evaluate
    // once the workers drain.
    saturation_skips_++;
  } else if (depth > 0 && lease->stalled_windows_ * 2 >= lease->windows_ &&
             lease->stalled_windows_ > 0) {
    // The consumer keeps catching up with the fill: latency is not yet
    // hidden, so deepen the window as far as ceiling and budget allow —
    // scaled by the disk's submission headroom, so a nearly-saturated
    // head grows by its proportional share instead of the full doubling.
    size_t want = std::min(depth * 2, cfg_.max_depth);
    size_t headroom = cfg_.budget_blocks > staged_blocks_
                          ? cfg_.budget_blocks - staged_blocks_
                          : 0;
    if (staging_lease_ != nullptr && depth + headroom / 2 < want) {
      // Stall evidence the current budget cannot honor: renegotiate the
      // lease before settling for the smaller grow. The arbiter grants
      // from free M or arms cache-side reclaim for the next period.
      size_t extra =
          staging_lease_->RequestGrow(2 * want - 2 * depth - headroom);
      cfg_.budget_blocks += extra;
      headroom += extra;
    }
    want = std::min(want, depth + headroom / 2);
    if (want > depth) {
      size_t growth = want - depth;
      if (gauge_ != nullptr) {
        double h = gauge_->RouteHeadroom(lease->route_);
        growth = static_cast<size_t>(static_cast<double>(growth) * h);
      }
      if (growth > 0) {
        staged_blocks_ += 2 * growth;
        lease->depth_ = depth + growth;
        grow_decisions_++;
      } else {
        // Headroom shaped the grow away entirely: same hold as the
        // zero-headroom branch, visible to the same counter.
        saturation_skips_++;
      }
    }
  } else if (depth > cfg_.min_depth && lease->stalled_windows_ == 0 &&
             staged_blocks_ * 4 > cfg_.budget_blocks * 3) {
    // Healthy but never stalling, and the budget is nearly exhausted:
    // shed depth toward the floor so stalling streams can grow. Keeps
    // the vectored-fill coalescing, drops the excess staging.
    size_t next = std::max(cfg_.min_depth, depth / 2);
    staged_blocks_ -= 2 * (depth - next);
    lease->depth_ = next;
    shrink_decisions_++;
  }
  // Engine advisory: a stream that keeps consuming without ever waiting
  // gains nothing from background fills — the per-window engine
  // round-trip is pure overhead on a warm cache — so after a couple of
  // clean periods fills go inline (still one vectored syscall per
  // window). Any stall flips the engine straight back on.
  if (lease->stalled_windows_ > 0) {
    lease->stall_free_periods_ = 0;
    lease->use_engine_ = true;
  } else {
    lease->stall_free_periods_++;
    if (lease->stall_free_periods_ >= cfg_.engine_off_periods) {
      lease->use_engine_ = false;
    }
  }
  FoldHistory(lease->consumed_blocks_, lease->unused_blocks_, lease->route_);
  PushUsage();
  lease->windows_ = 0;
  lease->stalled_windows_ = 0;
  lease->consumed_blocks_ = 0;
  lease->unused_blocks_ = 0;
}

void PrefetchGovernor::FoldHistory(size_t consumed, size_t unused,
                                   uint64_t route) {
  size_t staged = consumed + unused;
  if (staged == 0) return;
  double waste = static_cast<double>(unused) / static_cast<double>(staged);
  waste_ewma_ = have_history_ ? 0.5 * waste_ewma_ + 0.5 * waste : waste;
  have_history_ = true;
  RouteState& rs = routes_[route];
  rs.waste_ewma = rs.have_history ? 0.5 * rs.waste_ewma + 0.5 * waste : waste;
  rs.have_history = true;
}

void PrefetchGovernor::Close(Lease* lease) {
  std::lock_guard<std::mutex> lock(mu_);
  staged_blocks_ -= 2 * lease->depth_;
  // A stream that died before completing one adaptation period is the
  // most important history of all: that is exactly the short-lived
  // shape the governor exists to stop re-arming. Fold its waste AND its
  // lifetime shape (length in windows, whether overlap ever helped).
  FoldHistory(lease->consumed_blocks_, lease->unused_blocks_, lease->route_);
  // Leases that never reported a window carry no shape evidence (the
  // stream moved nothing; its arming cost was trivial too).
  if (lease->lifetime_windows_ > 0) {
    double wins = static_cast<double>(lease->lifetime_windows_);
    double stalled = lease->ever_stalled_ ? 1.0 : 0.0;
    if (have_lease_history_) {
      lease_windows_ewma_ = 0.5 * lease_windows_ewma_ + 0.5 * wins;
      stall_ewma_ = 0.5 * stall_ewma_ + 0.5 * stalled;
    } else {
      lease_windows_ewma_ = wins;
      stall_ewma_ = stalled;
      have_lease_history_ = true;
    }
    RouteState& rs = routes_[lease->route_];
    if (rs.have_lease_history) {
      rs.lease_windows_ewma = 0.5 * rs.lease_windows_ewma + 0.5 * wins;
      rs.stall_ewma = 0.5 * rs.stall_ewma + 0.5 * stalled;
    } else {
      rs.lease_windows_ewma = wins;
      rs.stall_ewma = stalled;
      rs.have_lease_history = true;
    }
  }
  PushUsage();
  lease->depth_ = 0;
}

PrefetchGovernor::Lease::~Lease() { gov_->Close(this); }

size_t PrefetchGovernor::budget_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cfg_.budget_blocks;
}
size_t PrefetchGovernor::staged_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staged_blocks_;
}
size_t PrefetchGovernor::arms_granted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arms_granted_;
}
size_t PrefetchGovernor::arms_refused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arms_refused_;
}
size_t PrefetchGovernor::grow_decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grow_decisions_;
}
size_t PrefetchGovernor::shrink_decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shrink_decisions_;
}
size_t PrefetchGovernor::disarm_decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disarm_decisions_;
}
double PrefetchGovernor::waste_ewma() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waste_ewma_;
}
double PrefetchGovernor::stall_ewma() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_ewma_;
}
double PrefetchGovernor::lease_windows_ewma() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lease_windows_ewma_;
}
size_t PrefetchGovernor::saturation_skips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return saturation_skips_;
}
size_t PrefetchGovernor::quarantine_disarms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_disarms_;
}
PrefetchGovernor::RouteShape PrefetchGovernor::route_shape(
    uint64_t route) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = routes_.find(route);
  if (it == routes_.end()) return RouteShape{};
  const RouteState& rs = it->second;
  return RouteShape{rs.waste_ewma, rs.stall_ewma, rs.lease_windows_ewma,
                    rs.have_history, rs.have_lease_history};
}

}  // namespace vem
